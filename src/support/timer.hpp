// Wall-clock timing utilities.
//
// PhaseTimer accumulates named phase durations; the betweenness drivers use
// it to produce the phase breakdown of the paper's Figure 2b.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace distbc {

/// Monotonic stopwatch.
class WallTimer {
 public:
  WallTimer() : start_(clock::now()) {}

  void restart() { start_ = clock::now(); }

  [[nodiscard]] double elapsed_s() const {
    return std::chrono::duration<double>(clock::now() - start_).count();
  }

 private:
  using clock = std::chrono::steady_clock;
  clock::time_point start_;
};

/// The phases the paper's Figure 2b distinguishes, in stacking order.
enum class Phase : std::uint8_t {
  kDiameter = 0,        // phase 1: diameter computation
  kCalibration,         // phase 2: initial samples + delta optimization
  kSampling,            // adaptive sampling proper (taking samples)
  kEpochTransition,     // waiting on forceTransition completion
  kBarrier,             // non-blocking IBARRIER progress
  kReduction,           // blocking MPI reduction
  kStopCheck,           // evaluation of the stopping condition
  kBroadcast,           // §IV-E downward leg: node leaders send the
                        // merged epoch image back to their node's ranks
  kCount
};

std::string_view phase_name(Phase phase);

/// Accumulates per-phase wall time. Not thread-safe; each thread that needs
/// one owns its own instance and the driver merges them.
class PhaseTimer {
 public:
  void add(Phase phase, double seconds) {
    seconds_[static_cast<std::size_t>(phase)] += seconds;
  }

  /// Runs fn and charges its duration to the given phase; returns fn().
  template <typename Fn>
  auto timed(Phase phase, Fn&& fn) {
    WallTimer timer;
    if constexpr (std::is_void_v<decltype(fn())>) {
      fn();
      add(phase, timer.elapsed_s());
    } else {
      auto result = fn();
      add(phase, timer.elapsed_s());
      return result;
    }
  }

  [[nodiscard]] double seconds(Phase phase) const {
    return seconds_[static_cast<std::size_t>(phase)];
  }

  [[nodiscard]] double total_s() const {
    double total = 0;
    for (double s : seconds_) total += s;
    return total;
  }

  void merge(const PhaseTimer& other) {
    for (std::size_t i = 0; i < seconds_.size(); ++i)
      seconds_[i] += other.seconds_[i];
  }

  void reset() { seconds_.fill(0.0); }

 private:
  std::array<double, static_cast<std::size_t>(Phase::kCount)> seconds_{};
};

}  // namespace distbc
