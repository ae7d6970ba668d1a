// Adaptive estimation of a graph's mean shortest-path distance - the
// "other adaptive sampling algorithm" demonstrating the generic driver
// (paper's future-work claim).
//
// Samples uniform vertex pairs, measures d(s, t) with the same
// bidirectional BFS the betweenness sampler uses, and stops once the
// empirical-Bernstein confidence interval (Maurer & Pontil 2009) of the
// mean is tighter than epsilon:
//   hw(n) = sqrt(2 V_n ln(3/delta) / n) + 3 R ln(3/delta) / n <= epsilon,
// with V_n the sample variance and R an upper bound on the distance range
// (a cheap 2-approximate diameter). Everything else - wait-free per-thread
// frames, overlapped epoch transitions and reductions, selectable
// aggregation strategies, hierarchical reduction, the stop check every
// rank runs on the merged aggregate - comes from engine::run_epochs
// unchanged.
#pragma once

#include <cstdint>
#include <span>

#include "engine/engine.hpp"
#include "epoch/state_frame.hpp"
#include "graph/graph.hpp"
#include "mpisim/comm.hpp"
#include "support/timer.hpp"

namespace distbc::adaptive {

// --- The mean-distance layout of an epoch::StateFrame ---------------------
//
// [sum of d | sum of d^2 | pairs]. A sample fills all three words, so the
// engine's image encoder (epoch::append_image) ships a frame holding one
// as the 4-word dense image, and an empty frame as the 2-word sparse one.

inline constexpr std::size_t kMomentWords = 2;

inline void record_distance(epoch::StateFrame& frame,
                            std::uint32_t distance) {
  const std::span<std::uint64_t> payload = frame.payload();
  payload[0] += distance;
  payload[1] += static_cast<std::uint64_t>(distance) * distance;
  frame.finish_sample();
}

/// Mean of the recorded distances (0 while none are in).
[[nodiscard]] inline double distance_mean(const epoch::StateFrame& frame) {
  return frame.tau() == 0 ? 0.0
                          : static_cast<double>(frame.payload()[0]) /
                                static_cast<double>(frame.tau());
}

/// Unbiased sample variance of the recorded distances (0 while fewer than
/// two are in).
[[nodiscard]] double distance_variance(const epoch::StateFrame& frame);

struct MeanDistanceParams {
  double epsilon = 0.1;  // absolute half-width target, in hops
  double delta = 0.1;
  std::uint64_t seed = 0x5eed;
  /// Epoch-engine configuration (threads, §IV-F aggregation strategy,
  /// §IV-E hierarchical reduction, epoch-length rule).
  engine::EngineOptions engine;
  /// Distance-range upper bound for the Bernstein term; 0 = compute the
  /// 2-approximate diameter at rank 0 (and report it in
  /// MeanDistanceResult::range). api::Session feeds the reported value
  /// back so repeated queries skip the diameter probe.
  std::uint32_t known_range = 0;
  /// Skip the rank-0 connectivity assertion: the caller (api::Session)
  /// already validated it and turned failure into a status instead of an
  /// abort.
  bool assume_connected = false;
};

struct MeanDistanceResult {
  double mean = 0.0;
  double stddev = 0.0;
  double half_width = 0.0;   // final confidence half-width
  std::uint64_t samples = 0;
  std::uint64_t epochs = 0;
  engine::StopReason stop_reason = engine::StopReason::kRule;
  std::uint32_t range = 0;   // the distance-range bound the run used
  double total_seconds = 0.0;
  /// Engine phase windows and per-collective bytes moved (valid at world
  /// rank 0) - the same observability surface BcResult has, feeding the
  /// unified api::Result.
  PhaseTimer phases;
  mpisim::CommVolume comm_volume;
  /// Engine configuration the run actually used.
  engine::EngineOptions engine_used;
};

/// Empirical-Bernstein half-width; exposed for tests.
[[nodiscard]] double bernstein_half_width(double variance, double range,
                                          double delta, std::uint64_t n);

/// Per-rank driver; run inside mpisim::Runtime::run on every rank.
/// Result fields are valid at world rank 0. Requires a connected graph.
[[nodiscard]] MeanDistanceResult mean_distance_rank(
    const graph::Graph& graph, const MeanDistanceParams& params,
    mpisim::Comm& world);

/// Convenience wrapper over a fresh simulated cluster.
[[nodiscard]] MeanDistanceResult mean_distance_mpi(
    const graph::Graph& graph, const MeanDistanceParams& params,
    int num_ranks, int ranks_per_node = 1, mpisim::NetworkModel network = {});

}  // namespace distbc::adaptive
