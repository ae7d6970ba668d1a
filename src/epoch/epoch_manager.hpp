// The epoch-based framework of van der Grinten, Angriman, Meyerhenke
// (Euro-Par 2019) - the paper's Ref. [24] - reformulated as the asymmetric
// non-blocking barrier of paper §IV-B.
//
// Progress is divided into epochs. Every thread owns two frames and writes
// only to the frame of its current epoch (epoch parity selects the frame:
// the algorithm guarantees frames of epoch e-2 are dead, so two suffice,
// §IV-C). Thread zero initiates an epoch transition with force_transition()
// - one release store - and monitors completion with transition_done() -
// O(T) acquire loads. Sampler threads call check_transition() once per
// sample - one acquire load, plus one release store when they participate
// in a transition. No thread ever blocks and no compare-and-swap is needed:
// the mechanism is wait-free for samplers, and thread zero overlaps the
// whole transition with its own sampling.
//
// Memory-ordering argument: a sampler's release store of its epoch counter
// happens after its last write to the old epoch's frame; thread zero's
// acquire load in transition_done() therefore makes those writes visible
// before collect() reads the frames.
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "epoch/state_frame.hpp"
#include "support/aligned.hpp"
#include "support/assert.hpp"

namespace distbc::epoch {

class EpochManager {
 public:
  /// Per-thread double-buffered frames of `payload_words` payload words.
  EpochManager(int num_threads, std::size_t payload_words);

  /// The frame thread `t` writes to while in `epoch`.
  [[nodiscard]] StateFrame& frame(int t, std::uint32_t epoch) {
    DISTBC_DEBUG_ASSERT(t >= 0 && t < num_threads_);
    return frames_[static_cast<std::size_t>(t) * 2 + (epoch & 1)];
  }

  // --- Sampler-thread interface (t != 0) ---------------------------------

  /// Paper's CHECKTRANSITION(e): if thread zero has initiated a transition
  /// out of `epoch`, participate (advance this thread's published epoch)
  /// and return true; otherwise no-op and return false. Wait-free: one
  /// acquire load on the fast path.
  [[nodiscard]] bool check_transition(int t, std::uint32_t epoch) {
    if (target_epoch_.load(std::memory_order_acquire) <= epoch) return false;
    // Publish: all writes to the epoch-e frame happen-before this store.
    thread_epoch_[t].value.store(epoch + 1, std::memory_order_release);
    return true;
  }

  /// Cooperative termination flag (the atomic `d` of Algorithm 2).
  [[nodiscard]] bool stopped() const {
    return stop_.load(std::memory_order_acquire);
  }

  // --- Thread-zero interface ---------------------------------------------

  /// Paper's FORCETRANSITION(e): initiates the transition out of `epoch`
  /// and immediately advances thread zero. O(1); never blocks.
  void force_transition(std::uint32_t epoch);

  /// Monitoring half of FORCETRANSITION: true once every thread reached
  /// epoch + 1. O(T) acquire loads; thread zero overlaps this with
  /// sampling (Figure 1 of the paper).
  [[nodiscard]] bool transition_done(std::uint32_t epoch) const;

  /// Aggregates all threads' epoch-e frames into `out` and clears them for
  /// reuse as epoch e+2 frames. Must only be called by thread zero after
  /// transition_done(epoch); `out` is not cleared first.
  void collect(std::uint32_t epoch, StateFrame& out);

  void signal_stop() { stop_.store(true, std::memory_order_release); }

  /// Current published epoch of thread `t` (tests/diagnostics).
  [[nodiscard]] std::uint32_t thread_epoch(int t) const {
    return thread_epoch_[t].value.load(std::memory_order_acquire);
  }

 private:
  int num_threads_;
  std::vector<StateFrame> frames_;  // [thread][epoch parity]
  std::vector<PaddedAtomic<std::uint32_t>> thread_epoch_;
  std::atomic<std::uint32_t> target_epoch_{0};
  std::atomic<bool> stop_{false};
};

}  // namespace distbc::epoch
