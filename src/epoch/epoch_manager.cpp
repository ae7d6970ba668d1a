#include "epoch/epoch_manager.hpp"

namespace distbc::epoch {

EpochManager::EpochManager(int num_threads, std::size_t payload_words)
    : num_threads_(num_threads),
      frames_(static_cast<std::size_t>(num_threads) * 2,
              StateFrame(payload_words)),
      thread_epoch_(num_threads) {
  DISTBC_ASSERT(num_threads >= 1);
}

void EpochManager::force_transition(std::uint32_t epoch) {
  DISTBC_ASSERT_MSG(target_epoch_.load(std::memory_order_relaxed) == epoch,
                    "transitions must be initiated in order and not overlap");
  thread_epoch_[0].value.store(epoch + 1, std::memory_order_release);
  target_epoch_.store(epoch + 1, std::memory_order_release);
}

bool EpochManager::transition_done(std::uint32_t epoch) const {
  for (int t = 0; t < num_threads_; ++t) {
    if (thread_epoch_[t].value.load(std::memory_order_acquire) < epoch + 1)
      return false;
  }
  return true;
}

void EpochManager::collect(std::uint32_t epoch, StateFrame& out) {
  DISTBC_ASSERT(transition_done(epoch));
  for (int t = 0; t < num_threads_; ++t) {
    StateFrame& source = frame(t, epoch);
    // Threads that took no samples this epoch (stragglers on
    // oversubscribed hosts, unowned streams in deterministic mode) leave
    // their frame empty; skip the merge and clear sweeps entirely.
    if (source.empty()) continue;
    out.merge(source);
    source.clear();
  }
}

}  // namespace distbc::epoch
