// Sampling state frames (paper §III-B).
//
// A state frame S = (tau, c~) holds the number of samples taken and the
// per-vertex path counts accumulated by one thread during one epoch. The
// frame is stored as one flat uint64 array with tau in the last slot, so a
// whole frame can be aggregated - locally between threads or across ranks
// via an MPI reduction - as a single elementwise vector sum. Sparse and
// auto wire images are built from and decoded into that same array by the
// free functions of frame_codec.hpp.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "support/assert.hpp"

namespace distbc::epoch {

class StateFrame {
 public:
  StateFrame() = default;
  explicit StateFrame(std::uint32_t num_vertices)
      : data_(static_cast<std::size_t>(num_vertices) + 1, 0),
        num_vertices_(num_vertices) {}

  [[nodiscard]] std::uint32_t num_vertices() const { return num_vertices_; }

  /// Records one sample: increments tau and the count of every internal
  /// vertex of the sampled path (possibly none for adjacent endpoints).
  void record(std::span<const std::uint32_t> internal_vertices) {
    for (const std::uint32_t v : internal_vertices) {
      DISTBC_DEBUG_ASSERT(v < num_vertices_);
      ++data_[v];
    }
    ++data_[num_vertices_];
  }

  /// Records a sample of a disconnected pair: tau advances, no counts.
  void record_empty() { ++data_[num_vertices_]; }

  [[nodiscard]] std::uint64_t tau() const { return data_[num_vertices_]; }
  [[nodiscard]] std::uint64_t count(std::uint32_t v) const {
    DISTBC_DEBUG_ASSERT(v < num_vertices_);
    return data_[v];
  }

  /// Flat view (counts followed by tau) for aggregation and reductions.
  [[nodiscard]] std::span<std::uint64_t> raw() { return data_; }
  [[nodiscard]] std::span<const std::uint64_t> raw() const { return data_; }

  void clear() { std::fill(data_.begin(), data_.end(), 0); }

  [[nodiscard]] bool empty() const { return tau() == 0; }

  void merge(const StateFrame& other) {
    DISTBC_ASSERT(other.data_.size() == data_.size());
    // Idle threads contribute empty epoch frames; tau == 0 implies all
    // counts are zero (counts_consistent), so the O(V) sweep is skippable.
    if (other.empty()) return;
    for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += other.data_[i];
  }

  /// Sum of all per-vertex counts (tau excluded).
  [[nodiscard]] std::uint64_t count_sum() const {
    std::uint64_t total = 0;
    for (std::uint32_t v = 0; v < num_vertices_; ++v) total += data_[v];
    return total;
  }

  /// Consistency invariant: every internal vertex lies on some sampled path,
  /// and a path contributes at most (its length - 1) < num_vertices counts;
  /// cheap sanity check used by tests and debug assertions.
  [[nodiscard]] bool counts_consistent() const {
    const std::uint64_t total = count_sum();
    return tau() == 0 ? total == 0
                      : total <= tau() * static_cast<std::uint64_t>(
                                             num_vertices_);
  }

 private:
  std::vector<std::uint64_t> data_;
  std::uint32_t num_vertices_ = 0;
};

}  // namespace distbc::epoch
