// Sampling state frames (paper §III-B).
//
// A state frame holds what one thread sampled during one epoch as one flat
// uint64 array: P payload words followed by one word counting the samples
// finished into the frame. Every workload of the engine shares this one
// layout and differs only in what its payload means:
//   betweenness    [c~(0) .. c~(n-1) | tau]             (record/count below)
//   closeness      [credit sums (n) | squared sums (n) | sources]
//                                                  (adaptive/closeness.hpp)
//   mean distance  [sum d | sum d^2 | pairs]   (adaptive/mean_distance.hpp)
// So a whole frame aggregates - locally between threads, or across ranks
// as a wire image (frame_codec.hpp) - as a single elementwise vector sum.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "support/assert.hpp"

namespace distbc::epoch {

class StateFrame {
 public:
  /// No words at all: a placeholder (EngineResult::local_aggregate when no
  /// local aggregates were asked for). Only raw() and assignment apply.
  StateFrame() = default;
  explicit StateFrame(std::size_t payload_words)
      : data_(payload_words + 1, 0) {}

  /// Samples finished into this frame: tau for betweenness, sources for
  /// closeness, pairs for mean distance.
  [[nodiscard]] std::uint64_t tau() const { return data_.back(); }
  void finish_sample() { ++data_.back(); }

  [[nodiscard]] std::span<std::uint64_t> payload() {
    return std::span(data_).first(data_.size() - 1);
  }
  [[nodiscard]] std::span<const std::uint64_t> payload() const {
    return std::span(data_).first(data_.size() - 1);
  }

  /// The whole frame (payload, then the sample count) for aggregation.
  [[nodiscard]] std::span<std::uint64_t> raw() { return data_; }
  [[nodiscard]] std::span<const std::uint64_t> raw() const { return data_; }

  void clear() { std::fill(data_.begin(), data_.end(), 0); }

  /// A frame holds payload only through finished samples, so tau == 0
  /// means all zeros and merges of idle frames skip the sweep.
  [[nodiscard]] bool empty() const { return tau() == 0; }

  void merge(const StateFrame& other) {
    DISTBC_ASSERT(other.data_.size() == data_.size());
    if (other.empty()) return;
    for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += other.data_[i];
  }

  // --- Betweenness layout: one path count per vertex ---------------------

  [[nodiscard]] std::uint32_t num_vertices() const {
    return static_cast<std::uint32_t>(data_.size() - 1);
  }

  /// Records one sample: increments tau and the count of every internal
  /// vertex of the sampled path (possibly none for adjacent endpoints).
  void record(std::span<const std::uint32_t> internal_vertices) {
    for (const std::uint32_t v : internal_vertices) {
      DISTBC_DEBUG_ASSERT(v < num_vertices());
      ++data_[v];
    }
    finish_sample();
  }

  [[nodiscard]] std::uint64_t count(std::uint32_t v) const {
    DISTBC_DEBUG_ASSERT(v < num_vertices());
    return data_[v];
  }

  /// Sum of all per-vertex counts (tau excluded).
  [[nodiscard]] std::uint64_t count_sum() const {
    std::uint64_t total = 0;
    for (const std::uint64_t count : payload()) total += count;
    return total;
  }

  /// Consistency invariant: a path contributes at most (its length - 1) <
  /// num_vertices counts; cheap sanity check used by tests.
  [[nodiscard]] bool counts_consistent() const {
    const std::uint64_t total = count_sum();
    return tau() == 0 ? total == 0
                      : total <= tau() * static_cast<std::uint64_t>(
                                             num_vertices());
  }

 private:
  std::vector<std::uint64_t> data_;
};

}  // namespace distbc::epoch
