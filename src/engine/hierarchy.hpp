// Hierarchical node-local pre-reduction (paper §IV-E).
//
// With multiple ranks per compute node, every rank first accumulates its
// epoch snapshot into a node-local shared RMA window (passive-target
// one-sided communication over shared memory); only the node leader reads
// the pre-reduced node aggregate back and joins the global inter-node
// reduction. This shrinks the global reduction from P to P/ranks_per_node
// participants at the cost of one cheap intra-node window pass.
//
// The window itself is always the dense flat frame; a rank's snapshot
// enters it as its wire image (epoch/frame_codec.hpp). A sparse image
// scatter-adds its delta pairs, so the intra-node pass moves O(nonzeros);
// a dense one accumulates the whole frame. The leader then re-reads the
// node aggregate and ships whichever image is smaller - typically dense,
// since the node aggregate is the union of its ranks' deltas ("only
// leaders ship dense data when that is cheaper").
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "epoch/frame_codec.hpp"
#include "mpisim/comm.hpp"

namespace distbc::engine {

class Hierarchy {
 public:
  Hierarchy() = default;
  // The window points at local_, so the communicators must stay put.
  Hierarchy(const Hierarchy&) = delete;
  Hierarchy& operator=(const Hierarchy&) = delete;

  /// Collective over `world`: splits node-local and node-leader
  /// communicators and creates the shared window of `frame_words` uint64
  /// slots. Must be called by every rank of `world`.
  void init(mpisim::Comm& world, std::size_t frame_words) {
    local_ = world.split_by_node();
    leader_ = world.split_node_leaders();
    window_.emplace(local_, frame_words);
    active_ = true;
  }

  [[nodiscard]] bool active() const { return active_; }

  /// Pre-reduces the flat frame `frame` over the node-local window.
  /// Collective over the node communicator. Returns true iff this rank is
  /// the node leader, in which case `frame` now holds the whole node's
  /// aggregate and the caller must forward it into the global reduction
  /// via global(). The frame enters the window as its wire image.
  [[nodiscard]] bool pre_reduce(std::span<std::uint64_t> frame) {
    DISTBC_ASSERT(active_);
    image_.clear();
    epoch::append_image(frame, image_);
    const std::span<const std::uint64_t> image(image_);
    if (epoch::is_dense_image(image)) {
      window_->accumulate(image.subspan(1));
    } else {
      window_->accumulate_pairs(image.subspan(2));
    }
    local_.barrier();
    const bool leader = local_.rank() == 0;
    if (leader) {
      // Windowed touched-bitmap read-back: as long as every rank scattered
      // sparse pairs, the leader sweeps only the union of touched slots -
      // O(union nnz) per epoch instead of O(V). Once any rank accumulated
      // a dense frame or image, the leader reads the whole window back.
      image_.assign(2, 0);
      if (window_->read_touched_pairs(image_)) {
        image_[0] = epoch::kSparseTag;
        image_[1] = (image_.size() - 2) / 2;
        std::fill(frame.begin(), frame.end(), 0);
        epoch::decode_add_image(frame, image_);
        window_->clear_touched();
      } else {
        window_->read(frame);
        window_->clear();
      }
    }
    local_.barrier();
    return leader;
  }

  /// The inter-node communicator of the node leaders. Its rank zero is
  /// world rank zero; only valid on node leaders.
  [[nodiscard]] mpisim::Comm& global() {
    DISTBC_ASSERT(active_ && leader_.valid());
    return leader_;
  }

  /// The intra-node communicator (valid on every rank; its rank zero is
  /// the node leader). The hierarchy's downward leg: leaders
  /// redistribute the globally merged aggregate over this communicator so
  /// every rank can evaluate the stopping rule locally.
  [[nodiscard]] mpisim::Comm& node() {
    DISTBC_ASSERT(active_);
    return local_;
  }

  /// Per-collective byte breakdown of the two split communicators.
  [[nodiscard]] mpisim::CommVolume volume() {
    mpisim::CommVolume bytes;
    if (!active_) return bytes;
    bytes += local_.stats().volume();
    if (leader_.valid()) bytes += leader_.stats().volume();
    return bytes;
  }

 private:
  mpisim::Comm local_;
  mpisim::Comm leader_;
  std::optional<mpisim::Window<std::uint64_t>> window_;
  std::vector<std::uint64_t> image_;  // per-epoch encode buffer
  bool active_ = false;
};

}  // namespace distbc::engine
