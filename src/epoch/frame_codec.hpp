// Wire images for epoch state frames - the pluggable frame-representation
// layer.
//
// A frame's *wire image* is a self-describing flat uint64 sequence:
//   dense : [kDenseTag,  w_0 ... w_{W-1}]                 W = dense words
//   sparse: [kSparseTag, npairs, (index, value) x npairs] indices ascending
// Both describe the same elementwise-summable vector, so decoding is an
// *additive* merge into dense storage: dense images add elementwise, sparse
// images scatter-add their pairs. Every frame is a flat uint64 array
// (raw()), and the functions below build and read images straight from
// that span, so any frame rides every representation-aware data path (the
// engine's variable-length aggregation, comm::Substrate's merge family, the
// §IV-E shared window) without a codec of its own.
//
// Representation selection (FrameRep):
//   kDense  - always the dense image: one word per slot, the paper's §III-B
//             layout, aggregation cost proportional to |V|.
//   kSparse - always index/count pairs, even past the size crossover; the
//             honest "fixed sparse" arm of the ablation.
//   kAuto   - per-payload choice: pairs while they undercut the dense
//             image, dense afterwards. Auto therefore never ships more
//             than min(dense, sparse) - it cannot lose to the worse fixed
//             representation.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "support/assert.hpp"

namespace distbc::epoch {

enum class FrameRep : std::uint8_t { kDense, kSparse, kAuto };

[[nodiscard]] const char* frame_rep_name(FrameRep rep);
[[nodiscard]] std::optional<FrameRep> frame_rep_from_name(
    std::string_view name);

inline constexpr std::uint64_t kDenseTag = 0;
inline constexpr std::uint64_t kSparseTag = 1;

/// Words of a dense image of a `dense_words`-slot frame.
[[nodiscard]] inline std::size_t dense_image_words(std::size_t dense_words) {
  return 1 + dense_words;
}

/// Words of a sparse image holding `npairs` (index, value) pairs.
[[nodiscard]] inline std::size_t sparse_image_words(std::size_t npairs) {
  return 2 + 2 * npairs;
}

/// The representation an encoded image carries.
[[nodiscard]] inline FrameRep image_rep(std::span<const std::uint64_t> image) {
  DISTBC_ASSERT(!image.empty());
  return image.front() == kDenseTag ? FrameRep::kDense : FrameRep::kSparse;
}

/// Appends the dense image of `dense` to `out`.
void append_dense_image(std::span<const std::uint64_t> dense,
                        std::vector<std::uint64_t>& out);

/// Appends the sparse image of every nonzero slot of `dense` (one scan;
/// pairs come out in ascending index order).
void append_sparse_image_scan(std::span<const std::uint64_t> dense,
                              std::vector<std::uint64_t>& out);

/// True iff a sparse image of `npairs` pairs is smaller than the dense
/// image of a `dense_words`-slot frame - the kAuto rule.
[[nodiscard]] inline bool sparse_pays(std::size_t npairs,
                                      std::size_t dense_words) {
  return sparse_image_words(npairs) < dense_image_words(dense_words);
}

/// Appends the wire image of the flat frame `dense` to `out`, honoring
/// `preference` (kSparse forces pairs, kDense the flat image, kAuto the
/// smaller of the two). Returns the representation actually emitted.
FrameRep append_image(std::span<const std::uint64_t> dense,
                      FrameRep preference, std::vector<std::uint64_t>& out);

/// Additively combines wire image `in` into `acc` (both images over the
/// same `dense_words`-slot space), re-encoding the result in place - the
/// interior-hop step of a tree-merge reduction. Sparse inputs merge-join
/// their ascending pair lists in O(nnz_a + nnz_b); the moment the merged
/// pair count stops paying (sparse_pays), the result densifies - mid-tree
/// densification, so merged images never grow past the dense frame. A
/// dense operand densifies the result outright. Decoding the combined image
/// equals decoding both inputs (exact uint64 sums), so any combine order
/// yields the same aggregate.
void merge_images(std::vector<std::uint64_t>& acc,
                  std::span<const std::uint64_t> in, std::size_t dense_words);

/// Additively decodes `image` (either representation) into `dense`.
void decode_add_image(std::span<std::uint64_t> dense,
                      std::span<const std::uint64_t> image);

}  // namespace distbc::epoch
