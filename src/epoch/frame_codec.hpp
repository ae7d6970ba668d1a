// Wire images for epoch state frames - the one wire format every
// multi-rank aggregation ships.
//
// A frame's *wire image* is a self-describing flat uint64 sequence:
//   dense : [kDenseTag,  w_0 ... w_{W-1}]                 W = dense words
//   sparse: [kSparseTag, npairs, (index, value) x npairs] indices ascending
// Both describe the same elementwise-summable vector, so decoding is an
// *additive* merge into dense storage: dense images add elementwise, sparse
// images scatter-add their pairs. Every frame is a flat uint64 array
// (raw()), and the functions below build and read images straight from
// that span, so any frame rides every aggregation path (the engine's
// variable-length aggregation, mpisim::Comm's merge family, the §IV-E
// shared window) without a codec of its own.
//
// append_image sizes each image by its data: pairs while they undercut the
// dense image, the paper's §III-B dense layout afterwards. An image is
// therefore never larger than the dense frame plus its tag word, and a
// frame holding few samples costs O(nonzeros) instead of O(|V|).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "support/assert.hpp"

namespace distbc::epoch {

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

/// True iff an encoded image carries the dense representation.
[[nodiscard]] inline bool is_dense_image(
    std::span<const std::uint64_t> image) {
  DISTBC_ASSERT(!image.empty());
  return image.front() == kDenseTag;
}

/// Appends the dense image of `dense` to `out`.
void append_dense_image(std::span<const std::uint64_t> dense,
                        std::vector<std::uint64_t>& out);

/// Appends the sparse image of every nonzero slot of `dense` (one scan;
/// pairs come out in ascending index order).
void append_sparse_image_scan(std::span<const std::uint64_t> dense,
                              std::vector<std::uint64_t>& out);

/// True iff a sparse image of `npairs` pairs is smaller than the dense
/// image of a `dense_words`-slot frame - the size rule of append_image.
[[nodiscard]] inline bool sparse_pays(std::size_t npairs,
                                      std::size_t dense_words) {
  return sparse_image_words(npairs) < dense_image_words(dense_words);
}

/// Appends the wire image of the flat frame `dense` to `out`: the sparse
/// image while it is smaller than the dense one (sparse_pays), the dense
/// image otherwise.
void append_image(std::span<const std::uint64_t> dense,
                  std::vector<std::uint64_t>& out);

/// Additively decodes `image` (either representation) into `dense`.
void decode_add_image(std::span<std::uint64_t> dense,
                      std::span<const std::uint64_t> image);

}  // namespace distbc::epoch
