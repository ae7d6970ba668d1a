#include "epoch/frame_codec.hpp"

namespace distbc::epoch {

void append_dense_image(std::span<const std::uint64_t> dense,
                        std::vector<std::uint64_t>& out) {
  out.reserve(out.size() + dense_image_words(dense.size()));
  out.push_back(kDenseTag);
  out.insert(out.end(), dense.begin(), dense.end());
}

void append_sparse_image_scan(std::span<const std::uint64_t> dense,
                              std::vector<std::uint64_t>& out) {
  out.push_back(kSparseTag);
  const std::size_t npairs_slot = out.size();
  out.push_back(0);
  std::uint64_t npairs = 0;
  for (std::size_t i = 0; i < dense.size(); ++i) {
    if (dense[i] == 0) continue;
    out.push_back(i);
    out.push_back(dense[i]);
    ++npairs;
  }
  out[npairs_slot] = npairs;
}

void append_image(std::span<const std::uint64_t> dense,
                  std::vector<std::uint64_t>& out) {
  // Count nonzeros only until the sparse image stops paying.
  std::size_t npairs = 0;
  for (std::size_t i = 0; i < dense.size(); ++i) {
    npairs += dense[i] != 0;
    if (!sparse_pays(npairs, dense.size())) break;
  }
  if (sparse_pays(npairs, dense.size())) {
    append_sparse_image_scan(dense, out);
  } else {
    append_dense_image(dense, out);
  }
}

void decode_add_image(std::span<std::uint64_t> dense,
                      std::span<const std::uint64_t> image) {
  DISTBC_ASSERT(!image.empty());
  if (image.front() == kDenseTag) {
    DISTBC_ASSERT(image.size() == 1 + dense.size());
    for (std::size_t i = 0; i < dense.size(); ++i) dense[i] += image[1 + i];
    return;
  }
  DISTBC_ASSERT(image.front() == kSparseTag && image.size() >= 2);
  const std::uint64_t npairs = image[1];
  DISTBC_ASSERT(image.size() == sparse_image_words(npairs));
  for (std::uint64_t p = 0; p < npairs; ++p) {
    const std::uint64_t index = image[2 + 2 * p];
    DISTBC_ASSERT(index < dense.size());
    dense[index] += image[2 + 2 * p + 1];
  }
}

namespace {

/// Decodes `image` additively into a fresh dense image over `dense_words`
/// slots (used when a merge result must densify).
std::vector<std::uint64_t> densified(std::span<const std::uint64_t> image,
                                     std::size_t dense_words) {
  std::vector<std::uint64_t> dense(dense_image_words(dense_words), 0);
  dense.front() = kDenseTag;
  decode_add_image(std::span<std::uint64_t>(dense).subspan(1), image);
  return dense;
}

}  // namespace

void merge_images(std::vector<std::uint64_t>& acc,
                  std::span<const std::uint64_t> in, std::size_t dense_words) {
  DISTBC_ASSERT(!acc.empty() && !in.empty());
  if (is_dense_image(acc)) {
    DISTBC_ASSERT(acc.size() == dense_image_words(dense_words));
    decode_add_image(std::span<std::uint64_t>(acc).subspan(1), in);
    return;
  }
  if (is_dense_image(in)) {
    std::vector<std::uint64_t> dense(in.begin(), in.end());
    decode_add_image(std::span<std::uint64_t>(dense).subspan(1),
                     std::span<const std::uint64_t>(acc));
    acc = std::move(dense);
    return;
  }
  // Sparse + sparse: merge-join the ascending (index, value) pair lists.
  const std::uint64_t na = acc[1];
  const std::uint64_t nb = in[1];
  DISTBC_ASSERT(acc.size() == sparse_image_words(na) &&
                in.size() == sparse_image_words(nb));
  std::vector<std::uint64_t> merged;
  merged.reserve(sparse_image_words(na + nb));
  merged.push_back(kSparseTag);
  merged.push_back(0);
  std::uint64_t ia = 0;
  std::uint64_t ib = 0;
  std::uint64_t npairs = 0;
  while (ia < na || ib < nb) {
    const std::uint64_t index_a =
        ia < na ? acc[2 + 2 * ia] : ~std::uint64_t{0};
    const std::uint64_t index_b =
        ib < nb ? in[2 + 2 * ib] : ~std::uint64_t{0};
    if (index_a < index_b) {
      merged.push_back(index_a);
      merged.push_back(acc[2 + 2 * ia + 1]);
      ++ia;
    } else if (index_b < index_a) {
      merged.push_back(index_b);
      merged.push_back(in[2 + 2 * ib + 1]);
      ++ib;
    } else {
      merged.push_back(index_a);
      merged.push_back(acc[2 + 2 * ia + 1] + in[2 + 2 * ib + 1]);
      ++ia;
      ++ib;
    }
    DISTBC_DEBUG_ASSERT(npairs == 0 ||
                        merged[merged.size() - 2] > merged[merged.size() - 4]);
    ++npairs;
  }
  merged[1] = npairs;
  acc = sparse_pays(npairs, dense_words)
            ? std::move(merged)
            : densified(merged, dense_words);
}

}  // namespace distbc::epoch
