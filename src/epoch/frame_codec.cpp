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

}  // namespace distbc::epoch
