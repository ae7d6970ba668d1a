// Tests for the wire-image codec over StateFrame's flat array (dense and
// sparse encodings, append_image's size rule, additive decode), tree-merge
// image combining, and parity of image-based aggregation with
// StateFrame::merge under random recording.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "epoch/frame_codec.hpp"
#include "epoch/state_frame.hpp"
#include "support/random.hpp"

namespace distbc::epoch {
namespace {

/// Records `samples` random paths of 0-4 interior vertices into `frame`.
void record_random(StateFrame& frame, Rng& rng, int samples) {
  std::vector<std::uint32_t> path;
  for (int sample = 0; sample < samples; ++sample) {
    path.clear();
    const int internal = static_cast<int>(rng.next_bounded(5));
    for (int i = 0; i < internal; ++i)
      path.push_back(
          static_cast<std::uint32_t>(rng.next_bounded(frame.num_vertices())));
    if (path.empty()) {
      frame.finish_sample();
    } else {
      frame.record(path);
    }
  }
}

void expect_same_frame(const StateFrame& got, const StateFrame& want) {
  EXPECT_EQ(got.tau(), want.tau());
  for (std::uint32_t v = 0; v < want.num_vertices(); ++v)
    EXPECT_EQ(got.count(v), want.count(v)) << "vertex " << v;
}

TEST(FrameCodec, TauOnlyFrameEncodesOnePair) {
  StateFrame frame(100);
  frame.finish_sample();
  frame.finish_sample();
  std::vector<std::uint64_t> image;
  append_image(frame.raw(), image);
  EXPECT_FALSE(is_dense_image(image));
  // [tag, npairs=1, (index=100, tau=2)]
  ASSERT_EQ(image.size(), sparse_image_words(1));
  EXPECT_EQ(image[0], kSparseTag);
  EXPECT_EQ(image[1], 1u);
  EXPECT_EQ(image[2], 100u);
  EXPECT_EQ(image[3], 2u);

  StateFrame decoded(100);
  decode_add_image(decoded.raw(), image);
  EXPECT_EQ(decoded.tau(), 2u);
  EXPECT_EQ(decoded.count_sum(), 0u);
}

TEST(FrameCodec, SparseImagePairsAreSortedByIndex) {
  StateFrame frame(50);
  frame.record(std::vector<std::uint32_t>{40, 3, 17});
  std::vector<std::uint64_t> image;
  append_image(frame.raw(), image);
  ASSERT_FALSE(is_dense_image(image));
  ASSERT_EQ(image[1], 4u);  // 3 vertices + tau pair
  std::uint64_t previous = 0;
  for (std::uint64_t p = 0; p < image[1]; ++p) {
    const std::uint64_t index = image[2 + 2 * p];
    if (p > 0) { EXPECT_GT(index, previous); }
    previous = index;
  }
  EXPECT_EQ(image[2 + 2 * 3], 50u);  // tau pair last (largest index)
}

/// Every way to build an image: each fixed encoding and the size rule.
using Encoder = void (*)(std::span<const std::uint64_t>,
                         std::vector<std::uint64_t>&);
constexpr Encoder kEncoders[] = {append_dense_image, append_sparse_image_scan,
                                 append_image};

TEST(FrameCodec, EncodeDecodeRoundTripsEveryEncoding) {
  Rng rng(99);
  StateFrame original(64);
  record_random(original, rng, 40);
  for (const Encoder encode : kEncoders) {
    std::vector<std::uint64_t> image;
    encode(original.raw(), image);
    StateFrame decoded(64);
    decode_add_image(decoded.raw(), image);
    expect_same_frame(decoded, original);
    // Decoding is additive: a second pass doubles everything.
    decode_add_image(decoded.raw(), image);
    EXPECT_EQ(decoded.tau(), 2 * original.tau());
  }
}

TEST(FrameCodec, ImageAggregationMatchesMergeUnderRandomRecording) {
  // Four "threads" record independent random streams; aggregating their
  // images (each encoding, mixed) must equal StateFrame::merge.
  Rng rng(1234);
  std::vector<StateFrame> frames(4, StateFrame(32));
  for (StateFrame& frame : frames) record_random(frame, rng, 50);
  StateFrame merged(32);
  for (const StateFrame& frame : frames) merged.merge(frame);

  const Encoder encoders[] = {append_dense_image, append_sparse_image_scan,
                              append_image, append_sparse_image_scan};
  StateFrame decoded(32);
  std::vector<std::uint64_t> image;
  for (std::size_t i = 0; i < frames.size(); ++i) {
    image.clear();
    encoders[i](frames[i].raw(), image);
    decode_add_image(decoded.raw(), image);
  }
  expect_same_frame(decoded, merged);
  EXPECT_EQ(decoded.count_sum(), merged.count_sum());
}

TEST(FrameCodec, AppendImagePicksTheSmallerImage) {
  StateFrame mostly_empty(100);
  mostly_empty.record(std::vector<std::uint32_t>{7});
  std::vector<std::uint64_t> image;
  append_image(mostly_empty.raw(), image);
  EXPECT_FALSE(is_dense_image(image));
  EXPECT_EQ(image.size(), sparse_image_words(2));  // vertex 7 + tau

  StateFrame full(4);
  full.record(std::vector<std::uint32_t>{0, 1, 2, 3});
  image.clear();
  append_image(full.raw(), image);
  EXPECT_TRUE(is_dense_image(image));
  EXPECT_EQ(image.size(), dense_image_words(5));

  // At the crossover a tie goes dense: 4 vertices + tau = 5 words, so the
  // dense image is 6 words and so is a 2-pair sparse image.
  StateFrame tie(4);
  tie.record(std::vector<std::uint32_t>{0});
  image.clear();
  append_image(tie.raw(), image);
  EXPECT_TRUE(is_dense_image(image));
  StateFrame tau_only(4);
  tau_only.finish_sample();
  image.clear();
  append_image(tau_only.raw(), image);
  EXPECT_FALSE(is_dense_image(image));
}

// --- merge_images: the interior-hop combiner of tree-merge reductions -------

/// Decodes an image into a dense vector of `words` slots.
std::vector<std::uint64_t> decoded(std::span<const std::uint64_t> image,
                                   std::size_t words) {
  std::vector<std::uint64_t> dense(words, 0);
  decode_add_image(std::span<std::uint64_t>(dense), image);
  return dense;
}

TEST(MergeImages, SparseSparseMergeJoin) {
  // Disjoint and overlapping indices, ascending order preserved.
  std::vector<std::uint64_t> acc{kSparseTag, 2, 1, 10, 5, 20};
  const std::vector<std::uint64_t> in{kSparseTag, 3, 0, 1, 5, 2, 7, 3};
  merge_images(acc, in, /*dense_words=*/16);
  const std::vector<std::uint64_t> expected{kSparseTag, 4, 0, 1,
                                            1,          10, 5, 22,
                                            7,          3};
  EXPECT_EQ(acc, expected);
}

TEST(MergeImages, EqualsDecodingBothInputs) {
  std::vector<std::uint64_t> acc{kSparseTag, 2, 3, 4, 9, 1};
  const std::vector<std::uint64_t> in{kSparseTag, 2, 3, 6, 12, 2};
  std::vector<std::uint64_t> want = decoded(acc, 16);
  const std::vector<std::uint64_t> other = decoded(in, 16);
  for (std::size_t i = 0; i < want.size(); ++i) want[i] += other[i];
  merge_images(acc, in, 16);
  EXPECT_EQ(decoded(acc, 16), want);
}

TEST(MergeImages, DensifiesAtTheCrossover) {
  // 16-slot space: sparse pays while 2 + 2 * npairs < 1 + 16. Merging two
  // 4-pair images with disjoint indices gives 8 pairs -> 18 words >= 17,
  // so the result must densify (mid-tree densification).
  std::vector<std::uint64_t> acc{kSparseTag, 4, 0, 1, 2, 1, 4, 1, 6, 1};
  const std::vector<std::uint64_t> in{kSparseTag, 4, 1, 2, 3, 2, 5, 2, 7, 2};
  const std::vector<std::uint64_t> want = [&] {
    std::vector<std::uint64_t> dense = decoded(acc, 16);
    const std::vector<std::uint64_t> other = decoded(in, 16);
    for (std::size_t i = 0; i < dense.size(); ++i) dense[i] += other[i];
    return dense;
  }();
  merge_images(acc, in, 16);
  ASSERT_TRUE(is_dense_image(acc));
  EXPECT_EQ(decoded(acc, 16), want);
}

TEST(MergeImages, DenseOperandsDensifyTheResult) {
  // dense += sparse.
  std::vector<std::uint64_t> acc{kDenseTag, 1, 2, 3, 0};
  merge_images(acc, std::vector<std::uint64_t>{kSparseTag, 1, 3, 5}, 4);
  EXPECT_EQ(acc, (std::vector<std::uint64_t>{kDenseTag, 1, 2, 3, 5}));
  // sparse += dense: the accumulator densifies.
  std::vector<std::uint64_t> sparse{kSparseTag, 1, 0, 7};
  merge_images(sparse, std::vector<std::uint64_t>{kDenseTag, 1, 1, 1, 1}, 4);
  EXPECT_EQ(sparse, (std::vector<std::uint64_t>{kDenseTag, 8, 1, 1, 1}));
  // dense += dense.
  std::vector<std::uint64_t> both{kDenseTag, 1, 1, 1, 1};
  merge_images(both, std::vector<std::uint64_t>{kDenseTag, 1, 0, 0, 2}, 4);
  EXPECT_EQ(both, (std::vector<std::uint64_t>{kDenseTag, 2, 1, 1, 3}));
}

}  // namespace
}  // namespace distbc::epoch
