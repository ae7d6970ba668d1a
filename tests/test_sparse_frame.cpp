// Tests for the wire-image codec over StateFrame's flat array (dense and
// sparse encodings, append_image's size rule, additive decode), and parity
// of image-based aggregation with StateFrame::merge under random recording.
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

}  // namespace
}  // namespace distbc::epoch
