// The distributed top-k extraction (bc/topk.hpp): the TPUT-style protocol
// over gatherv must reproduce the root-side selection over the global
// aggregate exactly, and the kadabra driver must deliver the same top-k
// pairs on every rank without moving any full frame.
#include <gtest/gtest.h>

#include <vector>

#include "bc/kadabra.hpp"
#include "bc/topk.hpp"
#include "epoch/state_frame.hpp"
#include "gen/barabasi_albert.hpp"
#include "graph/components.hpp"
#include "mpisim/comm.hpp"
#include "mpisim/runtime.hpp"

namespace distbc {
namespace {

mpisim::RuntimeConfig quiet(int ranks, int per_node = 1) {
  mpisim::RuntimeConfig config;
  config.num_ranks = ranks;
  config.ranks_per_node = per_node;
  config.network = mpisim::NetworkModel::disabled();
  return config;
}

/// Per-rank frames with overlapping counts; the global truth is their sum.
epoch::StateFrame make_local(std::uint32_t vertices, int rank) {
  epoch::StateFrame frame(vertices);
  std::vector<std::uint32_t> path;
  // Rank r touches vertices r, r+1, ..., r+9 (overlap across ranks) plus
  // a rank-specific heavy hitter.
  for (std::uint32_t i = 0; i < 10; ++i)
    path.push_back((static_cast<std::uint32_t>(rank) + i) % vertices);
  frame.record(path);
  std::vector<std::uint32_t> heavy(
      static_cast<std::size_t>(rank) + 1,
      static_cast<std::uint32_t>(vertices - 1 - rank));
  for (const std::uint32_t v : heavy) frame.record({&v, 1});
  return frame;
}

TEST(DistributedTopK, MatchesDirectSelectionOverTheSum) {
  constexpr std::uint32_t kVertices = 64;
  constexpr int kRanks = 4;
  // The truth: direct top-k over the elementwise sum of all locals.
  epoch::StateFrame global(kVertices);
  for (int r = 0; r < kRanks; ++r) global.merge(make_local(kVertices, r));

  for (const std::size_t k : {std::size_t{1}, std::size_t{5},
                              std::size_t{200}}) {
    const std::vector<bc::TopKEntry> expected = bc::local_top_k(global, k);
    mpisim::Runtime runtime(quiet(kRanks));
    runtime.run([&](mpisim::Comm& world) {
      const epoch::StateFrame local = make_local(kVertices, world.rank());
      const std::vector<bc::TopKEntry> got =
          bc::distributed_top_k(world, local, k);
      if (world.rank() == 0) {
        EXPECT_EQ(got, expected);
      } else {
        EXPECT_TRUE(got.empty());
      }
    });
    // The protocol moves candidate pairs through gatherv, never a frame.
    EXPECT_GE(runtime.last_world_stats().gatherv_calls.load(),
              2u * kRanks);
    EXPECT_LT(runtime.last_world_stats().gatherv_bytes.load(),
              static_cast<std::uint64_t>(kRanks) * (kVertices + 1) *
                  sizeof(std::uint64_t));
  }
}

TEST(DistributedTopK, SingleRankAndEmptyFrames) {
  epoch::StateFrame frame(8);
  const std::uint32_t v = 3;
  frame.record({&v, 1});
  const auto top = bc::local_top_k(frame, 5);
  ASSERT_EQ(top.size(), 1u);
  EXPECT_EQ(top[0].vertex, 3u);
  EXPECT_EQ(top[0].count, 1u);

  mpisim::Runtime runtime(quiet(3));
  runtime.run([&](mpisim::Comm& world) {
    const epoch::StateFrame empty(8);  // nothing sampled anywhere
    const auto got = bc::distributed_top_k(world, empty, 4);
    EXPECT_TRUE(got.empty());
  });
}

TEST(KadabraTopK, EveryRankGetsTheRootsAnswer) {
  const graph::Graph graph =
      graph::largest_component(gen::barabasi_albert(300, 3, 7));
  bc::KadabraOptions options;
  options.params.epsilon = 0.15;
  options.params.seed = 7;
  options.engine.deterministic = true;
  options.engine.virtual_streams = 4;
  options.top_k = 5;

  constexpr int kRanks = 4;
  mpisim::Runtime runtime(quiet(kRanks));
  std::vector<bc::BcResult> results(kRanks);
  runtime.run([&](mpisim::Comm& world) {
    results[static_cast<std::size_t>(world.rank())] =
        bc::kadabra_run(graph, options, &world);
  });

  const bc::BcResult& root = results[0];
  ASSERT_EQ(root.top_k_pairs.size(), 5u);
  // The delivered pairs equal the root's own score-based selection.
  const std::vector<graph::Vertex> direct = root.top_k(5);
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(root.top_k_pairs[i].first, direct[i]);
    EXPECT_DOUBLE_EQ(root.top_k_pairs[i].second,
                     root.scores[direct[i]]);
  }
  // Every rank serves the identical answer.
  for (int r = 1; r < kRanks; ++r)
    EXPECT_EQ(results[static_cast<std::size_t>(r)].top_k_pairs,
              root.top_k_pairs);
  // gatherv carried the protocol; no full dense frame crossed it.
  EXPECT_GT(runtime.last_world_stats().gatherv_calls.load(), 0u);
  EXPECT_LT(runtime.last_world_stats().gatherv_bytes.load(),
            static_cast<std::uint64_t>(graph.num_vertices()) *
                sizeof(std::uint64_t) * kRanks);
}

TEST(KadabraTopK, SingleRankFillsPairs) {
  const graph::Graph graph =
      graph::largest_component(gen::barabasi_albert(200, 3, 11));
  bc::KadabraOptions options;
  options.params.epsilon = 0.2;
  options.params.seed = 11;
  options.top_k = 3;
  const bc::BcResult result = bc::kadabra_shm(graph, options);
  ASSERT_EQ(result.top_k_pairs.size(), 3u);
  const std::vector<graph::Vertex> direct = result.top_k(3);
  for (std::size_t i = 0; i < 3; ++i)
    EXPECT_EQ(result.top_k_pairs[i].first, direct[i]);
}

}  // namespace
}  // namespace distbc
