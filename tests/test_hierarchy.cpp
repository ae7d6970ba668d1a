// Edge-case tests for engine/hierarchy.hpp (§IV-E node-local RMA
// pre-reduction): rank counts not divisible by the node size, single-node
// clusters, and the hierarchy combined with every §IV-F aggregation
// strategy - checked both directly on the window substrate and end-to-end
// through deterministic KADABRA runs.
#include <gtest/gtest.h>

#include <cstdint>
#include <mutex>
#include <vector>

#include "bc/kadabra.hpp"
#include "engine/hierarchy.hpp"
#include "gen/erdos_renyi.hpp"
#include "graph/components.hpp"
#include "mpisim/comm.hpp"
#include "mpisim/runtime.hpp"

namespace distbc {
namespace {

/// Runs the §IV-E substrate directly: every rank pre-reduces a frame of
/// (rank + 1) values; node leaders then reduce over the leader
/// communicator. Returns the world total seen at world rank 0.
std::vector<std::uint64_t> hierarchical_total(int num_ranks,
                                              int ranks_per_node,
                                              std::size_t frame_words) {
  mpisim::RuntimeConfig config;
  config.num_ranks = num_ranks;
  config.ranks_per_node = ranks_per_node;
  config.network = mpisim::NetworkModel::disabled();
  mpisim::Runtime runtime(config);

  std::vector<std::uint64_t> root_total;
  std::mutex mu;
  runtime.run([&](mpisim::Comm& world) {
    engine::Hierarchy hierarchy;
    hierarchy.init(world, frame_words);
    ASSERT_TRUE(hierarchy.active());

    std::vector<std::uint64_t> frame(
        frame_words, static_cast<std::uint64_t>(world.rank()) + 1);
    const bool leader = hierarchy.pre_reduce(frame);
    // Exactly the leaders join the global reduction; its rank zero is
    // world rank zero.
    if (leader) {
      std::vector<std::uint64_t> total(frame_words, 0);
      hierarchy.global().reduce(std::span<const std::uint64_t>(frame),
                                std::span<std::uint64_t>(total), 0);
      if (world.rank() == 0) {
        std::lock_guard lock(mu);
        root_total = std::move(total);
      }
    } else {
      EXPECT_FALSE(world.rank() == 0) << "world rank 0 must be a leader";
    }
  });
  return root_total;
}

TEST(Hierarchy, RankCountNotDivisibleByNodeSize) {
  // 5 ranks, 2 per node -> nodes {0,1}, {2,3}, {4}: the last node is
  // half-filled.
  const auto total = hierarchical_total(5, 2, 3);
  ASSERT_EQ(total.size(), 3u);
  // Sum of rank+1 over 5 ranks = 1+2+3+4+5.
  for (const std::uint64_t value : total) EXPECT_EQ(value, 15u);
}

TEST(Hierarchy, SingleNodeCluster) {
  // All ranks on one node: the global communicator degenerates to the
  // leader alone and pre_reduce already holds the full aggregate.
  const auto total = hierarchical_total(4, 4, 2);
  ASSERT_EQ(total.size(), 2u);
  for (const std::uint64_t value : total) EXPECT_EQ(value, 10u);
}

TEST(Hierarchy, SingleRankPerNodeDegeneratesToFlat) {
  // One rank per node: every rank is its own leader; the window
  // pre-reduction is a self-copy and the leader comm is the whole world.
  const auto total = hierarchical_total(3, 1, 2);
  ASSERT_EQ(total.size(), 2u);
  for (const std::uint64_t value : total) EXPECT_EQ(value, 6u);
}

// --- End-to-end: hierarchy x aggregation strategies ------------------------

graph::Graph hierarchy_graph() {
  return graph::largest_component(gen::erdos_renyi(100, 300, 77));
}

bc::KadabraOptions deterministic_options(int threads) {
  bc::KadabraOptions options;
  options.params.epsilon = 0.15;
  options.params.seed = 4321;
  options.engine.threads_per_rank = threads;
  options.engine.deterministic = true;
  options.engine.virtual_streams = 4;
  options.engine.epoch_base = 64;
  options.engine.epoch_exponent = 0.0;
  return options;
}

void expect_same_scores(const bc::BcResult& a, const bc::BcResult& b,
                        const char* label) {
  EXPECT_EQ(a.samples, b.samples) << label;
  EXPECT_EQ(a.epochs, b.epochs) << label;
  ASSERT_EQ(a.scores.size(), b.scores.size()) << label;
  for (std::size_t v = 0; v < a.scores.size(); ++v)
    EXPECT_EQ(a.scores[v], b.scores[v]) << label << " vertex " << v;
}

TEST(Hierarchy, DeterministicEquivalenceWithEveryAggregationStrategy) {
  const graph::Graph graph = hierarchy_graph();
  const bc::BcResult reference =
      bc::kadabra_shm(graph, deterministic_options(1));
  ASSERT_GT(reference.samples, 0u);

  for (const auto aggregation :
       {bc::Aggregation::kIbarrierReduce, bc::Aggregation::kIreduce,
        bc::Aggregation::kBlocking}) {
    bc::KadabraOptions options = deterministic_options(1);
    options.engine.aggregation = aggregation;
    options.engine.hierarchical = true;
    const bc::BcResult result =
        bc::kadabra_mpi(graph, options, /*num_ranks=*/4, /*ranks_per_node=*/2,
                        mpisim::NetworkModel::disabled());
    expect_same_scores(reference, result,
                       engine::aggregation_name(aggregation));
  }
}

TEST(Hierarchy, DeterministicEquivalenceOnUnevenNodes) {
  const graph::Graph graph = hierarchy_graph();
  const bc::BcResult reference =
      bc::kadabra_shm(graph, deterministic_options(1));

  // 5 ranks, 2 per node: nodes of size 2, 2, 1.
  bc::KadabraOptions options = deterministic_options(1);
  options.engine.hierarchical = true;
  const bc::BcResult uneven =
      bc::kadabra_mpi(graph, options, /*num_ranks=*/5, /*ranks_per_node=*/2,
                      mpisim::NetworkModel::disabled());
  expect_same_scores(reference, uneven, "5 ranks / 2 per node");
}

TEST(Hierarchy, DeterministicEquivalenceOnSingleNode) {
  const graph::Graph graph = hierarchy_graph();
  const bc::BcResult reference =
      bc::kadabra_shm(graph, deterministic_options(1));

  // All ranks on one node: the global reduction degenerates to the leader.
  bc::KadabraOptions options = deterministic_options(1);
  options.engine.hierarchical = true;
  const bc::BcResult single_node =
      bc::kadabra_mpi(graph, options, /*num_ranks=*/3, /*ranks_per_node=*/3,
                      mpisim::NetworkModel::disabled());
  expect_same_scores(reference, single_node, "3 ranks / 1 node");
}

}  // namespace
}  // namespace distbc
