// Edge cases and contract violations across the library: tiny graphs
// through every algorithm, assertion guards (death tests), and boundary
// parameter values.
#include <gtest/gtest.h>

#include "adaptive/closeness.hpp"
#include "bc/brandes.hpp"
#include "bc/kadabra.hpp"
#include "bc/rk.hpp"
#include "epoch/epoch_manager.hpp"
#include "epoch/state_frame.hpp"
#include "gen/erdos_renyi.hpp"
#include "graph/bidirectional_bfs.hpp"
#include "graph/builder.hpp"
#include "graph/components.hpp"
#include "graph/diameter.hpp"

namespace distbc {
namespace {

using graph::from_edges;
using graph::Graph;

// --- Tiny graphs through every algorithm --------------------------------

TEST(EdgeCases, SingleEdgeGraphAllAlgorithms) {
  const Graph graph = from_edges(2, {{0, 1}});
  const bc::BcResult exact = bc::brandes(graph);
  EXPECT_DOUBLE_EQ(exact.scores[0], 0.0);

  bc::KadabraParams params;
  params.epsilon = 0.3;
  const bc::BcResult seq = bc::kadabra_sequential(graph, params);
  EXPECT_DOUBLE_EQ(seq.scores[0], 0.0);
  EXPECT_DOUBLE_EQ(seq.scores[1], 0.0);

  bc::KadabraOptions shm;
  shm.params = params;
  shm.engine.threads_per_rank = 2;
  const bc::BcResult shm_result = bc::kadabra_shm(graph, shm);
  EXPECT_DOUBLE_EQ(shm_result.scores[0], 0.0);

  bc::KadabraOptions mpi;
  mpi.params = params;
  const bc::BcResult mpi_result = bc::kadabra_mpi(graph, mpi, 2);
  EXPECT_DOUBLE_EQ(mpi_result.scores[0], 0.0);

  bc::RkParams rk_params;
  rk_params.epsilon = 0.3;
  const bc::BcResult rk_result = bc::rk(graph, rk_params, 2);
  EXPECT_DOUBLE_EQ(rk_result.scores[0], 0.0);
}

TEST(EdgeCases, TriangleHasZeroBetweennessEverywhere) {
  const Graph graph = from_edges(3, {{0, 1}, {1, 2}, {0, 2}});
  bc::KadabraParams params;
  params.epsilon = 0.2;
  const bc::BcResult result = bc::kadabra_sequential(graph, params);
  for (const double score : result.scores) EXPECT_DOUBLE_EQ(score, 0.0);
}

TEST(EdgeCases, PathOfThreeConvergesToExactMiddle) {
  // b(middle) = 2/(3*2) = 1/3: large enough that the estimate must be
  // close even at a loose epsilon.
  const Graph graph = from_edges(3, {{0, 1}, {1, 2}});
  bc::KadabraParams params;
  params.epsilon = 0.1;
  params.seed = 5;
  const bc::BcResult result = bc::kadabra_sequential(graph, params);
  EXPECT_NEAR(result.scores[1], 1.0 / 3.0, 0.1);
  EXPECT_DOUBLE_EQ(result.scores[0], 0.0);
}

TEST(EdgeCases, EmptyAndSingletonGraphs) {
  bc::KadabraParams params;
  EXPECT_TRUE(bc::kadabra_sequential(Graph{}, params).scores.empty());
  const bc::BcResult single =
      bc::kadabra_sequential(from_edges(1, {}), params);
  ASSERT_EQ(single.scores.size(), 1u);
  EXPECT_DOUBLE_EQ(single.scores[0], 0.0);
}

TEST(EdgeCases, MpiMoreRanksThanWork) {
  // 16 ranks on a 4-vertex graph: every rank still participates in every
  // collective and the result stays exact-ish.
  const Graph graph = from_edges(4, {{0, 1}, {1, 2}, {2, 3}});
  bc::KadabraOptions options;
  options.params.epsilon = 0.2;
  const bc::BcResult result = bc::kadabra_mpi(graph, options, 16);
  const bc::BcResult exact = bc::brandes(graph);
  EXPECT_LE(result.max_abs_difference(exact), 0.2);
}

// --- Boundary parameters --------------------------------------------------

TEST(EdgeCases, VeryLooseEpsilonTerminatesFast) {
  const Graph graph =
      graph::largest_component(gen::erdos_renyi(200, 500, 9));
  bc::KadabraParams params;
  params.epsilon = 0.45;
  const bc::BcResult result = bc::kadabra_sequential(graph, params);
  EXPECT_LE(result.samples, 2000u);
}

TEST(EdgeCases, TinyDeltaStillRespectsBudget) {
  std::vector<std::uint64_t> counts{10, 5, 0, 0};
  const bc::Calibration cal = bc::calibrate(counts, 20, 0.1, 1e-6, 0.01);
  EXPECT_LT(cal.budget_used(), 1e-6);
}

TEST(EdgeCases, ExplicitInitialSampleCountHonored) {
  const Graph graph =
      graph::largest_component(gen::erdos_renyi(100, 300, 10));
  bc::KadabraParams params;
  params.epsilon = 0.2;
  params.initial_samples = 64;
  // Just exercises the path; the guarantee does not depend on tau_0.
  const bc::BcResult result = bc::kadabra_sequential(graph, params);
  EXPECT_GT(result.samples, 0u);
}

// --- Assertion guards (death tests) ---------------------------------------

using EdgeCaseDeath = ::testing::Test;

TEST(EdgeCaseDeath, BidirectionalBfsRejectsEqualEndpoints) {
  const Graph graph = from_edges(3, {{0, 1}, {1, 2}});
  graph::BidirectionalBfs bfs(graph.num_vertices());
  EXPECT_DEATH((void)bfs.run(graph, 1, 1), "distinct");
}

TEST(EdgeCaseDeath, ExactVertexDiameterRequiresConnectedGraph) {
  const Graph graph = from_edges(4, {{0, 1}, {2, 3}});
  EXPECT_DEATH((void)graph::vertex_diameter(graph, /*exact=*/true),
               "connected");
}

TEST(EdgeCaseDeath, RkRejectsDisconnectedInput) {
  const Graph graph = from_edges(4, {{0, 1}, {2, 3}});
  EXPECT_DEATH((void)bc::rk(graph, bc::RkParams{}, 1),
               "largest connected component");
}

TEST(EdgeCaseDeath, KadabraRejectsDisconnectedInput) {
  const Graph graph = from_edges(4, {{0, 1}, {2, 3}});
  bc::KadabraParams params;
  EXPECT_DEATH((void)bc::kadabra_sequential(graph, params),
               "largest connected component");
}

TEST(EdgeCaseDeath, CollectRequiresCompletedTransition) {
  epoch::EpochManager manager(2, 4);
  manager.force_transition(0);  // thread 1 never participates
  epoch::StateFrame aggregate(4);
  EXPECT_DEATH(manager.collect(0, aggregate), "transition_done");
}

TEST(EdgeCaseDeath, BuilderRejectsOutOfRangeVertices) {
  graph::Builder builder(3);
  EXPECT_DEATH(builder.add_edge(0, 3), "num_vertices");
}

TEST(EdgeCaseDeath, FrameMergeRejectsSizeMismatch) {
  epoch::StateFrame a(4);
  epoch::StateFrame b(5);
  EXPECT_DEATH(a.merge(b), "size");
  // Every workload shares the one frame, so layouts of different workloads
  // over the same graph must not merge: closeness (2n+1 words) into
  // betweenness (n+1), and back, even with samples in.
  epoch::StateFrame betweenness(4);
  epoch::StateFrame closeness(adaptive::closeness_words(4));
  betweenness.finish_sample();
  closeness.finish_sample();
  EXPECT_DEATH(betweenness.merge(closeness), "size");
  EXPECT_DEATH(closeness.merge(betweenness), "size");
}

}  // namespace
}  // namespace distbc
