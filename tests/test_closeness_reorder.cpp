// Tests for the adaptive closeness estimator and the locality-reordering
// utilities.
#include <gtest/gtest.h>

#include <cmath>

#include "adaptive/closeness.hpp"
#include "api/session.hpp"
#include "bc/kadabra.hpp"
#include "gen/barabasi_albert.hpp"
#include "gen/erdos_renyi.hpp"
#include "gen/rmat.hpp"
#include "graph/bfs.hpp"
#include "graph/builder.hpp"
#include "graph/components.hpp"
#include "graph/reorder.hpp"

#include "failure_rate.hpp"

namespace distbc {
namespace {

using graph::from_edges;
using graph::Graph;
using graph::Vertex;

/// Exact normalized harmonic closeness by all-pairs BFS.
std::vector<double> exact_harmonic_closeness(const Graph& graph) {
  const Vertex n = graph.num_vertices();
  std::vector<double> scores(n, 0.0);
  graph::BfsWorkspace ws(n);
  for (Vertex s = 0; s < n; ++s) {
    graph::bfs(graph, s, ws);
    for (const Vertex v : ws.queue()) {
      if (v == s) continue;
      scores[v] += 1.0 / ws.dist(v);
    }
  }
  for (double& score : scores) score /= n - 1.0;
  return scores;
}

/// Credits `credit` to the single vertex `v`.
void credit_one(epoch::StateFrame& frame, Vertex v, double credit) {
  adaptive::add_credit(frame, std::span(&v, 1), credit);
}

TEST(ClosenessCredits, CreditsAndMoments) {
  epoch::StateFrame frame(adaptive::closeness_words(3));
  credit_one(frame, 1, 0.5);
  credit_one(frame, 1, 0.25);
  frame.finish_sample();
  frame.finish_sample();
  EXPECT_EQ(frame.tau(), 2u);
  EXPECT_NEAR(adaptive::credit_sum(frame, 1), 0.75, 1e-5);
  EXPECT_NEAR(adaptive::credit_sq_sum(frame, 1), 0.25 + 0.0625, 1e-5);
  // E[x^2] - E[x]^2 = 0.3125/2 - 0.375^2 = 0.015625.
  EXPECT_NEAR(adaptive::credit_variance(frame, 1),
              0.3125 / 2.0 - 0.375 * 0.375, 1e-5);
  EXPECT_NEAR(adaptive::credit_sum(frame, 0), 0.0, 1e-9);
}

TEST(ClosenessCredits, MergeMatchesSingleFrame) {
  epoch::StateFrame a(adaptive::closeness_words(2));
  epoch::StateFrame b(adaptive::closeness_words(2));
  credit_one(a, 0, 1.0);
  a.finish_sample();
  credit_one(b, 0, 0.5);
  b.finish_sample();
  a.merge(b);
  EXPECT_EQ(a.tau(), 2u);
  EXPECT_NEAR(adaptive::credit_sum(a, 0), 1.5, 1e-5);
}

TEST(Closeness, SampleBoundShrinksWithEpsilon) {
  EXPECT_GT(adaptive::closeness_sample_bound(1000, 0.01, 0.1),
            adaptive::closeness_sample_bound(1000, 0.1, 0.1));
  EXPECT_GT(adaptive::closeness_sample_bound(1u << 20, 0.05, 0.1),
            adaptive::closeness_sample_bound(16, 0.05, 0.1));
}

TEST(Closeness, MatchesExactOnRandomGraph) {
  const Graph graph =
      graph::largest_component(gen::erdos_renyi(250, 700, 404));
  const auto exact = exact_harmonic_closeness(graph);
  adaptive::ClosenessParams params;
  params.epsilon = 0.05;
  params.seed = 8;
  const auto result = adaptive::closeness_mpi(graph, params, 4);
  ASSERT_EQ(result.scores.size(), exact.size());
  double worst = 0.0;
  for (std::size_t v = 0; v < exact.size(); ++v)
    worst = std::max(worst, std::abs(result.scores[v] - exact[v]));
  EXPECT_LE(worst, params.epsilon);
  EXPECT_GT(result.samples, 0u);
}

TEST(Closeness, FailureRateOverSeedsIsWithinDelta) {
  // ClosenessRankQuery's guarantee is a rate: over independent seeds, the
  // share of runs whose worst vertex misses its exact harmonic closeness
  // by more than epsilon must stay within delta. 120 seeds per graph on
  // small ER and BA graphs, where the exact scores are instant.
  constexpr int kSeeds = 120;
  constexpr double kEpsilon = 0.05;
  constexpr double kDelta = 0.1;
  const struct {
    const char* name;
    Graph graph;
  } cases[] = {
      {"erdos-renyi", graph::largest_component(gen::erdos_renyi(150, 450, 9))},
      {"barabasi-albert", gen::barabasi_albert(150, 2, 9)}};
  for (const auto& c : cases) {
    const auto graph = std::make_shared<const Graph>(c.graph);
    const auto exact = exact_harmonic_closeness(*graph);
    int violations = 0;
    double worst_seen = 0.0;
    for (int seed = 0; seed < kSeeds; ++seed) {
      api::Config config;
      config.seed = 1000 + seed;
      api::Session session(graph, config);
      const api::Result result = session.run(
          api::ClosenessRankQuery{.epsilon = kEpsilon, .delta = kDelta});
      ASSERT_TRUE(result.status.ok) << result.status.message;
      double worst = 0.0;
      for (std::size_t v = 0; v < exact.size(); ++v)
        worst = std::max(worst, std::abs(result.scores[v] - exact[v]));
      violations += worst > kEpsilon;
      worst_seen = std::max(worst_seen, worst);
    }
    EXPECT_LE(violations, allowed_violations(kSeeds, kDelta))
        << c.name << ": worst error over all seeds " << worst_seen;
  }
}

TEST(Closeness, StarCenterWins) {
  const Graph graph = from_edges(8, {{0, 1}, {0, 2}, {0, 3}, {0, 4},
                                     {0, 5}, {0, 6}, {0, 7}});
  adaptive::ClosenessParams params;
  params.epsilon = 0.05;
  const auto result = adaptive::closeness_mpi(graph, params, 2);
  EXPECT_EQ(result.top_k(1)[0], 0u);
  // Center's harmonic closeness is exactly 1 (all others at distance 1).
  EXPECT_NEAR(result.scores[0], 1.0, 0.05);
}

TEST(Closeness, AdaptiveStopBeatsWorstCaseOnLowVarianceGraphs) {
  // On a complete graph every credit is exactly 1: zero variance, so the
  // Bernstein rule fires orders of magnitude before the Hoeffding bound.
  // Deterministic mode: the claim is about the stop rule, and free-running
  // overlap samples (aggregated into the next epoch) scale with how long a
  // peer rank sits descheduled, so on a loaded host they alone can push the
  // count past the bound.
  std::vector<std::pair<Vertex, Vertex>> edges;
  for (Vertex u = 0; u < 20; ++u)
    for (Vertex v = u + 1; v < 20; ++v) edges.emplace_back(u, v);
  const Graph graph = from_edges(20, edges);
  adaptive::ClosenessParams params;
  params.epsilon = 0.02;
  params.engine.deterministic = true;
  const auto result = adaptive::closeness_mpi(graph, params, 2);
  EXPECT_LT(result.samples,
            adaptive::closeness_sample_bound(20, params.epsilon,
                                             params.delta));
  for (const double score : result.scores) EXPECT_NEAR(score, 1.0, 0.02);
}

TEST(Reorder, DegreeSortIsIsomorphicAndSorted) {
  gen::RmatParams params;
  params.scale = 9;
  params.edge_factor = 6.0;
  const Graph graph = graph::largest_component(gen::rmat(params, 71));
  const graph::ReorderedGraph reordered = graph::sort_by_degree(graph);

  EXPECT_EQ(reordered.graph.num_vertices(), graph.num_vertices());
  EXPECT_EQ(reordered.graph.num_edges(), graph.num_edges());
  // Degrees descend in the new labeling.
  for (Vertex v = 1; v < reordered.graph.num_vertices(); ++v)
    EXPECT_LE(reordered.graph.degree(v), reordered.graph.degree(v - 1));
  // Every original edge maps to a new edge.
  for (Vertex u = 0; u < graph.num_vertices(); ++u) {
    for (const Vertex v : graph.neighbors(u)) {
      EXPECT_TRUE(reordered.graph.has_edge(reordered.old_to_new[u],
                                           reordered.old_to_new[v]));
    }
  }
  // The two mappings are inverse permutations.
  for (Vertex v = 0; v < graph.num_vertices(); ++v)
    EXPECT_EQ(reordered.new_to_old[reordered.old_to_new[v]], v);
}

TEST(Reorder, BfsOrderPacksNeighborhoods) {
  const Graph graph =
      graph::largest_component(gen::erdos_renyi(300, 900, 72));
  const graph::ReorderedGraph reordered = graph::sort_by_bfs(graph);
  EXPECT_EQ(reordered.graph.num_edges(), graph.num_edges());
  // Vertex 0 is the hub; its neighbors got small ids (next BFS layer).
  std::uint64_t sum_of_neighbor_ids = 0;
  for (const Vertex v : reordered.graph.neighbors(0))
    sum_of_neighbor_ids += v;
  const double average_id =
      static_cast<double>(sum_of_neighbor_ids) /
      static_cast<double>(reordered.graph.degree(0));
  EXPECT_LT(average_id, graph.num_vertices() / 2.0);
}

TEST(Reorder, BfsOrderHandlesDisconnectedGraphs) {
  const Graph graph = from_edges(5, {{0, 1}, {1, 2}});  // 3 and 4 isolated
  const graph::ReorderedGraph reordered = graph::sort_by_bfs(graph);
  EXPECT_EQ(reordered.graph.num_vertices(), 5u);
  EXPECT_EQ(reordered.graph.num_edges(), 2u);
}

TEST(Reorder, ScoresTranslateBack) {
  const Graph graph = from_edges(4, {{0, 1}, {1, 2}, {2, 3}});
  const graph::ReorderedGraph reordered = graph::sort_by_degree(graph);
  std::vector<double> new_scores(4);
  for (Vertex v = 0; v < 4; ++v) new_scores[v] = v * 10.0;
  const auto original = reordered.scores_to_original(new_scores);
  for (Vertex v = 0; v < 4; ++v)
    EXPECT_DOUBLE_EQ(original[v],
                     reordered.old_to_new[v] * 10.0);
}

TEST(Reorder, BetweennessInvariantUnderRelabeling) {
  // Centrality is a graph property: computing on the reordered graph and
  // mapping back must match computing on the original.
  gen::RmatParams gen_params;
  gen_params.scale = 8;
  gen_params.edge_factor = 6.0;
  const Graph graph = graph::largest_component(gen::rmat(gen_params, 73));
  const graph::ReorderedGraph reordered = graph::sort_by_degree(graph);

  bc::KadabraParams params;
  params.epsilon = 0.1;
  params.seed = 21;
  const bc::BcResult direct = bc::kadabra_sequential(graph, params);
  const bc::BcResult relabeled =
      bc::kadabra_sequential(reordered.graph, params);
  const auto mapped = reordered.scores_to_original(relabeled.scores);
  for (std::size_t v = 0; v < mapped.size(); ++v)
    EXPECT_NEAR(mapped[v], direct.scores[v], 2 * params.epsilon);
}

}  // namespace
}  // namespace distbc
