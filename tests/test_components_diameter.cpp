// Tests for connected components, largest-component extraction, two-sweep,
// iFUB, and vertex-diameter bounds (the graph layer's and phase 1's).
#include <gtest/gtest.h>

#include "bc/kadabra_context.hpp"
#include "gen/barabasi_albert.hpp"
#include "gen/erdos_renyi.hpp"
#include "gen/hyperbolic.hpp"
#include "gen/road.hpp"
#include "graph/bfs.hpp"
#include "graph/builder.hpp"
#include "graph/components.hpp"
#include "graph/diameter.hpp"

namespace distbc::graph {
namespace {

Graph path_graph(Vertex n) {
  std::vector<std::pair<Vertex, Vertex>> edges;
  for (Vertex v = 0; v + 1 < n; ++v) edges.emplace_back(v, v + 1);
  return from_edges(n, edges);
}

/// O(V^2)-ish exact diameter by all-sources BFS (small graphs only).
std::uint32_t brute_force_diameter(const Graph& graph) {
  BfsWorkspace ws(graph.num_vertices());
  std::uint32_t best = 0;
  for (Vertex v = 0; v < graph.num_vertices(); ++v)
    best = std::max(best, bfs(graph, v, ws).eccentricity);
  return best;
}

TEST(Components, SingleComponent) {
  const Graph graph = path_graph(5);
  const Components comps = connected_components(graph);
  EXPECT_EQ(comps.count(), 1u);
  EXPECT_EQ(comps.sizes[0], 5u);
  EXPECT_TRUE(is_connected(graph));
}

TEST(Components, MultipleComponentsLabeledConsistently) {
  const Graph graph = from_edges(7, {{0, 1}, {1, 2}, {3, 4}, {5, 6}});
  const Components comps = connected_components(graph);
  EXPECT_EQ(comps.count(), 3u);
  EXPECT_EQ(comps.label[0], comps.label[2]);
  EXPECT_NE(comps.label[0], comps.label[3]);
  EXPECT_NE(comps.label[3], comps.label[5]);
  EXPECT_FALSE(is_connected(graph));
}

TEST(Components, IsolatedVerticesAreComponents) {
  const Graph graph = from_edges(4, {{0, 1}});
  const Components comps = connected_components(graph);
  EXPECT_EQ(comps.count(), 3u);
}

TEST(Components, LargestComponentExtraction) {
  // Components of sizes 3, 2, 2.
  const Graph graph = from_edges(7, {{0, 1}, {1, 2}, {3, 4}, {5, 6}});
  const Graph largest = largest_component(graph);
  EXPECT_EQ(largest.num_vertices(), 3u);
  EXPECT_EQ(largest.num_edges(), 2u);
  EXPECT_TRUE(is_connected(largest));
}

TEST(Components, LargestComponentOfEmptyGraph) {
  const Graph largest = largest_component(Graph{});
  EXPECT_EQ(largest.num_vertices(), 0u);
}

TEST(Components, EmptyGraphIsConnected) {
  EXPECT_TRUE(is_connected(Graph{}));
}

TEST(TwoSweep, ExactOnPath) {
  const Graph graph = path_graph(10);
  const TwoSweepResult sweep = two_sweep(graph);
  EXPECT_EQ(sweep.lower_bound, 9u);  // two-sweep is exact on trees
  // Midpoint of a 10-path is vertex 4 or 5.
  EXPECT_TRUE(sweep.midpoint == 4u || sweep.midpoint == 5u);
}

TEST(TwoSweep, LowerBoundsOnRandomGraphs) {
  for (const std::uint64_t seed : {1ull, 2ull, 3ull, 4ull}) {
    const Graph graph = largest_component(gen::erdos_renyi(120, 260, seed));
    const TwoSweepResult sweep = two_sweep(graph);
    EXPECT_LE(sweep.lower_bound, brute_force_diameter(graph));
    EXPECT_GE(sweep.lower_bound, 1u);
  }
}

TEST(Ifub, ExactOnKnownShapes) {
  EXPECT_EQ(ifub_diameter(path_graph(17)).diameter, 16u);
  // Cycle of 8: diameter 4.
  std::vector<std::pair<Vertex, Vertex>> cycle;
  for (Vertex v = 0; v < 8; ++v) cycle.emplace_back(v, (v + 1) % 8);
  EXPECT_EQ(ifub_diameter(from_edges(8, cycle)).diameter, 4u);
  // Star: diameter 2.
  const Graph star = from_edges(6, {{0, 1}, {0, 2}, {0, 3}, {0, 4}, {0, 5}});
  EXPECT_EQ(ifub_diameter(star).diameter, 2u);
  // Complete graph: diameter 1.
  const Graph k4 =
      from_edges(4, {{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}});
  EXPECT_EQ(ifub_diameter(k4).diameter, 1u);
}

TEST(Ifub, SingleVertex) {
  EXPECT_EQ(ifub_diameter(from_edges(1, {})).diameter, 0u);
  EXPECT_TRUE(ifub_diameter(from_edges(1, {})).connected);
}

TEST(Ifub, ReportsADisconnectedGraphFromItsFirstSweep) {
  // A star of `leaves` leaves beside a cycle of `cycle` vertices, not
  // joined. The first sweep starts at the star's centre, the max-degree
  // hub, so it reaches the star's side alone: the larger side or the
  // smaller one.
  const auto star_and_cycle = [](Vertex leaves, Vertex cycle) {
    std::vector<std::pair<Vertex, Vertex>> edges;
    for (Vertex v = 1; v <= leaves; ++v) edges.emplace_back(0, v);
    for (Vertex i = 0; i < cycle; ++i)
      edges.emplace_back(leaves + 1 + i, leaves + 1 + (i + 1) % cycle);
    return from_edges(leaves + 1 + cycle, edges);
  };
  for (const Graph& graph : {star_and_cycle(30, 10), star_and_cycle(10, 40)}) {
    const DiameterResult result = ifub_diameter(graph);
    EXPECT_FALSE(result.connected);
    EXPECT_EQ(result.diameter, 0u);
    EXPECT_EQ(result.num_bfs, 2u);
    EXPECT_EQ(bc::kadabra_vertex_diameter(graph), 0u);
  }
  EXPECT_TRUE(ifub_diameter(path_graph(5)).connected);
}

TEST(Ifub, MatchesBruteForceOnRandomGraphs) {
  for (const std::uint64_t seed : {5ull, 6ull, 7ull, 8ull, 9ull}) {
    const Graph graph = largest_component(gen::erdos_renyi(150, 280, seed));
    EXPECT_EQ(ifub_diameter(graph).diameter, brute_force_diameter(graph))
        << "seed " << seed;
  }
}

TEST(Ifub, MatchesBruteForceOnManySmallGraphs) {
  // Small sparse graphs often have an even diameter 2i with both ends at
  // depth i of the root BFS, and a fringe vertex of eccentricity 2i - 1:
  // a scan that stops before finishing level i reports 2i - 1.
  for (std::uint64_t seed = 1; seed <= 400; ++seed) {
    const auto n = static_cast<Vertex>(6 + seed % 40);
    const Graph graph =
        largest_component(gen::erdos_renyi(n, n + seed % (2 * n), seed));
    EXPECT_EQ(ifub_diameter(graph).diameter, brute_force_diameter(graph))
        << "seed " << seed;
  }
}

TEST(Ifub, MatchesBruteForceOnRoadLikeGraphs) {
  gen::RoadParams params;
  params.width = 24;
  params.height = 12;
  const Graph graph = gen::road(params, 3);
  EXPECT_EQ(ifub_diameter(graph).diameter, brute_force_diameter(graph));
}

TEST(Ifub, UsesFewBfsOnHighDiameterGraphs) {
  // On high-diameter graphs the two-sweep lower bound is (near-)tight and
  // the midpoint root has eccentricity ~ D/2, so iFUB terminates almost
  // immediately - its selling point.
  gen::RoadParams params;
  params.width = 80;
  params.height = 20;
  const Graph graph = gen::road(params, 13);
  const DiameterResult result = ifub_diameter(graph);
  EXPECT_LT(result.num_bfs, 30u);
}

TEST(Ifub, BoundedWorkOnLowDiameterGraphs) {
  // Erdos-Renyi is iFUB's weak case (no tight lower bound from sweeps);
  // it must still finish well below the trivial n-BFS brute force.
  const Graph graph = largest_component(gen::erdos_renyi(400, 1600, 13));
  const DiameterResult result = ifub_diameter(graph);
  EXPECT_LT(result.num_bfs, graph.num_vertices() / 2);
}

TEST(VertexDiameter, ExactIsDiameterPlusOne) {
  const Graph graph = path_graph(9);
  EXPECT_EQ(vertex_diameter(graph, /*exact=*/true), 9u);
}

TEST(VertexDiameter, ApproximationUpperBoundsExact) {
  for (const std::uint64_t seed : {21ull, 22ull, 23ull}) {
    const Graph graph = largest_component(gen::erdos_renyi(150, 300, seed));
    const std::uint32_t exact = vertex_diameter(graph, true);
    const std::uint32_t approx = vertex_diameter(graph, false);
    EXPECT_GE(approx, exact);
    EXPECT_LE(approx, 2 * exact);  // 2-approximation
  }
}

TEST(DiameterBound, BucketTightOverSeededGraphFamilies) {
  // Phase 1's bound (iFUB stopped once its bracket fits one bucket) must
  // bound the exact vertex diameter from above, size omega exactly as the
  // exact value does, and cost no more BFS than the full iFUB.
  struct Case {
    const char* name;
    Graph graph;
  };
  std::vector<Case> cases;
  const auto add = [&](const char* name, const Graph& graph) {
    cases.push_back({name, largest_component(graph)});
  };
  // The 2-approximation lands a bucket too high here (VD 11 vs 9).
  add("ba3500", gen::barabasi_albert(3500, 3, 42));
  // The bracket settles only after a fringe-level scan.
  add("ba200", gen::barabasi_albert(200, 3, 11));
  for (const std::uint64_t seed : {1ull, 2ull, 3ull}) {
    add("ba", gen::barabasi_albert(1000, 2, seed));
    add("er", gen::erdos_renyi(300, 600, seed));
    gen::RoadParams road;
    road.width = 30;
    road.height = 10;
    add("road", gen::road(road, seed));
    gen::HyperbolicParams hyperbolic;
    hyperbolic.num_vertices = 600;
    hyperbolic.average_degree = 8.0;
    add("hyperbolic", gen::hyperbolic(hyperbolic, seed));
  }
  cases.push_back({"n1", from_edges(1, {})});
  cases.push_back({"n2", from_edges(2, {{0, 1}})});

  for (const Case& c : cases) {
    SCOPED_TRACE(::testing::Message()
                 << c.name << " |V| = " << c.graph.num_vertices());
    const std::uint32_t exact = brute_force_diameter(c.graph) + 1;
    const std::uint32_t bound = bc::kadabra_vertex_diameter(c.graph);
    EXPECT_GE(bound, exact);
    EXPECT_EQ(bc::diameter_bucket(bound), bc::diameter_bucket(exact));
    const DiameterResult settled =
        ifub_diameter(c.graph, bc::diameter_bracket_settled);
    EXPECT_EQ(settled.diameter + 1, bound);
    EXPECT_LE(settled.num_bfs, ifub_diameter(c.graph).num_bfs);
  }
}

TEST(DiameterBound, LevelScanCasesPayMoreThanTheSweeps) {
  // Pins the two named cases' work: BA(3500, 3, 42) settles on the two
  // sweeps (the first from the hub) and the root BFS alone; BA(200, 3, 11)
  // scans a fringe level.
  const Graph settled_early =
      largest_component(gen::barabasi_albert(3500, 3, 42));
  EXPECT_EQ(ifub_diameter(settled_early, bc::diameter_bracket_settled).num_bfs,
            3u);
  const Graph level_scan = largest_component(gen::barabasi_albert(200, 3, 11));
  EXPECT_GT(ifub_diameter(level_scan, bc::diameter_bracket_settled).num_bfs,
            3u);
}

TEST(VertexDiameter, SingleVertex) {
  EXPECT_EQ(vertex_diameter(from_edges(1, {}), true), 1u);
  EXPECT_EQ(vertex_diameter(from_edges(1, {}), false), 1u);
}

}  // namespace
}  // namespace distbc::graph
