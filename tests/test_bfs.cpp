// Unit tests for the BFS kernels and workspace reuse semantics.
#include <gtest/gtest.h>

#include "gen/barabasi_albert.hpp"
#include "gen/erdos_renyi.hpp"
#include "gen/hyperbolic.hpp"
#include "gen/instances.hpp"
#include "gen/rmat.hpp"
#include "gen/road.hpp"
#include "graph/bfs.hpp"
#include "graph/builder.hpp"

namespace distbc::graph {
namespace {

Graph path_graph(Vertex n) {
  std::vector<std::pair<Vertex, Vertex>> edges;
  for (Vertex v = 0; v + 1 < n; ++v) edges.emplace_back(v, v + 1);
  return from_edges(n, edges);
}

TEST(Bfs, DistancesOnPath) {
  const Graph graph = path_graph(6);
  const auto dist = bfs_distances(graph, 0);
  for (Vertex v = 0; v < 6; ++v) EXPECT_EQ(dist[v], v);
}

TEST(Bfs, SummaryOnPath) {
  const Graph graph = path_graph(6);
  BfsWorkspace ws(graph.num_vertices());
  const BfsSummary summary = bfs(graph, 0, ws);
  EXPECT_EQ(summary.eccentricity, 5u);
  EXPECT_EQ(summary.reached, 6u);
  EXPECT_EQ(summary.farthest, 5u);
}

TEST(Bfs, MidpointSource) {
  const Graph graph = path_graph(7);
  BfsWorkspace ws(graph.num_vertices());
  const BfsSummary summary = bfs(graph, 3, ws);
  EXPECT_EQ(summary.eccentricity, 3u);
  EXPECT_TRUE(summary.farthest == 0u || summary.farthest == 6u);
}

TEST(Bfs, UnreachableVerticesStayMarked) {
  // Two components: 0-1 and 2-3.
  const Graph graph = from_edges(4, {{0, 1}, {2, 3}});
  const auto dist = bfs_distances(graph, 0);
  EXPECT_EQ(dist[0], 0u);
  EXPECT_EQ(dist[1], 1u);
  EXPECT_EQ(dist[2], kUnreachable);
  EXPECT_EQ(dist[3], kUnreachable);
}

TEST(Bfs, WorkspaceReuseResetsMarks) {
  const Graph graph = from_edges(4, {{0, 1}, {2, 3}});
  BfsWorkspace ws(graph.num_vertices());
  bfs(graph, 0, ws);
  EXPECT_TRUE(ws.visited(1));
  EXPECT_FALSE(ws.visited(2));
  bfs(graph, 2, ws);
  EXPECT_TRUE(ws.visited(3));
  EXPECT_FALSE(ws.visited(0));  // previous run's marks invalidated
}

TEST(Bfs, QueueHoldsExactlyReachedVertices) {
  const Graph graph = from_edges(5, {{0, 1}, {1, 2}, {3, 4}});
  BfsWorkspace ws(graph.num_vertices());
  const BfsSummary summary = bfs(graph, 1, ws);
  EXPECT_EQ(summary.reached, 3u);
  EXPECT_EQ(ws.queue().size(), 3u);
}

TEST(Bfs, SingleVertexGraph) {
  const Graph graph = from_edges(1, {});
  BfsWorkspace ws(1);
  const BfsSummary summary = bfs(graph, 0, ws);
  EXPECT_EQ(summary.eccentricity, 0u);
  EXPECT_EQ(summary.reached, 1u);
  EXPECT_EQ(summary.farthest, 0u);
}

TEST(Bfs, MatchesNaiveReferenceOnRandomGraph) {
  const Graph graph = gen::erdos_renyi(200, 400, /*seed=*/7);
  // Naive O(V^2) reference: repeated relaxation.
  const Vertex n = graph.num_vertices();
  std::vector<std::uint32_t> reference(n, kUnreachable);
  reference[0] = 0;
  bool changed = true;
  while (changed) {
    changed = false;
    for (Vertex u = 0; u < n; ++u) {
      if (reference[u] == kUnreachable) continue;
      for (const Vertex w : graph.neighbors(u)) {
        if (reference[u] + 1 < reference[w]) {
          reference[w] = reference[u] + 1;
          changed = true;
        }
      }
    }
  }
  const auto dist = bfs_distances(graph, 0);
  for (Vertex v = 0; v < n; ++v) EXPECT_EQ(dist[v], reference[v]) << v;
}

TEST(Bfs, ManyReusesDoNotLeakState) {
  const Graph graph = gen::erdos_renyi(64, 128, 3);
  BfsWorkspace ws(graph.num_vertices());
  const auto expected = bfs(graph, 5, ws).reached;
  for (int i = 0; i < 1000; ++i) {
    const BfsSummary summary = bfs(graph, 5, ws);
    ASSERT_EQ(summary.reached, expected);
  }
}

// --- Direction-optimizing, distance-only BFS --------------------------------

/// The kernel's levels as a dense distance vector, like bfs_distances.
std::vector<std::uint32_t> level_distances(const DirectionOptimizingBfs& bfs,
                                           Vertex num_vertices) {
  std::vector<std::uint32_t> dist(num_vertices, kUnreachable);
  for (std::uint32_t d = 0; d < bfs.num_levels(); ++d)
    for (const Vertex v : bfs.level(d)) {
      EXPECT_EQ(dist[v], kUnreachable) << "vertex " << v << " listed twice";
      dist[v] = d;
    }
  return dist;
}

/// Runs the kernel from every source of `graph` on one reused instance and
/// checks each run against bfs_distances. Returns the bottom-up level count.
std::uint64_t expect_matches_from_every_source(const Graph& graph,
                                               const char* name) {
  DirectionOptimizingBfs bfs(graph.num_vertices());
  for (Vertex s = 0; s < graph.num_vertices(); ++s) {
    bfs.run(graph, s);
    EXPECT_EQ(level_distances(bfs, graph.num_vertices()),
              bfs_distances(graph, s))
        << name << ", source " << s;
  }
  return bfs.bottom_up_levels();
}

Graph star_graph(Vertex leaves) {
  std::vector<std::pair<Vertex, Vertex>> edges;
  for (Vertex v = 1; v <= leaves; ++v) edges.emplace_back(0, v);
  return from_edges(leaves + 1, edges);
}

/// A 100 x 30 lattice with 80% of its edges and a few diagonal shortcuts,
/// about quick-road's size.
Graph road_grid() {
  gen::RoadParams params;
  params.width = 100;
  params.height = 30;
  return gen::road(params, 17);
}

TEST(DirectionOptimizingBfs, MatchesTopDownFromEverySource) {
  gen::RmatParams rmat;
  rmat.scale = 9;
  rmat.edge_factor = 8.0;
  gen::HyperbolicParams hyperbolic;
  hyperbolic.num_vertices = 600;
  hyperbolic.average_degree = 12.0;
  // Two cliques and a path, none joined: most vertices never reach most.
  std::vector<std::pair<Vertex, Vertex>> split;
  for (Vertex u = 0; u < 40; ++u)
    for (Vertex v = u + 1; v < 40; ++v) {
      split.emplace_back(u, v);
      split.emplace_back(40 + u, 40 + v);
    }
  for (Vertex v = 80; v + 1 < 100; ++v) split.emplace_back(v, v + 1);

  const struct {
    const char* name;
    Graph graph;
  } cases[] = {{"star", star_graph(300)},
               {"path", path_graph(200)},
               {"road grid", road_grid()},
               {"erdos-renyi", gen::erdos_renyi(500, 4000, 5)},
               {"barabasi-albert", gen::barabasi_albert(800, 4, 6)},
               {"r-mat", gen::rmat(rmat, 7)},
               {"hyperbolic", gen::hyperbolic(hyperbolic, 8)},
               {"disconnected", from_edges(101, split)},
               {"single vertex", from_edges(1, {})}};
  std::uint64_t bottom_up = 0;
  for (const auto& c : cases)
    bottom_up += expect_matches_from_every_source(c.graph, c.name);
  EXPECT_GT(bottom_up, 0u);  // both branches were checked
}

TEST(DirectionOptimizingBfs, BottomUpRunsOnSocialGraphsOnly) {
  // quick-social's middle levels hold most of its arcs: the kernel must
  // take the bottom-up branch there. A road grid's frontiers stay a thin
  // sliver of the graph (under 1/32 of it, the kernel's floor for a
  // bottom-up level), so every level runs top-down.
  const Graph social = gen::instance_by_name("quick-social").build(1.0, 1);
  DirectionOptimizingBfs social_bfs(social.num_vertices());
  std::uint64_t top_down_arcs = 0;
  for (Vertex s = 0; s < social.num_vertices(); s += 7) {
    social_bfs.run(social, s);
    top_down_arcs += social.num_arcs();
  }
  EXPECT_GT(social_bfs.bottom_up_levels(), 0u);
  // It also reads far fewer arcs than a top-down BFS of the whole graph.
  EXPECT_LT(social_bfs.arcs_examined() * 4, top_down_arcs);

  const Graph road = road_grid();
  DirectionOptimizingBfs road_bfs(road.num_vertices());
  for (Vertex s = 0; s < road.num_vertices(); ++s) road_bfs.run(road, s);
  EXPECT_EQ(road_bfs.bottom_up_levels(), 0u);
}

TEST(DirectionOptimizingBfs, ReusesStampsAcrossRuns) {
  const Graph graph = gen::erdos_renyi(64, 128, 3);
  DirectionOptimizingBfs bfs(graph.num_vertices());
  bfs.run(graph, 5);
  const auto first = level_distances(bfs, graph.num_vertices());
  for (int i = 0; i < 1000; ++i) {
    bfs.run(graph, static_cast<Vertex>(i % graph.num_vertices()));
    bfs.run(graph, 5);
    ASSERT_EQ(level_distances(bfs, graph.num_vertices()), first);
  }
}

}  // namespace
}  // namespace distbc::graph
