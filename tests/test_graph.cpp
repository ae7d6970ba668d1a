// Unit tests for the CSR graph, builder, induced subgraphs, and IO.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <utility>
#include <vector>

#include "graph/builder.hpp"
#include "graph/graph.hpp"
#include "graph/io.hpp"
#include "graph/stats.hpp"
#include "support/random.hpp"

namespace distbc::graph {
namespace {

Graph triangle_plus_tail() {
  // 0-1-2 triangle, 2-3 tail.
  return from_edges(4, {{0, 1}, {1, 2}, {0, 2}, {2, 3}});
}

TEST(Graph, EmptyGraph) {
  Graph graph;
  EXPECT_EQ(graph.num_vertices(), 0u);
  EXPECT_EQ(graph.num_edges(), 0u);
  EXPECT_EQ(graph.average_degree(), 0.0);
  EXPECT_EQ(graph.max_degree(), 0u);
}

TEST(Graph, BasicProperties) {
  const Graph graph = triangle_plus_tail();
  EXPECT_EQ(graph.num_vertices(), 4u);
  EXPECT_EQ(graph.num_edges(), 4u);
  EXPECT_EQ(graph.num_arcs(), 8u);
  EXPECT_EQ(graph.degree(0), 2u);
  EXPECT_EQ(graph.degree(2), 3u);
  EXPECT_EQ(graph.degree(3), 1u);
  EXPECT_EQ(graph.max_degree(), 3u);
  EXPECT_DOUBLE_EQ(graph.average_degree(), 2.0);
}

TEST(Graph, NeighborsAreSorted) {
  const Graph graph = triangle_plus_tail();
  const auto adj = graph.neighbors(2);
  ASSERT_EQ(adj.size(), 3u);
  EXPECT_EQ(adj[0], 0u);
  EXPECT_EQ(adj[1], 1u);
  EXPECT_EQ(adj[2], 3u);
}

TEST(Graph, HasEdgeBothDirections) {
  const Graph graph = triangle_plus_tail();
  EXPECT_TRUE(graph.has_edge(0, 1));
  EXPECT_TRUE(graph.has_edge(1, 0));
  EXPECT_FALSE(graph.has_edge(0, 3));
  EXPECT_FALSE(graph.has_edge(3, 0));
}

TEST(Builder, RemovesSelfLoops) {
  const Graph graph = from_edges(3, {{0, 0}, {0, 1}, {1, 1}, {1, 2}});
  EXPECT_EQ(graph.num_edges(), 2u);
  EXPECT_FALSE(graph.has_edge(0, 0));
}

TEST(Builder, DeduplicatesParallelEdges) {
  const Graph graph =
      from_edges(2, {{0, 1}, {1, 0}, {0, 1}, {0, 1}});
  EXPECT_EQ(graph.num_edges(), 1u);
  EXPECT_EQ(graph.degree(0), 1u);
  EXPECT_EQ(graph.degree(1), 1u);
}

TEST(Builder, IsolatedVerticesAllowed) {
  const Graph graph = from_edges(5, {{0, 1}});
  EXPECT_EQ(graph.num_vertices(), 5u);
  EXPECT_EQ(graph.degree(4), 0u);
  EXPECT_TRUE(graph.neighbors(4).empty());
}

TEST(Builder, PendingEdgesTracksAdds) {
  Builder builder(3);
  EXPECT_EQ(builder.pending_edges(), 0u);
  builder.add_edge(0, 1);
  builder.add_edge(1, 2);
  EXPECT_EQ(builder.pending_edges(), 2u);
}

TEST(InducedSubgraph, ExtractsAndRemaps) {
  const Graph graph = triangle_plus_tail();
  // Keep {1, 2, 3}: edges 1-2, 2-3 survive; ids remap to 0, 1, 2.
  const Graph sub = induced_subgraph(graph, {1, 2, 3});
  EXPECT_EQ(sub.num_vertices(), 3u);
  EXPECT_EQ(sub.num_edges(), 2u);
  EXPECT_TRUE(sub.has_edge(0, 1));
  EXPECT_TRUE(sub.has_edge(1, 2));
  EXPECT_FALSE(sub.has_edge(0, 2));
}

TEST(InducedSubgraph, EmptyKeepList) {
  const Graph graph = triangle_plus_tail();
  const Graph sub = induced_subgraph(graph, {});
  EXPECT_EQ(sub.num_vertices(), 0u);
}

// --- The builder against a reference ---------------------------------------
//
// The reference is the pair sort Builder::finish used to run: both arcs of
// every edge that is not a self loop, one sort over all of them, duplicates
// dropped, the CSR read off the sorted pairs. The counting build must match
// it array for array.

using EdgeList = std::vector<std::pair<Vertex, Vertex>>;

Graph reference_build(Vertex n, const EdgeList& edges) {
  EdgeList arcs;
  for (const auto& [u, v] : edges) {
    if (u == v) continue;
    arcs.emplace_back(u, v);
    arcs.emplace_back(v, u);
  }
  std::sort(arcs.begin(), arcs.end());
  arcs.erase(std::unique(arcs.begin(), arcs.end()), arcs.end());
  std::vector<EdgeId> offsets(static_cast<std::size_t>(n) + 1, 0);
  for (const auto& arc : arcs) ++offsets[arc.first + 1];
  for (std::size_t i = 1; i < offsets.size(); ++i) offsets[i] += offsets[i - 1];
  std::vector<Vertex> adjacency;
  for (const auto& arc : arcs) adjacency.push_back(arc.second);
  return Graph(std::move(offsets), std::move(adjacency));
}

/// `m` edges drawn on the lower 3/4 of the ids (the rest stay isolated),
/// mixed with self loops, reversed copies and repeats of earlier edges.
EdgeList random_multigraph(Vertex n, std::size_t m, std::uint64_t seed) {
  Rng rng(seed);
  EdgeList edges;
  if (n == 0) return edges;
  const Vertex span = std::max<Vertex>(1, n - n / 4);
  for (std::size_t i = 0; i < m; ++i) {
    const auto u = static_cast<Vertex>(rng.next_bounded(span));
    const auto v = static_cast<Vertex>(rng.next_bounded(span));
    switch (rng.next_bounded(6)) {
      case 0: edges.emplace_back(u, u); break;
      case 1:
        if (!edges.empty()) {
          const auto [a, b] = edges[rng.next_bounded(edges.size())];
          edges.emplace_back(b, a);
          break;
        }
        [[fallthrough]];
      case 2:
        if (!edges.empty()) {
          edges.push_back(edges[rng.next_bounded(edges.size())]);
          break;
        }
        [[fallthrough]];
      default: edges.emplace_back(u, v);
    }
  }
  return edges;
}

void expect_same_csr(const Graph& actual, const Graph& expected) {
  EXPECT_TRUE(std::ranges::equal(actual.offsets(), expected.offsets()));
  EXPECT_TRUE(std::ranges::equal(actual.adjacency(), expected.adjacency()));
}

TEST(BuilderReference, MatchesThePairSortOnRandomMultigraphs) {
  for (const Vertex n : {0u, 1u, 2u, 3u, 17u, 200u, 3000u}) {
    for (const std::size_t per_vertex : {0u, 1u, 4u, 12u}) {
      for (std::uint64_t seed = 1; seed <= 4; ++seed) {
        const EdgeList edges = random_multigraph(n, n * per_vertex, seed);
        SCOPED_TRACE(::testing::Message() << "n=" << n << " m="
                                          << edges.size() << " seed=" << seed);
        expect_same_csr(from_edges(n, edges), reference_build(n, edges));
      }
    }
  }
}

/// The reference for induced_subgraph: rename the kept arcs and run them
/// through the reference build.
Graph reference_induced(const Graph& graph, const std::vector<Vertex>& keep) {
  std::vector<Vertex> remap(graph.num_vertices(), kInvalidVertex);
  for (std::size_t i = 0; i < keep.size(); ++i)
    remap[keep[i]] = static_cast<Vertex>(i);
  EdgeList edges;
  for (const Vertex u : keep) {
    for (const Vertex v : graph.neighbors(u))
      if (remap[v] != kInvalidVertex) edges.emplace_back(remap[u], remap[v]);
  }
  return reference_build(static_cast<Vertex>(keep.size()), edges);
}

TEST(InducedSubgraphReference, MatchesTheReferenceForAnyKeepOrder) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const Vertex n = 400;
    const Graph graph = from_edges(n, random_multigraph(n, 6 * n, seed));
    Rng rng(seed + 100);
    std::vector<Vertex> all(n);
    std::iota(all.begin(), all.end(), 0);
    std::vector<Vertex> ascending;
    for (const Vertex v : all)
      if (rng.next_bounded(3) != 0) ascending.push_back(v);
    std::vector<Vertex> shuffled = ascending;
    std::shuffle(shuffled.begin(), shuffled.end(), rng);
    std::vector<Vertex> permutation = all;  // the reordering path
    std::shuffle(permutation.begin(), permutation.end(), rng);
    const std::vector<Vertex> reversed(all.rbegin(), all.rend());
    const std::pair<const char*, const std::vector<Vertex>*> keeps[] = {
        {"all", &all},           {"ascending", &ascending},
        {"shuffled", &shuffled}, {"permutation", &permutation},
        {"reversed", &reversed}};
    for (const auto& [name, keep] : keeps) {
      SCOPED_TRACE(::testing::Message() << "seed=" << seed << " " << name);
      expect_same_csr(induced_subgraph(graph, *keep),
                      reference_induced(graph, *keep));
    }
  }
}

class IoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = std::filesystem::temp_directory_path() /
            ("distbc_io_test_" + std::to_string(::getpid()));
  }
  void TearDown() override { std::filesystem::remove(path_); }
  std::filesystem::path path_;
};

TEST_F(IoTest, EdgeListRoundTrip) {
  const Graph graph = triangle_plus_tail();
  write_edge_list(graph, path_.string());
  const Graph loaded = read_edge_list(path_.string());
  EXPECT_EQ(loaded.num_vertices(), graph.num_vertices());
  EXPECT_EQ(loaded.num_edges(), graph.num_edges());
  for (Vertex v = 0; v < graph.num_vertices(); ++v)
    EXPECT_EQ(loaded.degree(v), graph.degree(v));
}

TEST_F(IoTest, EdgeListSkipsCommentsAndCompactsIds) {
  {
    std::ofstream out(path_);
    out << "# snap comment\n% konect comment\n10 20\n20 30\n";
  }
  const Graph graph = read_edge_list(path_.string());
  EXPECT_EQ(graph.num_vertices(), 3u);
  EXPECT_EQ(graph.num_edges(), 2u);
}

TEST_F(IoTest, BinaryRoundTrip) {
  const Graph graph = triangle_plus_tail();
  write_binary(graph, path_.string());
  const Graph loaded = read_binary(path_.string());
  EXPECT_EQ(loaded.num_vertices(), graph.num_vertices());
  EXPECT_EQ(loaded.num_arcs(), graph.num_arcs());
  for (Vertex v = 0; v < graph.num_vertices(); ++v) {
    const auto a = graph.neighbors(v);
    const auto b = loaded.neighbors(v);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]);
  }
}

TEST_F(IoTest, ReadMissingFileThrows) {
  EXPECT_THROW(read_edge_list("/nonexistent/path/graph.txt"),
               std::runtime_error);
  EXPECT_THROW(read_binary("/nonexistent/path/graph.bin"),
               std::runtime_error);
}

/// Writes a binary graph file from raw header counts and CSR arrays, so
/// tests can craft files that write_binary() would never produce.
void write_raw_binary(const std::filesystem::path& path, std::uint64_t n,
                      std::uint64_t arcs, const std::vector<EdgeId>& offsets,
                      const std::vector<Vertex>& adjacency) {
  std::ofstream out(path, std::ios::binary);
  const std::uint64_t magic = 0x44425443'52535631ULL;
  out.write(reinterpret_cast<const char*>(&magic), sizeof magic);
  out.write(reinterpret_cast<const char*>(&n), sizeof n);
  out.write(reinterpret_cast<const char*>(&arcs), sizeof arcs);
  out.write(reinterpret_cast<const char*>(offsets.data()),
            static_cast<std::streamsize>(offsets.size() * sizeof(EdgeId)));
  out.write(reinterpret_cast<const char*>(adjacency.data()),
            static_cast<std::streamsize>(adjacency.size() * sizeof(Vertex)));
}

/// Expects read_binary to reject the file with a message naming `defect`.
void expect_rejected(const std::filesystem::path& path,
                     const std::string& defect) {
  try {
    (void)read_binary(path.string());
    ADD_FAILURE() << "accepted a file with: " << defect;
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::string(error.what()).find(defect), std::string::npos)
        << error.what();
  }
}

TEST_F(IoTest, BinaryAcceptsCraftedValidFile) {
  // Path 0 - 1 - 2.
  write_raw_binary(path_, 3, 4, {0, 1, 3, 4}, {1, 0, 2, 1});
  const Graph graph = read_binary(path_.string());
  EXPECT_EQ(graph.num_vertices(), 3u);
  EXPECT_EQ(graph.num_edges(), 2u);
  EXPECT_TRUE(graph.has_edge(1, 2));
}

TEST_F(IoTest, BinaryRejectsMalformedCsr) {
  write_raw_binary(path_, 3, 4, {0, 1, 3, 4}, {1, 0, 7, 1});
  expect_rejected(path_, "neighbor id out of range");
  write_raw_binary(path_, 3, 4, {0, 3, 1, 4}, {1, 0, 2, 1});
  expect_rejected(path_, "offsets decrease");
  write_raw_binary(path_, 3, 4, {1, 1, 3, 4}, {1, 0, 2, 1});
  expect_rejected(path_, "offsets do not start at 0");
  write_raw_binary(path_, 3, 4, {0, 1, 3, 3}, {1, 0, 2, 1});
  expect_rejected(path_, "last offset does not match the arc count");
  write_raw_binary(path_, 2, 4, {0, 2, 4}, {0, 1, 0, 1});
  expect_rejected(path_, "self-loop");
  write_raw_binary(path_, 2, 4, {0, 2, 4}, {1, 1, 0, 0});
  expect_rejected(path_, "parallel arcs");
  write_raw_binary(path_, 3, 4, {0, 2, 3, 4}, {2, 1, 0, 1});
  expect_rejected(path_, "not strictly increasing");
  write_raw_binary(path_, 3, 2, {0, 1, 1, 2}, {1, 0});
  expect_rejected(path_, "without its reverse");
}

TEST_F(IoTest, BinaryRejectsHeaderSizeMismatch) {
  // Counts far beyond the file: rejected before any allocation.
  write_raw_binary(path_, 1u << 30, 1ull << 40, {0, 0}, {});
  expect_rejected(path_, "does not match its header");
  write_raw_binary(path_, 3, 4, {0, 1, 3, 4}, {1, 0, 2});
  expect_rejected(path_, "does not match its header");
  // Trailing bytes past the declared arrays.
  write_raw_binary(path_, 3, 4, {0, 1, 3, 4}, {1, 0, 2, 1, 9});
  expect_rejected(path_, "does not match its header");
  write_raw_binary(path_, 0xffffffffULL, 0, {}, {});
  expect_rejected(path_, "vertex count out of range");
  {
    std::ofstream out(path_, std::ios::binary);
    const std::uint64_t magic = 0x44425443'52535631ULL;
    out.write(reinterpret_cast<const char*>(&magic), sizeof magic);
  }
  expect_rejected(path_, "truncated header");
}

TEST_F(IoTest, BinaryRejectsBadMagic) {
  {
    std::ofstream out(path_, std::ios::binary);
    out << "this is not a distbc graph file at all";
  }
  EXPECT_THROW(read_binary(path_.string()), std::runtime_error);
}

TEST(GraphStats, DegreeStatsOnKnownGraph) {
  const Graph graph = triangle_plus_tail();
  const DegreeStats stats = degree_stats(graph);
  EXPECT_EQ(stats.min, 1u);
  EXPECT_EQ(stats.max, 3u);
  EXPECT_DOUBLE_EQ(stats.mean, 2.0);
  EXPECT_DOUBLE_EQ(stats.median, 2.0);
}

TEST(GraphStats, HistogramSumsToVertexCount) {
  const Graph graph = triangle_plus_tail();
  const auto histogram = degree_histogram(graph);
  std::uint64_t total = 0;
  for (const auto count : histogram) total += count;
  EXPECT_EQ(total, graph.num_vertices());
  EXPECT_EQ(histogram[3], 1u);  // exactly one degree-3 vertex
}

TEST(GraphStats, ClusteringCoefficientOnTriangleAndStar) {
  // Triangle: every wedge closes.
  const Graph triangle = from_edges(3, {{0, 1}, {1, 2}, {0, 2}});
  EXPECT_DOUBLE_EQ(sampled_clustering_coefficient(triangle, 500, 1), 1.0);
  // Star: no wedge closes.
  const Graph star = from_edges(4, {{0, 1}, {0, 2}, {0, 3}});
  EXPECT_DOUBLE_EQ(sampled_clustering_coefficient(star, 500, 1), 0.0);
}

TEST(Graph, MemoryBytesIsPlausible) {
  const Graph graph = triangle_plus_tail();
  // 5 offsets x 8B + 8 arcs x 4B.
  EXPECT_EQ(graph.memory_bytes(), 5 * 8 + 8 * 4u);
}

}  // namespace
}  // namespace distbc::graph
