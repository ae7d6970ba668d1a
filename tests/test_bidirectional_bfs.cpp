// Tests for the bidirectional BFS: distances and path counts against a
// unidirectional reference, path validity, uniform path sampling, and
// golden checksums that pin the kernel's exact outputs and RNG draw order.
#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "gen/barabasi_albert.hpp"
#include "gen/erdos_renyi.hpp"
#include "gen/instances.hpp"
#include "gen/rmat.hpp"
#include "graph/bfs.hpp"
#include "graph/bidirectional_bfs.hpp"
#include "graph/builder.hpp"
#include "graph/components.hpp"

namespace distbc::graph {
namespace {

/// Reference: BFS from s computing distance and #shortest-paths to all.
std::pair<std::vector<std::uint32_t>, std::vector<double>> reference_sssp(
    const Graph& graph, Vertex s) {
  const Vertex n = graph.num_vertices();
  std::vector<std::uint32_t> dist(n, kUnreachable);
  std::vector<double> sigma(n, 0.0);
  std::vector<Vertex> queue{s};
  dist[s] = 0;
  sigma[s] = 1.0;
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const Vertex u = queue[head];
    for (const Vertex w : graph.neighbors(u)) {
      if (dist[w] == kUnreachable) {
        dist[w] = dist[u] + 1;
        queue.push_back(w);
      }
      if (dist[w] == dist[u] + 1) sigma[w] += sigma[u];
    }
  }
  return {std::move(dist), std::move(sigma)};
}

TEST(BidirectionalBfs, AdjacentPair) {
  const Graph graph = from_edges(3, {{0, 1}, {1, 2}});
  BidirectionalBfs bfs(graph.num_vertices());
  const auto result = bfs.run(graph, 0, 1);
  EXPECT_TRUE(result.connected);
  EXPECT_EQ(result.distance, 1u);
  EXPECT_DOUBLE_EQ(result.num_paths, 1.0);

  Rng rng(1);
  std::vector<Vertex> path;
  bfs.sample_path(graph, rng, path);
  EXPECT_TRUE(path.empty());  // no internal vertices on a direct edge
}

TEST(BidirectionalBfs, TwoHopPath) {
  const Graph graph = from_edges(3, {{0, 1}, {1, 2}});
  BidirectionalBfs bfs(graph.num_vertices());
  const auto result = bfs.run(graph, 0, 2);
  EXPECT_TRUE(result.connected);
  EXPECT_EQ(result.distance, 2u);
  EXPECT_DOUBLE_EQ(result.num_paths, 1.0);

  Rng rng(1);
  std::vector<Vertex> path;
  bfs.sample_path(graph, rng, path);
  ASSERT_EQ(path.size(), 1u);
  EXPECT_EQ(path[0], 1u);
}

TEST(BidirectionalBfs, CountsParallelRoutes) {
  // Diamond: 0-1-3 and 0-2-3: two shortest paths.
  const Graph graph = from_edges(4, {{0, 1}, {0, 2}, {1, 3}, {2, 3}});
  BidirectionalBfs bfs(graph.num_vertices());
  const auto result = bfs.run(graph, 0, 3);
  EXPECT_EQ(result.distance, 2u);
  EXPECT_DOUBLE_EQ(result.num_paths, 2.0);
}

TEST(BidirectionalBfs, DisconnectedPair) {
  const Graph graph = from_edges(4, {{0, 1}, {2, 3}});
  BidirectionalBfs bfs(graph.num_vertices());
  const auto result = bfs.run(graph, 0, 3);
  EXPECT_FALSE(result.connected);
}

TEST(BidirectionalBfs, MatchesReferenceOnRandomGraphs) {
  for (const std::uint64_t seed : {1ull, 2ull, 3ull}) {
    const Graph graph = largest_component(gen::erdos_renyi(150, 300, seed));
    const Vertex n = graph.num_vertices();
    ASSERT_GE(n, 2u);
    BidirectionalBfs bfs(n);
    Rng rng(seed);
    for (int trial = 0; trial < 50; ++trial) {
      const auto [s64, t64] = rng.next_distinct_pair(n);
      const auto s = static_cast<Vertex>(s64);
      const auto t = static_cast<Vertex>(t64);
      const auto [dist, sigma] = reference_sssp(graph, s);
      const auto result = bfs.run(graph, s, t);
      ASSERT_TRUE(result.connected);
      EXPECT_EQ(result.distance, dist[t]);
      EXPECT_DOUBLE_EQ(result.num_paths, sigma[t]);
    }
  }
}

TEST(BidirectionalBfs, MatchesReferenceOnPowerLawGraph) {
  gen::RmatParams params;
  params.scale = 9;
  params.edge_factor = 4.0;
  const Graph graph = largest_component(gen::rmat(params, 5));
  const Vertex n = graph.num_vertices();
  BidirectionalBfs bfs(n);
  Rng rng(11);
  for (int trial = 0; trial < 30; ++trial) {
    const auto [s64, t64] = rng.next_distinct_pair(n);
    const auto s = static_cast<Vertex>(s64);
    const auto t = static_cast<Vertex>(t64);
    const auto [dist, sigma] = reference_sssp(graph, s);
    const auto result = bfs.run(graph, s, t);
    ASSERT_TRUE(result.connected);
    EXPECT_EQ(result.distance, dist[t]);
    EXPECT_DOUBLE_EQ(result.num_paths, sigma[t]);
  }
}

TEST(BidirectionalBfs, SampledPathsAreValidShortestPaths) {
  const Graph graph = largest_component(gen::erdos_renyi(100, 250, 17));
  const Vertex n = graph.num_vertices();
  BidirectionalBfs bfs(n);
  Rng rng(3);
  std::vector<Vertex> path;
  for (int trial = 0; trial < 200; ++trial) {
    const auto [s64, t64] = rng.next_distinct_pair(n);
    const auto s = static_cast<Vertex>(s64);
    const auto t = static_cast<Vertex>(t64);
    const auto result = bfs.run(graph, s, t);
    ASSERT_TRUE(result.connected);
    path.clear();
    bfs.sample_path(graph, rng, path);
    // Internal count matches the distance.
    ASSERT_EQ(path.size(), result.distance - 1);
    // Consecutive hops are edges; endpoints connect to path ends.
    Vertex prev = s;
    for (const Vertex v : path) {
      EXPECT_TRUE(graph.has_edge(prev, v));
      EXPECT_NE(v, s);
      EXPECT_NE(v, t);
      prev = v;
    }
    EXPECT_TRUE(graph.has_edge(prev, t));
  }
}

TEST(BidirectionalBfs, PathSamplingIsUniform) {
  // Ladder with two independent 2-choice stages: 4 equally likely paths
  // 0 -> {1|2} -> 3 -> {4|5} -> 6.
  const Graph graph = from_edges(
      7, {{0, 1}, {0, 2}, {1, 3}, {2, 3}, {3, 4}, {3, 5}, {4, 6}, {5, 6}});
  BidirectionalBfs bfs(graph.num_vertices());
  const auto result = bfs.run(graph, 0, 6);
  ASSERT_TRUE(result.connected);
  EXPECT_EQ(result.distance, 4u);
  EXPECT_DOUBLE_EQ(result.num_paths, 4.0);

  Rng rng(123);
  std::map<std::vector<Vertex>, int> histogram;
  constexpr int kDraws = 40000;
  std::vector<Vertex> path;
  for (int i = 0; i < kDraws; ++i) {
    // Re-run so meeting-set state is fresh (sample_path may be called
    // repeatedly; re-running also exercises workspace reuse).
    bfs.run(graph, 0, 6);
    path.clear();
    bfs.sample_path(graph, rng, path);
    ++histogram[path];
  }
  ASSERT_EQ(histogram.size(), 4u);
  for (const auto& [p, count] : histogram)
    EXPECT_NEAR(count, kDraws / 4, kDraws / 4 * 0.1);
}

TEST(BidirectionalBfs, HubPredecessorSamplingIsUniform) {
  // Layered graph whose meeting vertex is a hub h at depth 3 from s with
  // three unequal-sigma predecessors, so the walk finds them from the
  // level below (4 * |level 2| * ceil(log2 deg(h)) = 4 * 3 * 8 < 203):
  //   s=0 -> {1, 2, 3} -> {4, 5, 6} -> h=7 -> 8 -> 9 -> t=10,
  // with 6 ~ {1, 2, 3}, 5 ~ {2, 3}, 4 ~ {3}: sigma_s = 3, 2, 1, and level 2
  // is discovered as 6, 5, 4, against id order. Each of the 6 shortest
  // paths must be equally likely. The hub's 200 leaves are never scanned.
  constexpr Vertex kHub = 7;
  constexpr Vertex kLeaves = 200;
  std::vector<std::pair<Vertex, Vertex>> edges = {
      {0, 1}, {0, 2}, {0, 3}, {1, 6}, {2, 5}, {2, 6}, {3, 4}, {3, 5},
      {3, 6}, {4, 7}, {5, 7}, {6, 7}, {7, 8}, {8, 9}, {9, 10}};
  for (Vertex leaf = 0; leaf < kLeaves; ++leaf)
    edges.push_back({kHub, 11 + leaf});
  const Graph graph = from_edges(11 + kLeaves, edges);
  BidirectionalBfs bfs(graph.num_vertices());
  const auto result = bfs.run(graph, 0, 10);
  ASSERT_TRUE(result.connected);
  EXPECT_EQ(result.distance, 6u);
  EXPECT_DOUBLE_EQ(result.num_paths, 6.0);

  Rng rng(77);
  std::map<std::vector<Vertex>, int> histogram;
  constexpr int kDraws = 60000;
  std::vector<Vertex> path;
  for (int i = 0; i < kDraws; ++i) {
    bfs.run(graph, 0, 10);
    path.clear();
    bfs.sample_path(graph, rng, path);
    ASSERT_EQ(path.size(), 5u);
    EXPECT_EQ(path[2], kHub);
    ++histogram[path];
  }
  ASSERT_EQ(histogram.size(), 6u);
  for (const auto& [p, count] : histogram)
    EXPECT_NEAR(count, kDraws / 6, kDraws / 6 * 0.05);
}

TEST(BidirectionalBfs, UniformAcrossUnevenBranching) {
  // 0 connects to t=4 via: one 2-hop path through 1; and paths through
  // 2->3. Distances: 0-1-4 (len 2), 0-2-3-4 (len 3). Only the length-2 path
  // is shortest, so sampling must always return it.
  const Graph graph =
      from_edges(5, {{0, 1}, {1, 4}, {0, 2}, {2, 3}, {3, 4}});
  BidirectionalBfs bfs(graph.num_vertices());
  const auto result = bfs.run(graph, 0, 4);
  EXPECT_EQ(result.distance, 2u);
  EXPECT_DOUBLE_EQ(result.num_paths, 1.0);
  Rng rng(9);
  for (int i = 0; i < 50; ++i) {
    bfs.run(graph, 0, 4);
    std::vector<Vertex> path;
    bfs.sample_path(graph, rng, path);
    ASSERT_EQ(path.size(), 1u);
    EXPECT_EQ(path[0], 1u);
  }
}

TEST(BidirectionalBfs, TouchedWorkIsBounded) {
  const Graph graph = largest_component(gen::erdos_renyi(200, 600, 23));
  BidirectionalBfs bfs(graph.num_vertices());
  bfs.run(graph, 0, graph.num_vertices() - 1);
  EXPECT_GT(bfs.last_touched(), 0u);
  EXPECT_LE(bfs.last_touched(), graph.num_arcs() + graph.num_vertices());
}

TEST(BidirectionalBfs, SideSelectionBalancesVolumeNotCount) {
  // Hub-vs-chain: the s-frontier is ONE huge-degree hub, the t-frontier a
  // chain of degree-2 vertices. Counting frontier vertices would call the
  // hub side "smaller" (1 vertex vs 1 vertex, ties prefer s) and scan all
  // D hub edges; volume balancing (degree sums) must walk the cheap chain
  // instead, keeping touched work near the chain length and far below D.
  constexpr Vertex kLeaves = 2000;
  constexpr Vertex kChain = 20;
  const Vertex hub = 0;
  std::vector<std::pair<Vertex, Vertex>> edges;
  for (Vertex leaf = 1; leaf <= kLeaves; ++leaf) edges.push_back({hub, leaf});
  const Vertex chain_base = kLeaves + 1;
  edges.push_back({hub, chain_base});
  for (Vertex i = 1; i < kChain; ++i)
    edges.push_back({chain_base + i - 1, chain_base + i});
  const Graph graph = from_edges(chain_base + kChain, edges);
  const Vertex tail = chain_base + kChain - 1;

  BidirectionalBfs bfs(graph.num_vertices());
  const auto result = bfs.run(graph, hub, tail);
  ASSERT_TRUE(result.connected);
  EXPECT_EQ(result.distance, kChain);
  EXPECT_DOUBLE_EQ(result.num_paths, 1.0);
  // Chain-side work only: ~2 arcs per chain vertex. A count-based pick
  // would touch all kLeaves hub arcs.
  EXPECT_LE(bfs.last_touched(), static_cast<std::uint64_t>(4 * kChain + 4));
}

TEST(BidirectionalBfs, StarGraphHubPair) {
  // Star: leaves at distance 2 via the hub; hub must be the internal vertex.
  const Graph graph = from_edges(5, {{0, 1}, {0, 2}, {0, 3}, {0, 4}});
  BidirectionalBfs bfs(graph.num_vertices());
  const auto result = bfs.run(graph, 1, 4);
  EXPECT_EQ(result.distance, 2u);
  EXPECT_DOUBLE_EQ(result.num_paths, 1.0);
  Rng rng(4);
  std::vector<Vertex> path;
  bfs.sample_path(graph, rng, path);
  ASSERT_EQ(path.size(), 1u);
  EXPECT_EQ(path[0], 0u);
}

/// FNV-1a over 64-bit words: order-sensitive, so any change in a drawn
/// path, a PairResult field, a touched count, or the RNG consumption
/// changes the digest.
class Fnv {
 public:
  void add(std::uint64_t word) {
    for (int byte = 0; byte < 8; ++byte) {
      hash_ ^= (word >> (8 * byte)) & 0xffU;
      hash_ *= 0x100000001b3ULL;
    }
  }
  void add(double value) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &value, sizeof bits);
    add(bits);
  }
  [[nodiscard]] std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

/// The kernel's behaviour on one graph, exactly as a sampler consumes it:
/// `samples` uniform pairs from one stream, each run() followed (when
/// connected) by one sample_path() on the same stream. Digests every
/// PairResult, last_touched(), and drawn path, then the stream's next
/// outputs, which pin how many draws the samples consumed.
std::uint64_t kernel_digest(const Graph& graph, int samples) {
  const Vertex n = graph.num_vertices();
  BidirectionalBfs bfs(n);
  Rng rng = Rng(2024).split(7);
  Fnv fnv;
  std::vector<Vertex> path;
  for (int i = 0; i < samples; ++i) {
    const auto [s, t] = rng.next_distinct_pair(n);
    const auto result =
        bfs.run(graph, static_cast<Vertex>(s), static_cast<Vertex>(t));
    fnv.add(std::uint64_t{result.connected});
    fnv.add(std::uint64_t{result.distance});
    fnv.add(result.num_paths);
    fnv.add(bfs.last_touched());
    if (!result.connected) continue;
    path.clear();
    bfs.sample_path(graph, rng, path);
    fnv.add(std::uint64_t{path.size()});
    for (const Vertex v : path) fnv.add(std::uint64_t{v});
  }
  for (int i = 0; i < 4; ++i) fnv.add(rng());
  return fnv.value();
}

struct GoldenCase {
  std::string name;
  Graph graph;
  int samples;
  std::uint64_t digest;
};

/// Graphs the golden digests are pinned on: the suite's high-diameter road
/// and low-diameter social proxies, a hyperbolic web proxy, a BA graph, a
/// graph with two components (disconnected pairs), the smallest legal
/// graph, and two graphs whose walks find hub predecessors from the BFS
/// level below: a sparse BA graph, where such a level's discovery order is
/// not id order (its digest changes if the walk skips sorting those
/// candidates into adjacency order), and the suite's quick social graph.
std::vector<GoldenCase> golden_cases() {
  std::vector<std::pair<Vertex, Vertex>> two_chains;
  for (Vertex i = 0; i + 1 < 40; ++i) {
    two_chains.push_back({i, i + 1});
    two_chains.push_back({40 + i, 40 + i + 1});
  }
  std::vector<GoldenCase> cases;
  cases.push_back({"road-pa-proxy",
                   gen::instance_by_name("road-pa-proxy").build(0.1, 1), 3000,
                   11626799698064048969ULL});
  cases.push_back({"orkut-proxy",
                   gen::instance_by_name("orkut-proxy").build(0.1, 1), 3000,
                   9339581837375728463ULL});
  cases.push_back({"quick-web", gen::instance_by_name("quick-web").build(1.0, 1),
                   3000, 14327160160290380820ULL});
  cases.push_back({"ba", gen::barabasi_albert(3000, 5, 13), 3000,
                   7098905436832587843ULL});
  cases.push_back({"two-chains", from_edges(80, two_chains), 2000,
                   16877754231801106145ULL});
  cases.push_back({"two-vertex", from_edges(2, {{0, 1}}), 200,
                   9848659794021105781ULL});
  cases.push_back({"ba-sparse", gen::barabasi_albert(3000, 2, 1), 3000,
                   8767736389622978428ULL});
  cases.push_back({"quick-social",
                   gen::instance_by_name("quick-social").build(1.0, 1), 3000,
                   16953741962350139118ULL});
  return cases;
}

TEST(BidirectionalBfsGolden, OutputsAndDrawOrderArePinned) {
  for (const GoldenCase& golden : golden_cases()) {
    EXPECT_EQ(kernel_digest(golden.graph, golden.samples), golden.digest)
        << golden.name;
  }
}

/// Digest of the scanned-set tap (both sides' expanded levels, s side
/// first, in discovery order) over the same pair stream as kernel_digest.
std::uint64_t scanned_digest(const Graph& graph, int samples) {
  const Vertex n = graph.num_vertices();
  BidirectionalBfs bfs(n);
  Rng rng = Rng(2024).split(7);
  Fnv fnv;
  std::vector<Vertex> scanned;
  for (int i = 0; i < samples; ++i) {
    const auto [s, t] = rng.next_distinct_pair(n);
    (void)bfs.run(graph, static_cast<Vertex>(s), static_cast<Vertex>(t));
    scanned.clear();
    bfs.append_scanned(scanned);
    fnv.add(std::uint64_t{scanned.size()});
    for (const Vertex v : scanned) fnv.add(std::uint64_t{v});
  }
  return fnv.value();
}

TEST(BidirectionalBfsGolden, ScannedSetTapIsPinned) {
  const std::uint64_t expected[] = {
      9905631755890537680ULL,  11507492599205338320ULL, 4824812114485370523ULL,
      1939190562189313494ULL,  3962352111364490426ULL,  1306552363188680101ULL,
      8698079026164343196ULL,  16350618843817903664ULL};
  const std::vector<GoldenCase> cases = golden_cases();
  ASSERT_EQ(cases.size(), std::size(expected));
  for (std::size_t i = 0; i < cases.size(); ++i) {
    EXPECT_EQ(scanned_digest(cases[i].graph, 500), expected[i])
        << cases[i].name;
  }
}

}  // namespace
}  // namespace distbc::graph
