// Tests for the KADABRA path sampler: unbiasedness against exact
// betweenness, disconnected-pair handling, bookkeeping invariants, and
// interaction with state frames.
#include <gtest/gtest.h>

#include <cmath>

#include "bc/brandes.hpp"
#include "bc/sampler.hpp"
#include "gen/erdos_renyi.hpp"
#include "graph/builder.hpp"
#include "graph/components.hpp"

namespace distbc::bc {
namespace {

using graph::from_edges;
using graph::Graph;
using graph::Vertex;

TEST(PathSampler, TauAdvancesOncePerSample) {
  const Graph graph = from_edges(4, {{0, 1}, {1, 2}, {2, 3}});
  PathSampler sampler(graph, Rng(1));
  epoch::StateFrame frame(graph.num_vertices());
  for (int i = 0; i < 500; ++i) sampler.sample(frame);
  EXPECT_EQ(frame.tau(), 500u);
  EXPECT_EQ(sampler.samples_taken(), 500u);
  EXPECT_TRUE(frame.counts_consistent());
}

TEST(PathSampler, EstimatesAreUnbiasedOnPath) {
  // On a 4-path the interior vertices have b = 2*1*2/(4*3) = 1/3 and
  // b(1) = b(2); 40k samples pin the estimate to ~1% absolute.
  const Graph graph = from_edges(4, {{0, 1}, {1, 2}, {2, 3}});
  PathSampler sampler(graph, Rng(2));
  epoch::StateFrame frame(graph.num_vertices());
  constexpr std::uint64_t kSamples = 40000;
  for (std::uint64_t i = 0; i < kSamples; ++i) sampler.sample(frame);
  const double b1 = static_cast<double>(frame.count(1)) / kSamples;
  const double b2 = static_cast<double>(frame.count(2)) / kSamples;
  EXPECT_NEAR(b1, 1.0 / 3.0, 0.015);
  EXPECT_NEAR(b2, 1.0 / 3.0, 0.015);
  EXPECT_EQ(frame.count(0), 0u);
  EXPECT_EQ(frame.count(3), 0u);
}

TEST(PathSampler, EstimatesMatchBrandesOnRandomGraph) {
  const Graph graph =
      graph::largest_component(gen::erdos_renyi(60, 160, 3));
  const BcResult exact = brandes(graph);
  PathSampler sampler(graph, Rng(4));
  epoch::StateFrame frame(graph.num_vertices());
  constexpr std::uint64_t kSamples = 60000;
  for (std::uint64_t i = 0; i < kSamples; ++i) sampler.sample(frame);
  for (Vertex v = 0; v < graph.num_vertices(); ++v) {
    const double estimate =
        static_cast<double>(frame.count(v)) / kSamples;
    EXPECT_NEAR(estimate, exact.scores[v], 0.02) << "vertex " << v;
  }
}

TEST(PathSampler, DisconnectedPairsCountTowardTau) {
  // Two components: cross pairs are disconnected and contribute only tau.
  const Graph graph = from_edges(6, {{0, 1}, {1, 2}, {3, 4}, {4, 5}});
  PathSampler sampler(graph, Rng(5));
  epoch::StateFrame frame(graph.num_vertices());
  constexpr std::uint64_t kSamples = 20000;
  for (std::uint64_t i = 0; i < kSamples; ++i) sampler.sample(frame);
  EXPECT_EQ(frame.tau(), kSamples);
  // Middle vertices: within a component, 1/3 of ordered pairs pass the
  // middle (2 of 6), and 6/30 of all pairs are intra-component per side:
  // b(1) = (2/30) * 1 = 1/15 on the 6-vertex normalization.
  const double b1 = static_cast<double>(frame.count(1)) / kSamples;
  EXPECT_NEAR(b1, 2.0 / 30.0, 0.01);
  // Endpoints never appear as interior.
  EXPECT_EQ(frame.count(0), 0u);
  EXPECT_EQ(frame.count(3), 0u);
}

TEST(PathSampler, TwoSamplersWithSameSeedAgree) {
  const Graph graph =
      graph::largest_component(gen::erdos_renyi(80, 200, 6));
  PathSampler a(graph, Rng(7));
  PathSampler b(graph, Rng(7));
  // A sampler moved onto the same stream after sampling elsewhere (the
  // workspace reuse dynamic::IncrementalBc relies on) agrees too.
  PathSampler c(graph, Rng(99));
  epoch::StateFrame frame_a(graph.num_vertices());
  epoch::StateFrame frame_b(graph.num_vertices());
  epoch::StateFrame frame_c(graph.num_vertices());
  for (int i = 0; i < 50; ++i) c.sample(frame_c);
  frame_c.clear();
  c.set_stream(Rng(7));
  for (int i = 0; i < 2000; ++i) {
    a.sample(frame_a);
    b.sample(frame_b);
    c.sample(frame_c);
  }
  for (Vertex v = 0; v < graph.num_vertices(); ++v) {
    ASSERT_EQ(frame_a.count(v), frame_b.count(v));
    ASSERT_EQ(frame_a.count(v), frame_c.count(v));
  }
}

TEST(PathSampler, SplitStreamsDecorrelate) {
  const Graph graph =
      graph::largest_component(gen::erdos_renyi(80, 200, 8));
  PathSampler a(graph, Rng(9).split(0));
  PathSampler b(graph, Rng(9).split(1));
  epoch::StateFrame frame_a(graph.num_vertices());
  epoch::StateFrame frame_b(graph.num_vertices());
  for (int i = 0; i < 2000; ++i) {
    a.sample(frame_a);
    b.sample(frame_b);
  }
  int differing = 0;
  for (Vertex v = 0; v < graph.num_vertices(); ++v)
    differing += frame_a.count(v) != frame_b.count(v);
  EXPECT_GT(differing, 10);
}

TEST(PathSampler, InteriorMassMatchesPathLengths) {
  // Bookkeeping identity: sum of all counts equals the summed interior
  // lengths of the sampled paths, which is at most (VD - 2) * tau.
  const Graph graph = from_edges(5, {{0, 1}, {1, 2}, {2, 3}, {3, 4}});
  PathSampler sampler(graph, Rng(10));
  epoch::StateFrame frame(graph.num_vertices());
  constexpr std::uint64_t kSamples = 5000;
  for (std::uint64_t i = 0; i < kSamples; ++i) sampler.sample(frame);
  std::uint64_t mass = 0;
  for (Vertex v = 0; v < 5; ++v) mass += frame.count(v);
  EXPECT_LE(mass, 3 * kSamples);  // diameter 4 -> at most 3 interior
  EXPECT_GT(mass, 0u);
}

TEST(PathSampler, WorksOnCompleteGraphs) {
  // Every pair is adjacent: all paths are direct edges, no interior
  // vertices ever recorded.
  std::vector<std::pair<Vertex, Vertex>> edges;
  for (Vertex u = 0; u < 8; ++u)
    for (Vertex v = u + 1; v < 8; ++v) edges.emplace_back(u, v);
  const Graph graph = from_edges(8, edges);
  PathSampler sampler(graph, Rng(11));
  epoch::StateFrame frame(graph.num_vertices());
  for (int i = 0; i < 1000; ++i) sampler.sample(frame);
  for (Vertex v = 0; v < 8; ++v) EXPECT_EQ(frame.count(v), 0u);
  EXPECT_EQ(frame.tau(), 1000u);
}

}  // namespace
}  // namespace distbc::bc
