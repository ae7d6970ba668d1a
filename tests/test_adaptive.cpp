// Tests for the generic adaptive-sampling driver and the mean-distance
// estimator built on it (the paper's future-work generalization).
#include <gtest/gtest.h>

#include <cmath>

#include "engine/engine.hpp"
#include "adaptive/closeness.hpp"
#include "adaptive/mean_distance.hpp"
#include "comm/substrate.hpp"
#include "mpisim/runtime.hpp"
#include "gen/erdos_renyi.hpp"
#include "gen/road.hpp"
#include "graph/bfs.hpp"
#include "graph/builder.hpp"
#include "graph/components.hpp"
#include "support/random.hpp"

namespace distbc::adaptive {
namespace {

TEST(MomentFrame, RecordsMoments) {
  MomentFrame frame;
  frame.record(2);
  frame.record(4);
  EXPECT_EQ(frame.count(), 2u);
  EXPECT_DOUBLE_EQ(frame.mean(), 3.0);
  // Unbiased variance of {2, 4} is 2.
  EXPECT_DOUBLE_EQ(frame.variance(), 2.0);
}

TEST(MomentFrame, MergeIsAdditive) {
  MomentFrame a;
  MomentFrame b;
  a.record(1);
  b.record(3);
  b.record(5);
  a.merge(b);
  EXPECT_EQ(a.count(), 3u);
  EXPECT_DOUBLE_EQ(a.mean(), 3.0);
}

TEST(MomentFrame, EmptyAndSingleSampleEdgeCases) {
  MomentFrame frame;
  EXPECT_DOUBLE_EQ(frame.mean(), 0.0);
  EXPECT_DOUBLE_EQ(frame.variance(), 0.0);
  frame.record(7);
  EXPECT_DOUBLE_EQ(frame.mean(), 7.0);
  EXPECT_DOUBLE_EQ(frame.variance(), 0.0);  // undefined -> 0 by convention
}

TEST(MomentFrame, RawLayoutSupportsElementwiseReduce) {
  MomentFrame frame;
  frame.record(3);
  const auto raw = frame.raw();
  ASSERT_EQ(raw.size(), 3u);
  EXPECT_EQ(raw[0], 1u);
  EXPECT_EQ(raw[1], 3u);
  EXPECT_EQ(raw[2], 9u);
}

TEST(BernsteinHalfWidth, ShrinksWithSamples) {
  double previous = 1e18;
  for (const std::uint64_t n : {10ull, 100ull, 1000ull, 10000ull}) {
    const double hw = bernstein_half_width(4.0, 20.0, 0.1, n);
    EXPECT_LT(hw, previous);
    previous = hw;
  }
}

TEST(BernsteinHalfWidth, VarianceTermDominatesAsymptotically) {
  // At large n the sqrt(V/n) term dwarfs the R/n term.
  const double hw = bernstein_half_width(4.0, 1000.0, 0.1, 1u << 24);
  const double variance_term =
      std::sqrt(2.0 * 4.0 * std::log(30.0) / (1u << 24));
  EXPECT_LT(hw, 2.5 * variance_term);
}

TEST(GenericDriver, AggregatesDeterministicCounts) {
  // A degenerate "sampler" that always records distance 1: the driver must
  // neither lose nor duplicate samples across threads/ranks/epochs.
  struct OneSampler {
    void sample(MomentFrame& frame) { frame.record(1); }
  };
  mpisim::RuntimeConfig config;
  config.num_ranks = 3;
  config.network = mpisim::NetworkModel::disabled();
  mpisim::Runtime runtime(config);
  runtime.run([&](auto& rank_comm) {
    const auto world =
        comm::make_substrate(comm::SubstrateKind::kMpisim, rank_comm);
    engine::EngineOptions options;
    options.threads_per_rank = 2;
    options.epoch_base = 10;
    options.epoch_exponent = 0.0;
    auto result = engine::run_epochs(
        world.get(), MomentFrame{}, [](std::uint64_t) { return OneSampler{}; },
        [](const MomentFrame& frame) { return frame.count() >= 500; },
        options);
    if (world->rank() == 0) {
      EXPECT_GE(result.aggregate.count(), 500u);
      EXPECT_DOUBLE_EQ(result.aggregate.mean(), 1.0);
      // With a trivially fast sampler the free-running worker threads can
      // satisfy the threshold within the first epoch; at least one epoch
      // must complete either way.
      EXPECT_GE(result.epochs, 1u);
      // The aggregate only contains collected samples; attempted covers
      // also the discarded overlap tail.
      EXPECT_GE(result.samples_attempted, result.aggregate.count());
    }
  });
}

TEST(GenericDriver, MaxEpochsStopsDivergentRules) {
  struct OneSampler {
    void sample(MomentFrame& frame) { frame.record(1); }
  };
  mpisim::RuntimeConfig config;
  config.num_ranks = 2;
  config.network = mpisim::NetworkModel::disabled();
  mpisim::Runtime runtime(config);
  runtime.run([&](auto& rank_comm) {
    const auto world =
        comm::make_substrate(comm::SubstrateKind::kMpisim, rank_comm);
    engine::EngineOptions options;
    options.epoch_base = 5;
    options.epoch_exponent = 0.0;
    options.max_epochs = 7;
    auto result = engine::run_epochs(
        world.get(), MomentFrame{}, [](std::uint64_t) { return OneSampler{}; },
        [](const MomentFrame&) { return false; },  // never satisfied
        options);
    EXPECT_EQ(result.epochs, 7u);
    EXPECT_EQ(result.stop_reason, engine::StopReason::kMaxEpochs);
  });
}

TEST(GenericDriver, RuleSatisfiedAtTheCapStillReportsTheRule) {
  struct OneSampler {
    void sample(MomentFrame& frame) { frame.record(1); }
  };
  engine::EngineOptions options;
  options.epoch_base = 5;
  options.epoch_exponent = 0.0;
  options.max_epochs = 3;
  int checks = 0;
  auto result = engine::run_epochs(
      nullptr, MomentFrame{}, [](std::uint64_t) { return OneSampler{}; },
      [&](const MomentFrame&) { return ++checks == 3; }, options);
  EXPECT_EQ(result.epochs, 3u);
  EXPECT_EQ(result.stop_reason, engine::StopReason::kRule);
}

double exact_mean_distance(const graph::Graph& graph) {
  graph::BfsWorkspace ws(graph.num_vertices());
  double total = 0.0;
  std::uint64_t pairs = 0;
  for (graph::Vertex s = 0; s < graph.num_vertices(); ++s) {
    graph::bfs(graph, s, ws);
    for (const graph::Vertex v : ws.queue()) {
      if (v == s) continue;
      total += ws.dist(v);
      ++pairs;
    }
  }
  return total / static_cast<double>(pairs);
}

TEST(MeanDistance, MatchesExactOnRandomGraph) {
  const auto graph =
      graph::largest_component(gen::erdos_renyi(300, 900, 77));
  const double exact = exact_mean_distance(graph);
  MeanDistanceParams params;
  params.epsilon = 0.05;
  params.seed = 3;
  const MeanDistanceResult result = mean_distance_mpi(graph, params, 4);
  EXPECT_NEAR(result.mean, exact, 3 * params.epsilon);
  EXPECT_LE(result.half_width, params.epsilon);
  EXPECT_GT(result.samples, 0u);
}

TEST(MeanDistance, MatchesExactOnHighDiameterGraph) {
  gen::RoadParams road_params;
  road_params.width = 40;
  road_params.height = 12;
  const auto graph = gen::road(road_params, 5);
  const double exact = exact_mean_distance(graph);
  MeanDistanceParams params;
  params.epsilon = 0.25;  // absolute hops; road means are ~15-20
  params.seed = 4;
  const MeanDistanceResult result = mean_distance_mpi(graph, params, 2);
  EXPECT_NEAR(result.mean, exact, 3 * params.epsilon);
}

TEST(MeanDistance, TighterEpsilonTakesMoreSamples) {
  const auto graph =
      graph::largest_component(gen::erdos_renyi(300, 900, 78));
  MeanDistanceParams loose;
  loose.epsilon = 0.2;
  MeanDistanceParams tight;
  tight.epsilon = 0.05;
  const auto a = mean_distance_mpi(graph, loose, 2);
  const auto b = mean_distance_mpi(graph, tight, 2);
  EXPECT_GT(b.samples, a.samples);
}

TEST(MeanDistance, CompleteGraphHasMeanOne) {
  std::vector<std::pair<graph::Vertex, graph::Vertex>> edges;
  for (graph::Vertex u = 0; u < 12; ++u)
    for (graph::Vertex v = u + 1; v < 12; ++v) edges.emplace_back(u, v);
  const auto graph = graph::from_edges(12, edges);
  MeanDistanceParams params;
  params.epsilon = 0.01;
  const MeanDistanceResult result = mean_distance_mpi(graph, params, 2);
  EXPECT_DOUBLE_EQ(result.mean, 1.0);
  EXPECT_DOUBLE_EQ(result.stddev, 0.0);
  // Zero variance: the rule fires as soon as the R/n term is small.
  EXPECT_LT(result.samples, 100000u);
}

TEST(MeanDistance, WorksAcrossClusterShapes) {
  const auto graph =
      graph::largest_component(gen::erdos_renyi(200, 600, 79));
  const double exact = exact_mean_distance(graph);
  for (const int ranks : {1, 2, 4}) {
    MeanDistanceParams params;
    params.epsilon = 0.1;
    params.engine.threads_per_rank = ranks == 4 ? 2 : 1;
    params.seed = 10 + ranks;
    const MeanDistanceResult result =
        mean_distance_mpi(graph, params, ranks, ranks >= 2 ? 2 : 1);
    EXPECT_NEAR(result.mean, exact, 3 * params.epsilon) << ranks;
  }
}

// --- Wire bytes ------------------------------------------------------------

/// Deterministic 4-rank x 2-thread engine options.
engine::EngineOptions wire_engine() {
  engine::EngineOptions options;
  options.threads_per_rank = 2;
  options.deterministic = true;
  options.virtual_streams = 8;
  options.epoch_base = 64;
  options.epoch_exponent = 0.0;
  return options;
}

graph::Graph wire_graph() {
  return graph::largest_component(gen::erdos_renyi(300, 900, 7));
}

// Both drivers' frames reach the wire through the codec's free functions
// over their flat raw() arrays. The bytes each one moves are pinned: a
// codec change that moves them must show up here (their scores are pinned
// by the GoldenScores digests in test_determinism).
TEST(WireBytes, ClosenessAggregationBytesArePinned) {
  ClosenessParams params;
  params.epsilon = 0.08;
  params.engine = wire_engine();
  const ClosenessResult result = closeness_mpi(
      wire_graph(), params, 4, 1, comm::NetworkModel::disabled());
  ASSERT_GT(result.samples, 0u);
  EXPECT_EQ(result.comm_volume.aggregation_bytes(), 172824u);
}

TEST(WireBytes, MeanDistanceAggregationBytesArePinned) {
  MeanDistanceParams params;
  params.epsilon = 0.05;
  params.engine = wire_engine();
  const MeanDistanceResult result = mean_distance_mpi(
      wire_graph(), params, 4, 1, comm::NetworkModel::disabled());
  ASSERT_GT(result.samples, 0u);
  EXPECT_EQ(result.comm_volume.aggregation_bytes(), 11160u);
}

}  // namespace
}  // namespace distbc::adaptive
