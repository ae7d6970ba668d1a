// Tests for the generic adaptive-sampling driver and the mean-distance
// estimator built on it (the paper's future-work generalization).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>

#include "engine/engine.hpp"
#include "adaptive/closeness.hpp"
#include "adaptive/mean_distance.hpp"
#include "api/session.hpp"
#include "mpisim/comm.hpp"
#include "mpisim/runtime.hpp"
#include "gen/erdos_renyi.hpp"
#include "gen/road.hpp"
#include "graph/bfs.hpp"
#include "graph/builder.hpp"
#include "graph/components.hpp"
#include "support/random.hpp"

#include "failure_rate.hpp"

namespace distbc::adaptive {
namespace {

TEST(DistanceMoments, RecordsMoments) {
  epoch::StateFrame frame(kMomentWords);
  record_distance(frame, 2);
  record_distance(frame, 4);
  EXPECT_EQ(frame.tau(), 2u);
  EXPECT_DOUBLE_EQ(distance_mean(frame), 3.0);
  // Unbiased variance of {2, 4} is 2.
  EXPECT_DOUBLE_EQ(distance_variance(frame), 2.0);
}

TEST(DistanceMoments, MergeIsAdditive) {
  epoch::StateFrame a(kMomentWords);
  epoch::StateFrame b(kMomentWords);
  record_distance(a, 1);
  record_distance(b, 3);
  record_distance(b, 5);
  a.merge(b);
  EXPECT_EQ(a.tau(), 3u);
  EXPECT_DOUBLE_EQ(distance_mean(a), 3.0);
}

TEST(DistanceMoments, EmptyAndSingleSampleEdgeCases) {
  epoch::StateFrame frame(kMomentWords);
  EXPECT_DOUBLE_EQ(distance_mean(frame), 0.0);
  EXPECT_DOUBLE_EQ(distance_variance(frame), 0.0);
  record_distance(frame, 7);
  EXPECT_DOUBLE_EQ(distance_mean(frame), 7.0);
  EXPECT_DOUBLE_EQ(distance_variance(frame), 0.0);  // undefined -> 0
}

TEST(DistanceMoments, RawLayoutIsSumsThenPairs) {
  epoch::StateFrame frame(kMomentWords);
  record_distance(frame, 3);
  const auto raw = frame.raw();
  ASSERT_EQ(raw.size(), 3u);
  EXPECT_EQ(raw[0], 3u);  // sum of d
  EXPECT_EQ(raw[1], 9u);  // sum of d^2
  EXPECT_EQ(raw[2], 1u);  // pairs, in the sample-count slot
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

/// A degenerate sampler factory: every stream records distance 1.
engine::Sampler one_sampler(std::uint64_t) {
  return [](epoch::StateFrame& frame) { record_distance(frame, 1); };
}

TEST(GenericDriver, AggregatesDeterministicCounts) {
  // A degenerate "sampler" that always records distance 1: the driver must
  // neither lose nor duplicate samples across threads/ranks/epochs.
  mpisim::RuntimeConfig config;
  config.num_ranks = 3;
  config.network = mpisim::NetworkModel::disabled();
  mpisim::Runtime runtime(config);
  runtime.run([&](mpisim::Comm& world) {
    engine::EngineOptions options;
    options.threads_per_rank = 2;
    options.epoch_base = 10;
    options.epoch_exponent = 0.0;
    auto result = engine::run_epochs(
        &world, kMomentWords, one_sampler,
        [](const epoch::StateFrame& frame) { return frame.tau() >= 500; },
        options);
    if (world.rank() == 0) {
      EXPECT_GE(result.aggregate.tau(), 500u);
      EXPECT_DOUBLE_EQ(distance_mean(result.aggregate), 1.0);
      // With a trivially fast sampler the free-running worker threads can
      // satisfy the threshold within the first epoch; at least one epoch
      // must complete either way.
      EXPECT_GE(result.epochs, 1u);
      // The aggregate only contains collected samples; attempted covers
      // also the discarded overlap tail.
      EXPECT_GE(result.samples_attempted, result.aggregate.tau());
    }
  });
}

TEST(GenericDriver, MaxEpochsStopsDivergentRules) {
  mpisim::RuntimeConfig config;
  config.num_ranks = 2;
  config.network = mpisim::NetworkModel::disabled();
  mpisim::Runtime runtime(config);
  runtime.run([&](mpisim::Comm& world) {
    engine::EngineOptions options;
    options.epoch_base = 5;
    options.epoch_exponent = 0.0;
    options.max_epochs = 7;
    auto result = engine::run_epochs(
        &world, kMomentWords, one_sampler,
        [](const epoch::StateFrame&) { return false; },  // never satisfied
        options);
    EXPECT_EQ(result.epochs, 7u);
    EXPECT_EQ(result.stop_reason, engine::StopReason::kMaxEpochs);
  });
}

TEST(GenericDriver, RuleSatisfiedAtTheCapStillReportsTheRule) {
  engine::EngineOptions options;
  options.epoch_base = 5;
  options.epoch_exponent = 0.0;
  options.max_epochs = 3;
  int checks = 0;
  auto result = engine::run_epochs(
      nullptr, kMomentWords, one_sampler,
      [&](const epoch::StateFrame&) { return ++checks == 3; }, options);
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

TEST(MeanDistance, FailureRateOverSeedsIsWithinDelta) {
  // The mean-distance guarantee is a rate: over independent seeds, the
  // share of runs whose estimate misses the exact mean by more than
  // epsilon must stay within delta. 100 seeds each on an ER graph's
  // largest component and on a small road grid, through api::Session.
  constexpr int kSeeds = 100;
  constexpr double kDelta = 0.1;
  gen::RoadParams road_params;
  road_params.width = 16;
  road_params.height = 8;
  const struct {
    const char* name;
    graph::Graph graph;
    double epsilon;  // absolute hops
  } cases[] = {
      {"erdos-renyi",
       graph::largest_component(gen::erdos_renyi(150, 450, 17)), 0.1},
      {"road", gen::road(road_params, 17), 0.4}};
  for (const auto& c : cases) {
    const auto graph = std::make_shared<const graph::Graph>(c.graph);
    const double exact = exact_mean_distance(*graph);
    int violations = 0;
    double worst_seen = 0.0;
    for (int seed = 0; seed < kSeeds; ++seed) {
      api::Config config;
      config.seed = 2000 + seed;
      api::Session session(graph, config);
      const api::Result result = session.run(
          api::MeanDistanceQuery{.epsilon = c.epsilon, .delta = kDelta});
      ASSERT_TRUE(result.status.ok) << result.status.message;
      const double error = std::abs(result.mean - exact);
      violations += error > c.epsilon;
      worst_seen = std::max(worst_seen, error);
    }
    EXPECT_LE(violations, allowed_violations(kSeeds, kDelta))
        << c.name << ": worst error over all seeds " << worst_seen;
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
      wire_graph(), params, 4, 1, mpisim::NetworkModel::disabled());
  ASSERT_GT(result.samples, 0u);
  EXPECT_EQ(result.comm_volume.aggregation_bytes(), 172824u);
}

TEST(WireBytes, MeanDistanceAggregationBytesArePinned) {
  MeanDistanceParams params;
  params.epsilon = 0.05;
  params.engine = wire_engine();
  const MeanDistanceResult result = mean_distance_mpi(
      wire_graph(), params, 4, 1, mpisim::NetworkModel::disabled());
  ASSERT_GT(result.samples, 0u);
  EXPECT_EQ(result.comm_volume.aggregation_bytes(), 11160u);
}

}  // namespace
}  // namespace distbc::adaptive
