// Determinism and seed-sensitivity contracts.
//
// Sequential KADABRA and RK are bitwise deterministic for a fixed seed.
// The parallel drivers are *statistically* reproducible but not bitwise
// (overlap sample counts depend on thread timing); what must hold for them
// is seed-independent soundness and stable bookkeeping invariants.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <memory>
#include <string>

#include "adaptive/closeness.hpp"
#include "adaptive/mean_distance.hpp"
#include "api/session.hpp"
#include "bc/brandes.hpp"
#include "bc/kadabra.hpp"
#include "bc/rk.hpp"
#include "gen/erdos_renyi.hpp"
#include "gen/instances.hpp"
#include "gen/rmat.hpp"
#include "graph/components.hpp"

#include "failure_rate.hpp"

namespace distbc::bc {
namespace {

graph::Graph test_graph() {
  gen::RmatParams params;
  params.scale = 9;
  params.edge_factor = 8.0;
  return graph::largest_component(gen::rmat(params, 555));
}

TEST(Determinism, SequentialKadabraIsBitwiseReproducible) {
  const auto graph = test_graph();
  KadabraParams params;
  params.epsilon = 0.1;
  params.seed = 77;
  const BcResult a = kadabra_sequential(graph, params);
  const BcResult b = kadabra_sequential(graph, params);
  EXPECT_EQ(a.samples, b.samples);
  EXPECT_EQ(a.epochs, b.epochs);
  ASSERT_EQ(a.scores.size(), b.scores.size());
  for (std::size_t v = 0; v < a.scores.size(); ++v)
    EXPECT_DOUBLE_EQ(a.scores[v], b.scores[v]);
}

TEST(Determinism, RkIsBitwiseReproducible) {
  const auto graph = test_graph();
  RkParams params;
  params.epsilon = 0.1;
  params.seed = 78;
  const BcResult a = rk(graph, params, 1);
  const BcResult b = rk(graph, params, 1);
  EXPECT_EQ(a.samples, b.samples);
  for (std::size_t v = 0; v < a.scores.size(); ++v)
    EXPECT_DOUBLE_EQ(a.scores[v], b.scores[v]);
}

TEST(Determinism, RkMultiThreadedIsBitwiseReproducible) {
  // Thread work splits are static and streams are per-thread, so even the
  // parallel RK is deterministic.
  const auto graph = test_graph();
  RkParams params;
  params.epsilon = 0.1;
  params.seed = 79;
  const BcResult a = rk(graph, params, 6);
  const BcResult b = rk(graph, params, 6);
  for (std::size_t v = 0; v < a.scores.size(); ++v)
    EXPECT_DOUBLE_EQ(a.scores[v], b.scores[v]);
}

TEST(Determinism, DifferentSeedsGiveDifferentSampleSets) {
  const auto graph = test_graph();
  KadabraParams a_params;
  a_params.epsilon = 0.1;
  a_params.seed = 1;
  KadabraParams b_params = a_params;
  b_params.seed = 2;
  const BcResult a = kadabra_sequential(graph, a_params);
  const BcResult b = kadabra_sequential(graph, b_params);
  int differing = 0;
  for (std::size_t v = 0; v < a.scores.size(); ++v)
    differing += a.scores[v] != b.scores[v];
  EXPECT_GT(differing, static_cast<int>(a.scores.size() / 8));
}

TEST(Determinism, ParallelDriversStayWithinEpsilonAcrossRuns) {
  const auto graph = test_graph();
  const BcResult exact = brandes(graph);
  for (int run = 0; run < 3; ++run) {
    KadabraOptions shm;
    shm.params.epsilon = 0.1;
    shm.params.seed = 90 + run;
    shm.engine.threads_per_rank = 4;
    EXPECT_LE(kadabra_shm(graph, shm).max_abs_difference(exact), 0.1)
        << "shm run " << run;

    KadabraOptions mpi;
    mpi.params = shm.params;
    EXPECT_LE(kadabra_mpi(graph, mpi, 3).max_abs_difference(exact), 0.1)
        << "mpi run " << run;
  }
}

TEST(Determinism, EstimatesSumToPathMass) {
  // sum_v b~(v) = E[internal path length] which is bounded by VD - 2; and
  // tau * sum b~ equals the total recorded count - an exact bookkeeping
  // identity that must survive every aggregation path.
  const auto graph = test_graph();
  KadabraParams params;
  params.epsilon = 0.1;
  params.seed = 91;
  const BcResult result = kadabra_sequential(graph, params);
  double sum = 0.0;
  for (const double score : result.scores) sum += score;
  EXPECT_GE(sum, 0.0);
  EXPECT_LE(sum, static_cast<double>(result.vertex_diameter));
  const double recorded = sum * static_cast<double>(result.samples);
  EXPECT_NEAR(recorded, std::round(recorded), 1e-6);
}

TEST(Guarantee, FailureRateIsCompatibleWithDelta) {
  // (eps, delta) = (0.1, 0.1): over 12 independent runs the expected number
  // of violations is ~1.2; requiring <= 4 gives a < 1% flake bound even if
  // the guarantee were only barely met, and the fixed seeds make the
  // outcome reproducible anyway.
  const auto graph =
      graph::largest_component(gen::erdos_renyi(200, 500, 31337));
  const BcResult exact = brandes(graph);
  int violations = 0;
  for (int run = 0; run < 12; ++run) {
    KadabraParams params;
    params.epsilon = 0.1;
    params.delta = 0.1;
    params.seed = 1000 + run;
    const BcResult approx = kadabra_sequential(graph, params);
    violations += approx.max_abs_difference(exact) > params.epsilon;
  }
  EXPECT_LE(violations, 4);
}

TEST(Guarantee, MultiRankFailureRateOverSeedsIsWithinDelta) {
  // The same rate on the path that ships wire images: 4 ranks x 2 threads
  // through api::Session, 100 seeds per case against exact Brandes. The
  // cases are the flat merge, §III-B's lockstep rounds (deterministic +
  // blocking: fixed shares, no overlap, a blocking reduction per round),
  // and the §IV-E two-level merge. Deterministic mode: free-running, the
  // eight sampling threads oversubscribe four cores and a run waits on the
  // scheduler (~18 ms instead of ~2 ms). Each case gets its own seeds,
  // since deterministic runs of one seed agree bit for bit across them.
  struct Case {
    const char* name;
    Aggregation aggregation;
    int ranks_per_node;
    std::uint64_t first_seed;
  };
  constexpr Case kCases[] = {
      {"flat", Aggregation::kIbarrierReduce, 1, 3000},
      {"lockstep (blocking)", Aggregation::kBlocking, 1, 4000},
      {"hierarchical", Aggregation::kIbarrierReduce, 2, 6000}};
  constexpr int kSeeds = 100;
  constexpr double kEpsilon = 0.05;
  constexpr double kDelta = 0.1;
  const auto graph = std::make_shared<const graph::Graph>(
      graph::largest_component(gen::erdos_renyi(120, 360, 4243)));
  const BcResult exact = brandes(*graph);
  for (const Case& c : kCases) {
    int violations = 0;
    double worst_seen = 0.0;
    for (int seed = 0; seed < kSeeds; ++seed) {
      api::Config config;
      config.ranks = 4;
      config.threads = 2;
      config.aggregation = c.aggregation;
      config.ranks_per_node = c.ranks_per_node;
      config.hierarchical = c.ranks_per_node > 1;
      config.deterministic = true;
      config.seed = c.first_seed + seed;
      api::Session session(graph, config);
      const api::Result result = session.run(
          api::BetweennessQuery{.epsilon = kEpsilon, .delta = kDelta});
      ASSERT_TRUE(result.status.ok) << c.name << ": " << result.status.message;
      double worst = 0.0;
      for (std::size_t v = 0; v < exact.scores.size(); ++v)
        worst = std::max(worst, std::abs(result.scores[v] - exact.scores[v]));
      violations += worst > kEpsilon;
      worst_seen = std::max(worst_seen, worst);
    }
    EXPECT_LE(violations, allowed_violations(kSeeds, kDelta))
        << c.name << ": worst error over all seeds " << worst_seen;
  }
}


// --- Golden scores ---------------------------------------------------------
//
// FNV-1a digests of the score bits (plus sample and epoch counts) of
// deterministic 4-rank x 2-thread runs. Every aggregation topology and
// §IV-F strategy must land on the same pinned digest: the sample set is a
// pure function of (seed, streams, epoch schedule), and the wire only
// carries exact uint64 counts. A change to how frames cross the wire that
// moves a single bit fails here.

class Fnv {
 public:
  void add(std::uint64_t word) {
    for (int byte = 0; byte < 8; ++byte) {
      hash_ ^= (word >> (8 * byte)) & 0xff;
      hash_ *= 0x100000001b3ull;
    }
  }
  void add(double value) { add(std::bit_cast<std::uint64_t>(value)); }
  [[nodiscard]] std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ull;
};

graph::Graph golden_graph() {
  return graph::largest_component(gen::erdos_renyi(300, 900, 7));
}

engine::EngineOptions golden_engine() {
  engine::EngineOptions options;
  options.threads_per_rank = 2;
  options.deterministic = true;
  options.epoch_base = 64;
  options.epoch_exponent = 0.0;
  return options;
}

std::uint64_t score_digest(const std::vector<double>& scores,
                           std::uint64_t samples, std::uint64_t epochs) {
  Fnv fnv;
  fnv.add(samples);
  fnv.add(epochs);
  fnv.add(std::uint64_t{scores.size()});
  for (const double score : scores) fnv.add(score);
  return fnv.value();
}

/// The §IV-E/F aggregation topologies every driver on the engine runs.
struct Topology {
  const char* name;
  bool hierarchical;

  [[nodiscard]] int ranks_per_node() const { return hierarchical ? 2 : 1; }
  void apply(engine::EngineOptions& options) const {
    options.hierarchical = hierarchical;
  }
};

constexpr Topology kTopologies[] = {{"flat", false}, {"hierarchical", true}};

TEST(GoldenScores, KadabraEveryTopologyAndStrategy) {
  const graph::Graph graph = golden_graph();
  for (const Topology& topology : kTopologies) {
    for (const Aggregation aggregation :
         {Aggregation::kIbarrierReduce, Aggregation::kIreduce,
          Aggregation::kBlocking}) {
      KadabraOptions options;
      options.params.epsilon = 0.1;
      options.params.seed = 2024;
      options.engine = golden_engine();
      options.engine.aggregation = aggregation;
      topology.apply(options.engine);
      const BcResult result =
          kadabra_mpi(graph, options, /*num_ranks=*/4,
                      topology.ranks_per_node(),
                      mpisim::NetworkModel::disabled());
      ASSERT_GT(result.samples, 0u);
      EXPECT_EQ(score_digest(result.scores, result.samples, result.epochs),
                0xbc917bf33414e840ull)
          << topology.name << " / " << engine::aggregation_name(aggregation);
    }
  }
}

TEST(GoldenScores, ClosenessEveryTopology) {
  const graph::Graph graph = golden_graph();
  for (const Topology& topology : kTopologies) {
    adaptive::ClosenessParams params;
    params.epsilon = 0.08;
    params.engine = golden_engine();
    topology.apply(params.engine);
    const adaptive::ClosenessResult result = adaptive::closeness_mpi(
        graph, params, /*num_ranks=*/4, topology.ranks_per_node(),
        mpisim::NetworkModel::disabled());
    ASSERT_GT(result.samples, 0u);
    EXPECT_EQ(score_digest(result.scores, result.samples, result.epochs),
              0x6f2e1c11a798dca4ull)
        << topology.name;
  }
}

// The service workload's closeness query (epsilon 0.05) on its two graphs,
// built as the suite builds them (scale 1, seeds 1 and 2), at 1 rank x 1
// thread and at 4 ranks x 2 threads. Both run in deterministic mode: a
// free-running rank takes timing-dependent overlap samples while its
// collectives are in flight. Pins every closeness score bit on the graphs
// where the sampler's BFS is hottest.
TEST(GoldenScores, ClosenessOnServiceGraphs) {
  struct Case {
    const char* instance;
    std::uint64_t seed;
    std::uint64_t one_rank;
    std::uint64_t four_ranks;
  };
  constexpr Case kCases[] = {
      {"quick-social", 1, 0xb81924058bdcd330ull, 0x76933ba575502d6eull},
      {"quick-web", 2, 0x721a2487d6ceb183ull, 0xeffb3f9dd16aed80ull}};
  for (const Case& c : kCases) {
    const auto graph = std::make_shared<const graph::Graph>(
        gen::instance_by_name(c.instance).build(1.0, c.seed));
    for (const bool distributed : {false, true}) {
      api::Config config;
      config.seed = 1;
      config.deterministic = true;
      config.network = mpisim::NetworkModel::disabled();
      if (distributed) {
        config.ranks = 4;
        config.threads = 2;
      }
      api::Session session(graph, config);
      ASSERT_TRUE(session.status().ok) << session.status().message;
      const api::Result result =
          session.run(api::ClosenessRankQuery{.epsilon = 0.05});
      ASSERT_TRUE(result.status.ok) << result.status.message;
      EXPECT_EQ(score_digest(result.scores, result.samples, result.epochs),
                distributed ? c.four_ranks : c.one_rank)
          << c.instance << (distributed ? " 4x2" : " 1x1");
    }
  }
}

TEST(GoldenScores, MeanDistanceEveryTopology) {
  const graph::Graph graph = golden_graph();
  for (const Topology& topology : kTopologies) {
    adaptive::MeanDistanceParams params;
    params.epsilon = 0.05;
    params.engine = golden_engine();
    topology.apply(params.engine);
    const adaptive::MeanDistanceResult result = adaptive::mean_distance_mpi(
        graph, params, /*num_ranks=*/4, topology.ranks_per_node(),
        mpisim::NetworkModel::disabled());
    ASSERT_GT(result.samples, 0u);
    EXPECT_EQ(score_digest({result.mean, result.stddev, result.half_width},
                           result.samples, result.epochs),
              0x540333660fe612a0ull)
        << topology.name;
  }
}

}  // namespace
}  // namespace distbc::bc
