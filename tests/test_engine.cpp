// Tests for the unified epoch-sampling engine: stream partitioning, the
// calibration hook, and the cross-backend reproducibility contract - in
// deterministic mode, seq / shm / mpi configurations of the engine (and
// every aggregation strategy, and the hierarchical reduction) produce
// bitwise-identical results because the per-epoch aggregate is a pure
// function of (seed, virtual streams, epoch schedule).
#include <gtest/gtest.h>

#include <string>

#include "adaptive/mean_distance.hpp"
#include "bc/kadabra.hpp"
#include "engine/engine.hpp"
#include "engine/streams.hpp"
#include "mpisim/comm.hpp"
#include "mpisim/runtime.hpp"
#include "gen/erdos_renyi.hpp"
#include "graph/components.hpp"

namespace distbc {
namespace {

// --- Stream partitioning ---------------------------------------------------

TEST(Streams, SharesSumToTotal) {
  for (const std::uint64_t total : {0ull, 1ull, 7ull, 100ull, 1001ull}) {
    std::uint64_t sum = 0;
    for (std::uint64_t v = 0; v < 4; ++v)
      sum += engine::stream_share(total, v, 4);
    EXPECT_EQ(sum, total);
  }
}

TEST(Streams, RemainderGoesToLowestStreams) {
  EXPECT_EQ(engine::stream_share(10, 0, 4), 3u);
  EXPECT_EQ(engine::stream_share(10, 1, 4), 3u);
  EXPECT_EQ(engine::stream_share(10, 2, 4), 2u);
  EXPECT_EQ(engine::stream_share(10, 3, 4), 2u);
}

TEST(Streams, OwnerIsGlobalThreadIndexModuloThreads) {
  EXPECT_EQ(engine::stream_owner(0, 4), 0u);
  EXPECT_EQ(engine::stream_owner(3, 4), 3u);
  EXPECT_EQ(engine::stream_owner(6, 4), 2u);
}

// --- Calibration hook ------------------------------------------------------

/// A sampler factory whose samples only count themselves: a frame of P
/// payload words then holds one nonzero, its sample count, so its width
/// picks the wire image - no payload ships dense, a wide payload sparse.
engine::Sampler count_sampler(std::uint64_t) {
  return [](epoch::StateFrame& frame) { frame.finish_sample(); };
}

TEST(EngineCalibrate, DistributesBudgetExactlyAcrossRanks) {
  mpisim::RuntimeConfig config;
  config.num_ranks = 3;
  config.network = mpisim::NetworkModel::disabled();
  mpisim::Runtime runtime(config);
  runtime.run([&](mpisim::Comm& world) {
    engine::EngineOptions options;
    options.threads_per_rank = 2;
    const epoch::StateFrame frame =
        engine::calibrate(&world, /*payload_words=*/0, count_sampler,
                          /*total_budget=*/1001, options);
    if (world.rank() == 0) {
      EXPECT_EQ(frame.tau(), 1001u);
    }
  });
}

TEST(EngineCalibrate, SingleRankTakesWholeBudget) {
  engine::EngineOptions options;
  options.threads_per_rank = 3;
  const epoch::StateFrame frame =
      engine::calibrate(nullptr, /*payload_words=*/0, count_sampler,
                        /*total_budget=*/500, options);
  EXPECT_EQ(frame.tau(), 500u);
}

// --- Cross-backend reproducibility (deterministic mode) --------------------

graph::Graph equivalence_graph() {
  return graph::largest_component(gen::erdos_renyi(120, 360, 4242));
}

bc::KadabraOptions deterministic_options(int threads) {
  bc::KadabraOptions options;
  options.params.epsilon = 0.15;
  options.params.seed = 1234;
  options.engine.threads_per_rank = threads;
  options.engine.deterministic = true;
  options.engine.virtual_streams = 4;
  options.engine.epoch_base = 64;
  options.engine.epoch_exponent = 0.0;
  return options;
}

void expect_bitwise_equal(const bc::BcResult& a, const bc::BcResult& b,
                          const char* label) {
  EXPECT_EQ(a.samples, b.samples) << label;
  EXPECT_EQ(a.epochs, b.epochs) << label;
  ASSERT_EQ(a.scores.size(), b.scores.size()) << label;
  for (std::size_t v = 0; v < a.scores.size(); ++v)
    EXPECT_EQ(a.scores[v], b.scores[v]) << label << " vertex " << v;
}

TEST(EngineEquivalence, SeqShmMpiProduceIdenticalAggregates) {
  const graph::Graph graph = equivalence_graph();
  // seq = 1 rank x 1 thread, shm = 1 rank x 4 threads, mpi = 2 ranks x 2
  // threads; all draw from the same 4 virtual streams.
  const bc::BcResult seq = bc::kadabra_shm(graph, deterministic_options(1));
  const bc::BcResult shm = bc::kadabra_shm(graph, deterministic_options(4));
  const bc::BcResult mpi =
      bc::kadabra_mpi(graph, deterministic_options(2), /*num_ranks=*/2,
                      /*ranks_per_node=*/1, mpisim::NetworkModel::disabled());
  ASSERT_GT(seq.samples, 0u);
  expect_bitwise_equal(seq, shm, "seq vs shm");
  expect_bitwise_equal(seq, mpi, "seq vs mpi");
}

TEST(EngineEquivalence, AggregationStrategiesAreBitwiseIdentical) {
  const graph::Graph graph = equivalence_graph();
  auto run = [&](engine::Aggregation aggregation) {
    bc::KadabraOptions options = deterministic_options(2);
    options.engine.aggregation = aggregation;
    return bc::kadabra_mpi(graph, options, /*num_ranks=*/2,
                           /*ranks_per_node=*/1,
                           mpisim::NetworkModel::disabled());
  };
  const bc::BcResult barrier = run(engine::Aggregation::kIbarrierReduce);
  const bc::BcResult ireduce = run(engine::Aggregation::kIreduce);
  const bc::BcResult blocking = run(engine::Aggregation::kBlocking);
  ASSERT_GT(barrier.samples, 0u);
  expect_bitwise_equal(barrier, ireduce, "ibarrier+reduce vs ireduce");
  expect_bitwise_equal(barrier, blocking, "ibarrier+reduce vs blocking");
}

// Every frame crosses the wire as an image sized by its data: on a
// sparsely-hit instance the aggregation moves merge-reduction bytes only
// (the one elementwise reduce left is the one-word samples_attempted
// bookkeeping), far below the paper layout's (epochs + 1) x (P - 1) dense
// |V| + 1 word frames.
TEST(EngineEquivalence, WireImagesCarryEveryAggregation) {
  const graph::Graph graph = equivalence_graph();
  const bc::BcResult result =
      bc::kadabra_mpi(graph, deterministic_options(1), /*num_ranks=*/4,
                      /*ranks_per_node=*/1, mpisim::NetworkModel::disabled());
  ASSERT_GT(result.samples, 0u);
  EXPECT_GT(result.comm_volume.reduce_merge_bytes, 0u);
  EXPECT_LE(result.comm_volume.reduce_bytes, 3 * sizeof(std::uint64_t));
  const std::uint64_t dense_layout_bytes =
      (result.epochs + 1) * 3 * (graph.num_vertices() + 1) *
      sizeof(std::uint64_t);
  EXPECT_LT(result.comm_volume.aggregation_bytes(), dense_layout_bytes);
}

// The two-level merge path: §IV-E node-window pre-reduction below the
// leaders' all-reduce merge, then the leaders' downward leg. Every
// (hierarchy x strategy) cell must be bitwise identical to the flat
// single-level baseline.
TEST(EngineEquivalence, TwoLevelSweepIsBitwiseIdentical) {
  const graph::Graph graph = equivalence_graph();
  auto run = [&](bool hierarchical, engine::Aggregation aggregation) {
    bc::KadabraOptions options = deterministic_options(1);
    options.engine.virtual_streams = 8;
    options.engine.aggregation = aggregation;
    options.engine.hierarchical = hierarchical;
    return bc::kadabra_mpi(graph, options, /*num_ranks=*/8,
                           /*ranks_per_node=*/2,
                           mpisim::NetworkModel::disabled());
  };
  bc::KadabraOptions flat_options = deterministic_options(1);
  flat_options.engine.virtual_streams = 8;
  const bc::BcResult baseline =
      bc::kadabra_mpi(graph, flat_options, /*num_ranks=*/8,
                      /*ranks_per_node=*/1, mpisim::NetworkModel::disabled());
  ASSERT_GT(baseline.samples, 0u);
  for (const bool hierarchical : {false, true}) {
    for (const engine::Aggregation aggregation :
         {engine::Aggregation::kIbarrierReduce, engine::Aggregation::kIreduce,
          engine::Aggregation::kBlocking}) {
      const bc::BcResult result = run(hierarchical, aggregation);
      const std::string label =
          std::string(hierarchical ? "hierarchical" : "flat") + " / " +
          engine::aggregation_name(aggregation);
      expect_bitwise_equal(baseline, result, label.c_str());
    }
  }
}

// Decentralized termination's core contract: run_epochs leaves the
// identical merged aggregate on EVERY rank (the stopping rule is evaluated
// locally everywhere), not just at world rank zero.
TEST(EngineEquivalence, EveryRankHoldsTheGlobalAggregate) {
  mpisim::RuntimeConfig config;
  config.num_ranks = 4;
  config.ranks_per_node = 2;
  config.network = mpisim::NetworkModel::disabled();
  mpisim::Runtime runtime(config);
  std::vector<std::uint64_t> per_rank(4, 0);
  runtime.run([&](mpisim::Comm& world) {
    engine::EngineOptions options;
    options.deterministic = true;
    options.virtual_streams = 4;
    options.epoch_base = 40;
    options.epoch_exponent = 0.0;
    options.hierarchical = true;
    const auto result = engine::run_epochs(
        &world, /*payload_words=*/0, count_sampler,
        [](const epoch::StateFrame& frame) { return frame.tau() >= 100; },
        options);
    per_rank[world.rank()] = result.aggregate.tau();
  });
  EXPECT_GE(per_rank[0], 100u);
  for (int r = 1; r < 4; ++r) EXPECT_EQ(per_rank[r], per_rank[0]) << r;
}

// The engine builds and reads every wire image from the frame's flat raw()
// array alone, so a frame takes every wire path dense (a one-word frame)
// and sparse (a 64-word frame with one nonzero), flat and hierarchical
// alike.
TEST(EngineEquivalence, RawOnlyFrameRidesEveryTopology) {
  struct Outcome {
    std::uint64_t calibrated = 0;
    std::uint64_t epochs = 0;
    std::vector<std::uint64_t> per_rank = std::vector<std::uint64_t>(4, 0);
  };
  auto run = [](std::size_t words, bool hierarchical) {
    mpisim::RuntimeConfig config;
    config.num_ranks = 4;
    config.ranks_per_node = hierarchical ? 2 : 1;
    config.network = mpisim::NetworkModel::disabled();
    mpisim::Runtime runtime(config);
    Outcome outcome;
    runtime.run([&](mpisim::Comm& world) {
      engine::EngineOptions options;
      options.threads_per_rank = 2;
      options.deterministic = true;
      options.virtual_streams = 8;
      options.epoch_base = 40;
      options.epoch_exponent = 0.0;
      options.hierarchical = hierarchical;
      const std::size_t payload_words = words - 1;
      const epoch::StateFrame calibrated =
          engine::calibrate(&world, payload_words, count_sampler,
                            /*total_budget=*/1001, options);
      const auto result = engine::run_epochs(
          &world, payload_words, count_sampler,
          [](const epoch::StateFrame& frame) { return frame.tau() >= 300; },
          options);
      outcome.per_rank[world.rank()] = result.aggregate.tau();
      if (world.rank() == 0) {
        outcome.calibrated = calibrated.tau();
        outcome.epochs = result.epochs;
      }
    });
    return outcome;
  };
  const Outcome reference = run(1, false);
  EXPECT_EQ(reference.calibrated, 1001u);
  EXPECT_GE(reference.per_rank[0], 300u);
  for (const std::size_t words : {1u, 64u}) {
    for (const bool hierarchical : {false, true}) {
      SCOPED_TRACE(std::to_string(words) + " words" +
                   (hierarchical ? " hierarchical" : " flat"));
      const Outcome got = run(words, hierarchical);
      EXPECT_EQ(got.calibrated, reference.calibrated);
      EXPECT_EQ(got.epochs, reference.epochs);
      EXPECT_EQ(got.per_rank, reference.per_rank);
    }
  }
}

// EngineResult::local_aggregate costs a frame only when asked for: unset,
// it holds no words; set, the ranks' local aggregates sum elementwise to
// the global aggregate, also when the hierarchy replaces a leader's
// snapshot with its node's.
TEST(EngineEquivalence, LocalAggregatesAreKeptOnlyWhenAsked) {
  constexpr std::size_t kWords = 16;
  const engine::SamplerFactory slot_sampler = [](std::uint64_t v) {
    return [slot = static_cast<std::uint32_t>(v % kWords)](
               epoch::StateFrame& frame) { frame.record(std::span(&slot, 1)); };
  };
  for (const bool keep : {false, true}) {
    mpisim::RuntimeConfig config;
    config.num_ranks = 4;
    config.ranks_per_node = 2;
    config.network = mpisim::NetworkModel::disabled();
    mpisim::Runtime runtime(config);
    std::vector<std::vector<std::uint64_t>> local(4);
    std::vector<std::uint64_t> global;
    runtime.run([&](mpisim::Comm& world) {
      engine::EngineOptions options;
      options.threads_per_rank = 2;
      options.deterministic = true;
      options.virtual_streams = 8;
      options.epoch_base = 40;
      options.epoch_exponent = 0.0;
      options.hierarchical = true;
      options.local_aggregates = keep;
      const auto result = engine::run_epochs(
          &world, kWords, slot_sampler,
          [](const epoch::StateFrame& frame) { return frame.tau() >= 300; },
          options);
      const auto raw = result.local_aggregate.raw();
      local[world.rank()].assign(raw.begin(), raw.end());
      if (world.rank() == 0)
        global.assign(result.aggregate.raw().begin(),
                      result.aggregate.raw().end());
    });
    SCOPED_TRACE(keep ? "kept" : "not kept");
    ASSERT_EQ(global.size(), kWords + 1);
    if (!keep) {
      for (const auto& words : local) EXPECT_TRUE(words.empty());
      continue;
    }
    std::vector<std::uint64_t> sum(kWords + 1, 0);
    for (const auto& words : local) {
      ASSERT_EQ(words.size(), kWords + 1);
      for (std::size_t i = 0; i < words.size(); ++i) sum[i] += words[i];
    }
    EXPECT_EQ(sum, global);
  }
}

TEST(EngineEquivalence, HierarchicalReductionMatchesFlat) {
  const graph::Graph graph = equivalence_graph();
  bc::KadabraOptions flat = deterministic_options(1);
  bc::KadabraOptions hierarchical = deterministic_options(1);
  hierarchical.engine.hierarchical = true;
  const bc::BcResult a =
      bc::kadabra_mpi(graph, flat, /*num_ranks=*/4, /*ranks_per_node=*/1,
                      mpisim::NetworkModel::disabled());
  const bc::BcResult b =
      bc::kadabra_mpi(graph, hierarchical, /*num_ranks=*/4,
                      /*ranks_per_node=*/2, mpisim::NetworkModel::disabled());
  expect_bitwise_equal(a, b, "flat vs hierarchical");
}

// --- §III-B lockstep rounds as an engine configuration ---------------------

// Deterministic + blocking is the "simple" parallelization §III-B rules
// out, and bench/ablation_lockstep runs it as its lockstep column: every
// round adds the same fixed count of samples, nothing is sampled while a
// collective is in flight, and no Ibarrier runs. Checked with the network
// model on, where waits in collectives take real time.
TEST(LockstepConfiguration, RoundsAreFixedAndNeverOverlap) {
  const graph::Graph graph = equivalence_graph();
  bc::KadabraOptions options;
  options.params.epsilon = 0.15;
  options.params.seed = 1234;
  options.engine.threads_per_rank = 2;
  options.engine.epoch_base = 64;
  options.engine.epoch_exponent = 0.0;
  options.engine.deterministic = true;
  options.engine.aggregation = engine::Aggregation::kBlocking;
  const bc::BcResult result =
      bc::kadabra_mpi(graph, options, /*num_ranks=*/4);
  ASSERT_GT(result.epochs, 1u);
  EXPECT_EQ(result.samples_attempted, result.samples);
  EXPECT_EQ(result.phases.seconds(Phase::kBarrier), 0.0);
  EXPECT_EQ(result.samples % result.epochs, 0u);
}

// --- Engine options reach the ported adaptive algorithms -------------------

TEST(EngineOptionsPropagate, MeanDistanceSupportsStrategiesAndHierarchy) {
  const graph::Graph graph =
      graph::largest_component(gen::erdos_renyi(200, 600, 91));
  adaptive::MeanDistanceParams params;
  params.epsilon = 0.15;
  params.engine.aggregation = engine::Aggregation::kBlocking;
  params.engine.hierarchical = true;
  const adaptive::MeanDistanceResult result = adaptive::mean_distance_mpi(
      graph, params, /*num_ranks=*/4, /*ranks_per_node=*/2);
  EXPECT_GT(result.samples, 0u);
  EXPECT_LE(result.half_width, params.epsilon);
}

}  // namespace
}  // namespace distbc
