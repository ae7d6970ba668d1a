// Determinism and seed-sensitivity contracts.
//
// Sequential KADABRA and RK are bitwise deterministic for a fixed seed.
// The parallel drivers are *statistically* reproducible but not bitwise
// (overlap sample counts depend on thread timing); what must hold for them
// is seed-independent soundness and stable bookkeeping invariants.
#include <gtest/gtest.h>

#include <cmath>

#include "bc/brandes.hpp"
#include "bc/kadabra.hpp"
#include "bc/rk.hpp"
#include "gen/erdos_renyi.hpp"
#include "gen/rmat.hpp"
#include "graph/components.hpp"

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

TEST(Determinism, FrameRepresentationDoesNotChangeSingleRankResults) {
  // No communicator in play: no image crosses a wire, and deterministic
  // mode pins the sample set, so dense and sparse runs must be bitwise
  // identical.
  const auto graph = test_graph();
  auto run = [&](engine::FrameRep rep) {
    KadabraOptions options;
    options.params.epsilon = 0.1;
    options.params.seed = 80;
    options.engine.threads_per_rank = 2;
    options.engine.deterministic = true;
    options.engine.virtual_streams = 4;
    options.engine.frame_rep = rep;
    return kadabra_shm(graph, options);
  };
  const BcResult dense = run(engine::FrameRep::kDense);
  const BcResult sparse = run(engine::FrameRep::kSparse);
  const BcResult automatic = run(engine::FrameRep::kAuto);
  ASSERT_GT(dense.samples, 0u);
  EXPECT_EQ(dense.samples, sparse.samples);
  EXPECT_EQ(dense.epochs, sparse.epochs);
  ASSERT_EQ(dense.scores.size(), sparse.scores.size());
  for (std::size_t v = 0; v < dense.scores.size(); ++v) {
    EXPECT_EQ(dense.scores[v], sparse.scores[v]) << "vertex " << v;
    EXPECT_EQ(dense.scores[v], automatic.scores[v]) << "vertex " << v;
  }
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

}  // namespace
}  // namespace distbc::bc
