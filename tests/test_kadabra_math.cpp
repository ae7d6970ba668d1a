// Tests for KADABRA's statistical machinery: omega, the stopping functions
// f and g, the delta calibration, and the stop-condition evaluation - whose
// cached-log fast path must give the verdict of a per-vertex loop over f
// and g, with every Calibration producer filling the log cache.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <random>
#include <utility>
#include <vector>

#include "bc/calibration.hpp"
#include "bc/kadabra.hpp"
#include "bc/kadabra_context.hpp"
#include "bc/kadabra_math.hpp"
#include "engine/streams.hpp"
#include "epoch/state_frame.hpp"
#include "gen/barabasi_albert.hpp"
#include "graph/components.hpp"
#include "mpisim/comm.hpp"
#include "mpisim/runtime.hpp"

namespace distbc::bc {
namespace {

TEST(Omega, GrowsWithAccuracy) {
  const auto loose = compute_omega(10, 0.05, 0.1);
  const auto tight = compute_omega(10, 0.005, 0.1);
  // omega ~ 1/eps^2: two orders of magnitude.
  EXPECT_NEAR(static_cast<double>(tight) / loose, 100.0, 1.0);
}

TEST(Omega, GrowsWithDiameterLogarithmically) {
  const auto small = compute_omega(8, 0.01, 0.1);
  const auto big = compute_omega(1024, 0.01, 0.1);
  EXPECT_GT(big, small);
  // floor(log2(VD-2)) contributes ~7 extra units over the base.
  EXPECT_LT(static_cast<double>(big) / small, 5.0);
}

TEST(Omega, HandlesTinyDiameters) {
  // VD <= 2 must not underflow the log.
  EXPECT_GT(compute_omega(1, 0.01, 0.1), 0u);
  EXPECT_GT(compute_omega(2, 0.01, 0.1), 0u);
  EXPECT_GE(compute_omega(3, 0.01, 0.1), compute_omega(2, 0.01, 0.1));
}

TEST(Omega, MatchesClosedForm) {
  const double eps = 0.01;
  const double delta = 0.1;
  const std::uint32_t vd = 34;
  const double expected = 0.5 / (eps * eps) *
                          (std::floor(std::log2(vd - 2)) + 1.0 +
                           std::log(2.0 / delta));
  EXPECT_EQ(compute_omega(vd, eps, delta),
            static_cast<std::uint64_t>(std::ceil(expected)));
}

TEST(Omega, DiameterBucketIsFloorLog2OfVdMinusTwo) {
  const std::vector<std::pair<std::uint32_t, std::uint32_t>> pinned = {
      {0, 0}, {1, 0}, {2, 0}, {3, 0}, {4, 1},
      {5, 1}, {6, 2}, {10, 3}, {1026, 10}};
  for (const auto& [vd, bucket] : pinned)
    EXPECT_EQ(diameter_bucket(vd), bucket) << "VD=" << vd;
  // The integer bucket equals the floating-point expression the budgets
  // were written with, so omega and the RK budget keep every bit.
  const auto matches_float = [](std::uint32_t vd) {
    return static_cast<double>(diameter_bucket(vd)) ==
           std::floor(std::log2(static_cast<double>(vd - 2)));
  };
  for (std::uint32_t vd = 3; vd < 5000; ++vd)
    EXPECT_TRUE(matches_float(vd)) << "VD=" << vd;
  for (int k = 12; k < 32; ++k) {
    const std::uint32_t power = std::uint32_t{1} << k;
    for (const std::uint32_t vd : {power + 1, power + 2, power + 3})
      EXPECT_TRUE(matches_float(vd)) << "VD=" << vd;
  }
}

TEST(Omega, BudgetFitsExactlyTheUint64Range) {
  EXPECT_TRUE(budget_fits(0.0));
  EXPECT_TRUE(budget_fits(0x1p64 - 2048.0));  // largest double below 2^64
  EXPECT_EQ(budget_samples(0x1p64 - 2048.0), ~std::uint64_t{0} - 2047);
  EXPECT_FALSE(budget_fits(0x1p64));
  EXPECT_FALSE(budget_fits(std::numeric_limits<double>::infinity()));
  EXPECT_FALSE(budget_fits(std::numeric_limits<double>::quiet_NaN()));
  EXPECT_FALSE(budget_fits(-1.0));
  // epsilon = 1e-10 asks for ~1e20 samples; 1e-300 squares to 0.
  EXPECT_FALSE(budget_fits(omega_budget(34, 1e-10, 0.1)));
  EXPECT_FALSE(budget_fits(omega_budget(34, 1e-300, 0.1)));
  EXPECT_TRUE(budget_fits(omega_budget(34, 1e-9, 0.1)));
}

TEST(StoppingF, DecreasesWithMoreSamples) {
  const double omega = 1e6;
  double previous = 1e9;
  for (const std::uint64_t tau : {1000ull, 10000ull, 100000ull, 1000000ull}) {
    const double value = stopping_f(0.01, 0.001, omega, tau);
    EXPECT_LT(value, previous);
    previous = value;
  }
}

TEST(StoppingG, DecreasesWithMoreSamples) {
  const double omega = 1e6;
  double previous = 1e9;
  for (const std::uint64_t tau : {1000ull, 10000ull, 100000ull, 1000000ull}) {
    const double value = stopping_g(0.01, 0.001, omega, tau);
    EXPECT_LT(value, previous);
    previous = value;
  }
}

TEST(StoppingFG, IncreaseWithBetweenness) {
  const double omega = 1e6;
  const std::uint64_t tau = 100000;
  EXPECT_LT(stopping_f(0.001, 0.01, omega, tau),
            stopping_f(0.1, 0.01, omega, tau));
  EXPECT_LT(stopping_g(0.001, 0.01, omega, tau),
            stopping_g(0.1, 0.01, omega, tau));
}

TEST(StoppingFG, IncreaseWithSmallerDelta) {
  const double omega = 1e6;
  const std::uint64_t tau = 100000;
  EXPECT_LT(stopping_f(0.01, 0.01, omega, tau),
            stopping_f(0.01, 1e-8, omega, tau));
  EXPECT_LT(stopping_g(0.01, 0.01, omega, tau),
            stopping_g(0.01, 1e-8, omega, tau));
}

TEST(StoppingFG, ZeroEstimateEdgeValues) {
  // For b~ = 0 the radical in f collapses: f(0) = 0 (an estimate of zero
  // cannot be an overestimate), while g keeps a positive radius via its
  // +1/3 terms (the vertex may merely be unseen so far).
  EXPECT_DOUBLE_EQ(stopping_f(0.0, 0.01, 1e6, 1000), 0.0);
  EXPECT_GT(stopping_g(0.0, 0.01, 1e6, 1000), 0.0);
}

TEST(StoppingFG, GDominatesFForZeroEstimate) {
  // g has the +1/3 terms, so for b~ = 0 it upper-bounds f.
  const double omega = 1e5;
  for (const std::uint64_t tau : {100ull, 1000ull, 10000ull}) {
    EXPECT_GE(stopping_g(0.0, 0.01, omega, tau),
              stopping_f(0.0, 0.01, omega, tau));
  }
}

TEST(Calibration, RespectsBudget) {
  std::vector<std::uint64_t> counts{50, 10, 0, 0, 3};
  const Calibration cal = calibrate(counts, 100, 0.05, 0.1, 0.01);
  EXPECT_LT(cal.budget_used(), 0.1);
  EXPECT_GT(cal.budget_used(), 0.0);
  ASSERT_EQ(cal.delta_l.size(), counts.size());
  for (std::size_t v = 0; v < counts.size(); ++v) {
    EXPECT_GT(cal.delta_l[v], 0.0);
    EXPECT_LT(cal.delta_l[v], 1.0);
    EXPECT_DOUBLE_EQ(cal.delta_l[v], cal.delta_u[v]);
  }
}

TEST(Calibration, HighBetweennessGetsLargerShare) {
  // Vertices that need more samples to converge receive a larger slice of
  // the failure budget (so their confidence radius shrinks faster).
  std::vector<std::uint64_t> counts{90, 0};
  const Calibration cal = calibrate(counts, 100, 0.05, 0.1, 0.01);
  EXPECT_GT(cal.delta_l[0], cal.delta_l[1]);
}

TEST(Calibration, UniformFloorProtectsUnseenVertices) {
  std::vector<std::uint64_t> counts(1000, 0);
  counts[0] = 100;
  const Calibration cal = calibrate(counts, 100, 0.01, 0.1, 0.01);
  // All-zero vertices share the same positive floor-dominated value.
  for (std::size_t v = 2; v < counts.size(); ++v)
    EXPECT_DOUBLE_EQ(cal.delta_l[1], cal.delta_l[v]);
  EXPECT_GE(cal.delta_l[1], 0.01 * 0.1 / (4.0 * 1000));
}

TEST(Calibration, PredictedTauScalesWithEpsilon) {
  std::vector<std::uint64_t> counts{50, 20, 5, 0};
  const Calibration loose = calibrate(counts, 100, 0.1, 0.1, 0.01);
  const Calibration tight = calibrate(counts, 100, 0.01, 0.1, 0.01);
  EXPECT_GT(tight.predicted_tau, loose.predicted_tau);
}

TEST(Context, BeginContextDerivesBudget) {
  KadabraParams params;
  params.epsilon = 0.05;
  params.delta = 0.1;
  const KadabraContext context = begin_context(params, 12);
  EXPECT_EQ(context.omega, compute_omega(12, 0.05, 0.1));
  EXPECT_GT(context.initial_samples, 0u);
  EXPECT_EQ(context.initial_samples, auto_initial_samples(context.omega));
}

TEST(Context, ExplicitInitialSamplesWin) {
  KadabraParams params;
  params.initial_samples = 777;
  const KadabraContext context = begin_context(params, 12);
  EXPECT_EQ(context.initial_samples, 777u);
}

TEST(Context, StopNotSatisfiedOnEmptyState) {
  KadabraParams params;
  params.epsilon = 0.05;
  KadabraContext context = begin_context(params, 10);
  epoch::StateFrame initial(4);
  for (int i = 0; i < 100; ++i) initial.finish_sample();
  finish_calibration(context, initial);

  epoch::StateFrame aggregate(4);
  EXPECT_FALSE(context.stop_satisfied(aggregate));
}

TEST(Context, StopSatisfiedAtOmega) {
  KadabraParams params;
  params.epsilon = 0.05;
  KadabraContext context = begin_context(params, 10);
  epoch::StateFrame initial(4);
  for (int i = 0; i < 100; ++i) initial.finish_sample();
  finish_calibration(context, initial);

  epoch::StateFrame aggregate(4);
  for (std::uint64_t i = 0; i < context.omega; ++i) aggregate.finish_sample();
  EXPECT_TRUE(context.stop_satisfied(aggregate));
}

TEST(Context, StopEventuallySatisfiedBeforeOmegaOnEasyState) {
  // A state where every estimate is 0 converges before omega (g shrinks
  // as 1/tau for zero estimates).
  KadabraParams params;
  params.epsilon = 0.1;
  KadabraContext context = begin_context(params, 8);
  epoch::StateFrame initial(4);
  for (int i = 0; i < 200; ++i) initial.finish_sample();
  finish_calibration(context, initial);

  epoch::StateFrame aggregate(4);
  bool stopped_early = false;
  for (std::uint64_t i = 0; i < context.omega; i += 50) {
    for (int k = 0; k < 50; ++k) aggregate.finish_sample();
    if (context.stop_satisfied(aggregate)) {
      stopped_early = aggregate.tau() < context.omega;
      break;
    }
  }
  EXPECT_TRUE(stopped_early);
}

// --- Stop rule on cached logs ------------------------------------------------

/// The stop rule as a per-vertex loop over stopping_f/stopping_g, which
/// take each share's log themselves.
bool reference_stop(const KadabraContext& context,
                    const epoch::StateFrame& aggregate) {
  const std::uint64_t tau = aggregate.tau();
  if (tau == 0) return false;
  if (tau >= context.omega) return true;
  const auto omega = static_cast<double>(context.omega);
  const Calibration& cal = context.calibration;
  for (std::uint32_t v = 0; v < aggregate.num_vertices(); ++v) {
    const double b_tilde = static_cast<double>(aggregate.count(v)) /
                           static_cast<double>(tau);
    if (stopping_f(b_tilde, cal.delta_l[v], omega, tau) >=
            context.params.epsilon ||
        stopping_g(b_tilde, cal.delta_u[v], omega, tau) >=
            context.params.epsilon)
      return false;
  }
  return true;
}

/// Every cached log is bitwise log(1 / share).
void expect_logs_cached(const Calibration& cal) {
  ASSERT_TRUE(cal.logs_cached());
  for (std::size_t v = 0; v < cal.delta_l.size(); ++v) {
    EXPECT_EQ(cal.log_inv_delta_l[v], std::log(1.0 / cal.delta_l[v])) << v;
    EXPECT_EQ(cal.log_inv_delta_u[v], std::log(1.0 / cal.delta_u[v])) << v;
  }
}

TEST(StopRule, CachedLogsGiveTheReferenceVerdict) {
  std::mt19937_64 rng(20261017);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  int early_true = 0;
  int early_false = 0;
  for (int trial = 0; trial < 600; ++trial) {
    const auto n = static_cast<std::uint32_t>(1 + rng() % 40);
    KadabraContext context;
    context.omega = 500 + rng() % 50000;
    // Shares spread over ~13 orders of magnitude, budget far below 1.
    Calibration& cal = context.calibration;
    cal.delta_l.resize(n);
    cal.delta_u.resize(n);
    for (std::uint32_t v = 0; v < n; ++v) {
      cal.delta_l[v] = std::exp(-1.0 - 29.0 * unit(rng)) / n;
      cal.delta_u[v] = std::exp(-1.0 - 29.0 * unit(rng)) / n;
    }
    cal.cache_logs();

    // tau: zero, just below omega, at omega, past omega, or anywhere.
    std::uint64_t tau = 1 + rng() % (context.omega - 1);
    switch (trial % 6) {
      case 0: tau = 0; break;
      case 1: tau = context.omega - 1; break;
      case 2: tau = context.omega; break;
      case 3: tau = context.omega + 1 + rng() % 100; break;
      default: break;
    }
    epoch::StateFrame aggregate(n);
    const std::span<std::uint64_t> raw = aggregate.raw();
    for (std::uint32_t v = 0; v < n; ++v)
      raw[v] = rng() % 4 == 0 || tau == 0 ? 0 : rng() % (tau + 1);
    raw[n] = tau;

    // Set epsilon at the worst radius (some vertex fails: >= eps) or one
    // ulp above it (every vertex passes), so the verdict sits on the edge.
    double worst = 0.0;
    if (tau > 0) {
      const auto omega = static_cast<double>(context.omega);
      for (std::uint32_t v = 0; v < n; ++v) {
        const double b_tilde =
            static_cast<double>(raw[v]) / static_cast<double>(tau);
        const double f = stopping_f(b_tilde, cal.delta_l[v], omega, tau);
        const double g = stopping_g(b_tilde, cal.delta_u[v], omega, tau);
        // The shared core on the cached logs is bitwise f and g.
        EXPECT_EQ(stopping_radius(-1.0, b_tilde, cal.log_inv_delta_l[v],
                                  omega, tau),
                  f);
        EXPECT_EQ(stopping_radius(+1.0, b_tilde, cal.log_inv_delta_u[v],
                                  omega, tau),
                  g);
        worst = std::max({worst, f, g});
      }
    }
    context.params.epsilon =
        trial % 2 == 0
            ? worst
            : std::nextafter(worst, std::numeric_limits<double>::infinity());
    const bool verdict = context.stop_satisfied(aggregate);
    EXPECT_EQ(verdict, reference_stop(context, aggregate))
        << "trial " << trial << " n " << n << " tau " << tau << " omega "
        << context.omega;
    if (tau > 0 && tau < context.omega) (verdict ? early_true : early_false)++;
  }
  // Both verdicts occur below omega, not only the budget exit.
  EXPECT_GT(early_true, 50);
  EXPECT_GT(early_false, 50);
}

TEST(StopRule, CalibrateFillsTheLogCache) {
  const std::vector<std::uint64_t> counts = {0, 3, 50, 100, 7, 0, 1};
  const Calibration cal = calibrate(counts, 100, 0.05, 0.1, 0.01);
  expect_logs_cached(cal);

  KadabraParams params;
  params.epsilon = 0.05;
  KadabraContext context = begin_context(params, 10);
  epoch::StateFrame initial(5);
  for (int i = 0; i < 100; ++i) initial.finish_sample();
  finish_calibration(context, initial);
  expect_logs_cached(context.calibration);
}

TEST(StopRule, NonRootRanksReceiveTheRootsLogsByBroadcast) {
  const graph::Graph graph =
      graph::largest_component(gen::barabasi_albert(300, 3, 7));
  KadabraOptions options;
  options.params.epsilon = 0.15;
  options.params.seed = 7;
  options.engine.deterministic = true;
  options.engine.virtual_streams = 4;

  constexpr int kRanks = 4;
  mpisim::RuntimeConfig config;
  config.num_ranks = kRanks;
  config.network = mpisim::NetworkModel::disabled();
  mpisim::Runtime runtime(config);
  std::vector<BcResult> results(kRanks);
  runtime.run([&](mpisim::Comm& world) {
    results[static_cast<std::size_t>(world.rank())] =
        kadabra_run(graph, options, &world);
  });

  const Calibration& root = results[0].warm->context.calibration;
  ASSERT_EQ(root.delta_l.size(), graph.num_vertices());
  expect_logs_cached(root);
  for (int r = 1; r < kRanks; ++r) {
    SCOPED_TRACE("rank " + std::to_string(r));
    const Calibration& cal =
        results[static_cast<std::size_t>(r)].warm->context.calibration;
    // The stop rule's logs, bit for bit; the shares stay at the root.
    EXPECT_TRUE(cal.delta_l.empty());
    EXPECT_EQ(cal.log_inv_delta_l, root.log_inv_delta_l);
    EXPECT_EQ(cal.log_inv_delta_u, root.log_inv_delta_u);
  }
}

TEST(EpochLength, MatchesPaperRule) {
  // n0 = 1000 * (PT)^1.33 (paper §IV-D).
  EXPECT_EQ(engine::epoch_length(1000, 1.33, 1), 1000u);
  const double expected = 1000.0 * std::pow(24.0, 1.33);
  EXPECT_NEAR(static_cast<double>(engine::epoch_length(1000, 1.33, 24)),
              expected, 1.0);
  EXPECT_GT(engine::epoch_length(1000, 1.33, 384),
            engine::epoch_length(1000, 1.33, 24));
}

}  // namespace
}  // namespace distbc::bc
