// Tests for KADABRA's statistical machinery: omega, the stopping functions
// f and g, the delta calibration, and the stop-condition evaluation.
#include <gtest/gtest.h>

#include <cmath>
#include <utility>
#include <vector>

#include "bc/calibration.hpp"
#include "bc/kadabra_context.hpp"
#include "bc/kadabra_math.hpp"
#include "engine/streams.hpp"
#include "epoch/state_frame.hpp"

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
  for (int i = 0; i < 100; ++i) initial.record_empty();
  finish_calibration(context, initial);

  epoch::StateFrame aggregate(4);
  EXPECT_FALSE(context.stop_satisfied(aggregate));
}

TEST(Context, StopSatisfiedAtOmega) {
  KadabraParams params;
  params.epsilon = 0.05;
  KadabraContext context = begin_context(params, 10);
  epoch::StateFrame initial(4);
  for (int i = 0; i < 100; ++i) initial.record_empty();
  finish_calibration(context, initial);

  epoch::StateFrame aggregate(4);
  for (std::uint64_t i = 0; i < context.omega; ++i) aggregate.record_empty();
  EXPECT_TRUE(context.stop_satisfied(aggregate));
}

TEST(Context, StopEventuallySatisfiedBeforeOmegaOnEasyState) {
  // A state where every estimate is 0 converges before omega (g shrinks
  // as 1/tau for zero estimates).
  KadabraParams params;
  params.epsilon = 0.1;
  KadabraContext context = begin_context(params, 8);
  epoch::StateFrame initial(4);
  for (int i = 0; i < 200; ++i) initial.record_empty();
  finish_calibration(context, initial);

  epoch::StateFrame aggregate(4);
  bool stopped_early = false;
  for (std::uint64_t i = 0; i < context.omega; i += 50) {
    for (int k = 0; k < 50; ++k) aggregate.record_empty();
    if (context.stop_satisfied(aggregate)) {
      stopped_early = aggregate.tau() < context.omega;
      break;
    }
  }
  EXPECT_TRUE(stopped_early);
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
