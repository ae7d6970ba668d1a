// KADABRA's statistical machinery (Borassi & Natale, ESA 2016): the static
// sample budget omega and the adaptive stopping functions f and g
// (paper §III-A).
//
// The algorithm stops once, for every vertex x,
//   f(b~(x), delta_L(x), omega, tau) < eps  and
//   g(b~(x), delta_U(x), omega, tau) < eps,
// or unconditionally at tau >= omega (the Riondato-Kornaropoulos
// VC-dimension budget, which alone guarantees the (eps, delta) property).
// f and g are NOT monotone in the sampling state, which is why the check
// must run on a consistent aggregated snapshot (paper §III-B).
#pragma once

#include <cmath>
#include <cstdint>

namespace distbc::bc {

struct KadabraParams {
  double epsilon = 0.01;  // absolute error bound (paper experiments: 0.001)
  double delta = 0.1;     // failure probability (paper: 0.1)
  std::uint64_t seed = 0x5eed;
  /// Non-adaptive samples used to calibrate delta_L/delta_U; 0 = automatic
  /// (scales with omega, see auto_initial_samples()).
  std::uint64_t initial_samples = 0;
  /// Fraction of the failure budget spread uniformly over all vertices
  /// (guards vertices whose initial estimate was 0); the rest is balanced
  /// by predicted stopping time.
  double balancing = 0.01;
};

/// The one implementation of f and g, with the share's logarithm
/// log(1 / delta) already taken: sign = -1 gives f, +1 gives g (negation
/// is exact, so either is bitwise its textbook form). The stop check
/// calls it with the calibration's cached logs; stopping_f/g take the log
/// and call it, so both paths run the same arithmetic in the same order.
[[nodiscard]] inline double stopping_radius(double sign, double b_tilde,
                                            double log_inv_delta,
                                            double omega, std::uint64_t tau) {
  const double tmp = omega / static_cast<double>(tau) + sign / 3.0;
  const double err =
      std::sqrt(tmp * tmp + 2.0 * b_tilde * omega / log_inv_delta) + sign * tmp;
  return err * log_inv_delta / static_cast<double>(tau);
}

/// Upper confidence radius: after tau of at most omega samples, the true
/// betweenness of a vertex with estimate b~ exceeds b~ + f only with
/// probability delta_l.
[[nodiscard]] double stopping_f(double b_tilde, double delta_l, double omega,
                                std::uint64_t tau);

/// Lower confidence radius, symmetric to stopping_f.
[[nodiscard]] double stopping_g(double b_tilde, double delta_u, double omega,
                                std::uint64_t tau);

/// The only way the sample budgets read the vertex diameter VD:
/// floor(log2(VD-2)), and 0 for VD <= 2.
[[nodiscard]] std::uint32_t diameter_bucket(std::uint32_t vertex_diameter);

/// iFUB's stop rule for phase 1 (graph::DiameterSettled): true once every
/// hop diameter in [lower, upper] gives the same diameter_bucket, so the
/// upper end sizes the budgets exactly as the exact diameter would.
[[nodiscard]] bool diameter_bracket_settled(std::uint32_t lower,
                                            std::uint32_t upper);

/// True iff a sample budget computed in double precision is a finite,
/// non-negative count whose ceiling fits a uint64. A tiny epsilon fails
/// it: 1e-10 asks for ~1e20 samples, and one whose square underflows to 0
/// for infinitely many.
[[nodiscard]] bool budget_fits(double budget);

/// ceil(budget) as a sample count; the budget must fit (budget_fits).
[[nodiscard]] std::uint64_t budget_samples(double budget);

/// Static sample budget before rounding: omega = (c/eps^2)
/// (diameter_bucket(VD) + 1 + ln(2/delta)) with c = 0.5 and VD the vertex
/// diameter (hops + 1).
[[nodiscard]] double omega_budget(std::uint32_t vertex_diameter,
                                  double epsilon, double delta);

/// budget_samples(omega_budget(...)): the budget must fit a uint64.
[[nodiscard]] std::uint64_t compute_omega(std::uint32_t vertex_diameter,
                                          double epsilon, double delta);

/// Default calibration sample count for a given budget omega.
[[nodiscard]] std::uint64_t auto_initial_samples(std::uint64_t omega);

}  // namespace distbc::bc
