#include "bc/kadabra_math.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

#include "support/assert.hpp"

namespace distbc::bc {

double stopping_f(double b_tilde, double delta_l, double omega,
                  std::uint64_t tau) {
  DISTBC_ASSERT(tau > 0);
  DISTBC_ASSERT(delta_l > 0.0 && delta_l < 1.0);
  return stopping_radius(-1.0, b_tilde, std::log(1.0 / delta_l), omega, tau);
}

double stopping_g(double b_tilde, double delta_u, double omega,
                  std::uint64_t tau) {
  DISTBC_ASSERT(tau > 0);
  DISTBC_ASSERT(delta_u > 0.0 && delta_u < 1.0);
  return stopping_radius(+1.0, b_tilde, std::log(1.0 / delta_u), omega, tau);
}

std::uint32_t diameter_bucket(std::uint32_t vertex_diameter) {
  return vertex_diameter > 2
             ? static_cast<std::uint32_t>(std::bit_width(vertex_diameter - 2)) -
                   1
             : 0;
}

bool diameter_bracket_settled(std::uint32_t lower, std::uint32_t upper) {
  return diameter_bucket(lower + 1) == diameter_bucket(upper + 1);
}

bool budget_fits(double budget) {
  return std::isfinite(budget) && budget >= 0.0 && budget < 0x1p64;
}

std::uint64_t budget_samples(double budget) {
  DISTBC_ASSERT_MSG(budget_fits(budget),
                    "sample budget does not fit a 64-bit count");
  return static_cast<std::uint64_t>(std::ceil(budget));
}

double omega_budget(std::uint32_t vertex_diameter, double epsilon,
                    double delta) {
  DISTBC_ASSERT(epsilon > 0.0 && epsilon < 1.0);
  DISTBC_ASSERT(delta > 0.0 && delta < 1.0);
  constexpr double kUniversalConstant = 0.5;
  return kUniversalConstant / (epsilon * epsilon) *
         (diameter_bucket(vertex_diameter) + 1.0 + std::log(2.0 / delta));
}

std::uint64_t compute_omega(std::uint32_t vertex_diameter, double epsilon,
                            double delta) {
  return budget_samples(omega_budget(vertex_diameter, epsilon, delta));
}

std::uint64_t auto_initial_samples(std::uint64_t omega) {
  // Enough to see the heavy hitters (whose delta allocation matters most)
  // while remaining a small fraction of the adaptive budget.
  return std::clamp<std::uint64_t>(omega / 64, 512, 65536);
}

}  // namespace distbc::bc
