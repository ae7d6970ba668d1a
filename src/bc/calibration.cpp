#include "bc/calibration.hpp"

#include <algorithm>
#include <cmath>

#include "support/assert.hpp"

namespace distbc::bc {

double Calibration::budget_used() const {
  double sum = 0.0;
  for (const double d : delta_l) sum += d;
  for (const double d : delta_u) sum += d;
  return sum;
}

void Calibration::cache_logs() {
  const auto logs = [](const std::vector<double>& shares) {
    std::vector<double> out(shares.size());
    for (std::size_t v = 0; v < shares.size(); ++v)
      out[v] = std::log(1.0 / shares[v]);
    return out;
  };
  log_inv_delta_l = logs(delta_l);
  log_inv_delta_u = logs(delta_u);
}

bool Calibration::valid_for(double delta) const {
  const auto in_range = [](double share) {
    return share > 0.0 && share < 1.0;  // false for NaN
  };
  return std::ranges::all_of(delta_l, in_range) &&
         std::ranges::all_of(delta_u, in_range) && budget_used() < delta;
}

Calibration calibrate(std::span<const std::uint64_t> initial_counts,
                      std::uint64_t initial_tau, double epsilon, double delta,
                      double balancing) {
  DISTBC_ASSERT(initial_tau > 0);
  DISTBC_ASSERT(epsilon > 0.0 && delta > 0.0 && delta < 1.0);
  DISTBC_ASSERT(balancing > 0.0 && balancing < 1.0);
  const std::size_t n = initial_counts.size();
  DISTBC_ASSERT(n > 0);

  // Bernstein denominator per vertex: 2 b~0 + 2 eps / 3.
  std::vector<double> cost(n);
  for (std::size_t v = 0; v < n; ++v) {
    const double b0 =
        static_cast<double>(initial_counts[v]) / static_cast<double>(initial_tau);
    cost[v] = 2.0 * b0 + 2.0 * epsilon / 3.0;
  }

  const double eps_sq = epsilon * epsilon;
  const double adaptive_budget = (1.0 - balancing) * delta;
  auto share_sum = [&](double tau_star) {
    double sum = 0.0;
    for (std::size_t v = 0; v < n; ++v)
      sum += 2.0 * std::exp(-eps_sq * tau_star / cost[v]);
    return sum;
  };

  // share_sum is strictly decreasing in tau*; bracket then bisect.
  double lo = 0.0;
  const double max_cost = 2.0 + 2.0 * epsilon / 3.0;
  double hi = max_cost *
              std::log(2.0 * static_cast<double>(n) / adaptive_budget) /
              eps_sq;
  DISTBC_ASSERT(share_sum(hi) <= adaptive_budget);
  for (int iter = 0; iter < 100; ++iter) {
    const double mid = 0.5 * (lo + hi);
    if (share_sum(mid) > adaptive_budget) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  const double tau_star = hi;  // upper end: guaranteed within budget

  Calibration result;
  result.predicted_tau = tau_star;
  result.delta_l.resize(n);
  result.delta_u.resize(n);
  const double uniform_floor = balancing * delta / (4.0 * static_cast<double>(n));
  for (std::size_t v = 0; v < n; ++v) {
    const double share = std::exp(-eps_sq * tau_star / cost[v]);
    result.delta_l[v] = share + uniform_floor;
    result.delta_u[v] = share + uniform_floor;
  }
  DISTBC_ASSERT_MSG(result.budget_used() < delta,
                    "calibration must respect the total failure budget");
  result.cache_logs();
  return result;
}

}  // namespace distbc::bc
