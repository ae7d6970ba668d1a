// Shared by the failure-rate tests: an (epsilon, delta) guarantee is a
// rate over independent runs, so those tests count misses over many seeds
// and compare the count against a binomial tail instead of asserting that
// one lucky run is within epsilon.
#pragma once

#include <cmath>

namespace distbc {

/// The most violations of an (epsilon, delta) guarantee that `runs`
/// independent runs may show: the smallest k with
/// P(Binomial(runs, delta) > k) <= 1e-6. A true failure rate of delta
/// exceeds it once in a million suites.
inline int allowed_violations(int runs, double delta) {
  double tail = 1.0;  // P(X > k)
  for (int k = 0; k < runs; ++k) {
    tail -= std::exp(std::lgamma(runs + 1.0) - std::lgamma(k + 1.0) -
                     std::lgamma(runs - k + 1.0) + k * std::log(delta) +
                     (runs - k) * std::log1p(-delta));
    if (tail <= 1e-6) return k;
  }
  return runs;
}

}  // namespace distbc
