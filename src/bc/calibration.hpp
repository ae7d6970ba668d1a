// Per-vertex failure-probability calibration (KADABRA phase 2).
//
// KADABRA splits the global failure budget delta into per-vertex shares
// delta_L(x), delta_U(x) with sum < delta; any split is *correct*, but the
// split determines when the stopping condition fires (paper footnote 2).
// Following KADABRA's Lagrange-balancing idea, we equalize the predicted
// stopping time across vertices: with initial estimates b~0 from a
// non-adaptive phase, a Bernstein bound predicts vertex x needs
//   tau(x) ~ (2 b~0(x) + 2 eps / 3) ln(1 / delta(x)) / eps^2
// samples; we binary-search the common deadline tau* whose induced shares
// exp(-eps^2 tau* / (2 b~0(x) + 2 eps/3)) exhaust (1 - lambda) delta, and
// spread the remaining lambda delta uniformly as a floor for vertices the
// initial phase never saw.
//
// The stopping rule reads each share only as log(1 / share). Every
// producer of a Calibration (calibrate, a warm-store load,
// Session::preload_calibration) derives those logs once through
// cache_logs(), and the MPI driver broadcasts the root's logs to the other
// ranks, so no stop check takes a logarithm.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace distbc::bc {

struct Calibration {
  std::vector<double> delta_l;
  std::vector<double> delta_u;
  /// log(1 / delta_l[v]) and log(1 / delta_u[v]), as cache_logs() left
  /// them: valid only while the shares are unchanged since that call.
  std::vector<double> log_inv_delta_l;
  std::vector<double> log_inv_delta_u;
  double predicted_tau = 0.0;  // the balanced deadline tau*

  [[nodiscard]] double budget_used() const;
  /// Derives log_inv_delta_l/u from the current shares. Takes any value
  /// without asserting: validating shares is the consumer's job (see
  /// valid_for).
  void cache_logs();
  /// True when the log caches hold one entry per share.
  [[nodiscard]] bool logs_cached() const {
    return log_inv_delta_l.size() == delta_l.size() &&
           log_inv_delta_u.size() == delta_u.size();
  }
  /// True when every share is finite and in (0, 1) and the shares sum to
  /// less than `delta` - what the stopping rule's guarantee needs.
  [[nodiscard]] bool valid_for(double delta) const;
};

/// `initial_counts` are the per-vertex path counts over `initial_tau`
/// non-adaptive samples (counts[i] <= initial_tau).
[[nodiscard]] Calibration calibrate(std::span<const std::uint64_t> initial_counts,
                                    std::uint64_t initial_tau, double epsilon,
                                    double delta, double balancing);

}  // namespace distbc::bc
