// Shared preparation logic for all KADABRA drivers (sequential,
// shared-memory, MPI): phase 1 (diameter -> omega) and phase 2
// (calibration) produce a KadabraContext; phase 3 (adaptive sampling)
// consults stop_satisfied() on consistent aggregated state frames.
//
// The context reads only the aggregated epoch::StateFrame, so it does not
// depend on how frames crossed the wire.
//
// Cache invariant: stop_satisfied reads each vertex's failure shares only
// as calibration.log_inv_delta_l/u, so those must be log(1 / share) of the
// calibrated shares on every rank that evaluates the rule. calibrate()
// fills them (and so finish_calibration), non-root ranks receive the
// root's by broadcast, and warm states get them from their loader or from
// Session::preload_calibration.
#pragma once

#include <cstdint>
#include <vector>

#include "bc/calibration.hpp"
#include "bc/kadabra_math.hpp"
#include "epoch/state_frame.hpp"
#include "graph/graph.hpp"
#include "support/assert.hpp"

namespace distbc::bc {

struct KadabraContext {
  KadabraParams params;
  std::uint32_t vertex_diameter = 0;
  std::uint64_t omega = 0;
  std::uint64_t initial_samples = 0;
  Calibration calibration;

  /// Evaluates KADABRA's stopping condition on an aggregated state frame.
  /// The frame must be a consistent snapshot (f and g are not monotone).
  /// Reads the shares only through calibration's cached logs, which must
  /// be current (Calibration::cache_logs after every change of shares).
  [[nodiscard]] bool stop_satisfied(
      const epoch::StateFrame& aggregate) const {
    const std::uint64_t tau = aggregate.tau();
    if (tau == 0) return false;
    if (tau >= omega) return true;  // VC-dimension budget exhausted

    const double omega_d = static_cast<double>(omega);
    const std::uint32_t n = aggregate.num_vertices();
    const std::vector<double>& log_l = calibration.log_inv_delta_l;
    const std::vector<double>& log_u = calibration.log_inv_delta_u;
    DISTBC_ASSERT_MSG(log_l.size() == n && log_u.size() == n,
                      "stop rule needs one cached log per vertex");
    for (std::uint32_t v = 0; v < n; ++v) {
      const double b_tilde = static_cast<double>(aggregate.count(v)) /
                             static_cast<double>(tau);
      if (stopping_radius(-1.0, b_tilde, log_l[v], omega_d, tau) >=
          params.epsilon) {
        return false;
      }
      if (stopping_radius(+1.0, b_tilde, log_u[v], omega_d, tau) >=
          params.epsilon) {
        return false;
      }
    }
    return true;
  }
};

/// Phase 1: an upper bound on the vertex diameter of the input graph with
/// the exact value's diameter_bucket, so the omega it sizes is the exact
/// diameter's. iFUB stops as soon as its bracket allows. Returns 0 for a
/// disconnected graph: iFUB's first sweep doubles as the connectivity
/// check, so callers need no BFS of their own (begin_context rejects 0).
[[nodiscard]] std::uint32_t kadabra_vertex_diameter(const graph::Graph& graph);

/// Derives omega and the calibration sample count from the diameter.
[[nodiscard]] KadabraContext begin_context(const KadabraParams& params,
                                           std::uint32_t vertex_diameter);

/// Phase 2 completion: calibrate per-vertex failure shares from the
/// aggregated non-adaptive samples. Zero-copy: the counts are read straight
/// from the frame's payload span.
inline void finish_calibration(KadabraContext& context,
                               const epoch::StateFrame& initial_frame) {
  DISTBC_ASSERT(initial_frame.tau() > 0);
  context.calibration =
      calibrate(initial_frame.payload(), initial_frame.tau(),
                context.params.epsilon, context.params.delta,
                context.params.balancing);
}

}  // namespace distbc::bc
