#include "bc/kadabra_context.hpp"

#include "graph/diameter.hpp"

namespace distbc::bc {

std::uint32_t kadabra_vertex_diameter(const graph::Graph& graph) {
  const graph::DiameterResult result =
      graph::ifub_diameter(graph, diameter_bracket_settled);
  return result.connected ? result.diameter + 1 : 0;
}

KadabraContext begin_context(const KadabraParams& params,
                             std::uint32_t vertex_diameter) {
  DISTBC_ASSERT_MSG(vertex_diameter != 0,
                    "KADABRA requires a connected graph (run it on the "
                    "largest connected component)");
  KadabraContext context;
  context.params = params;
  context.vertex_diameter = vertex_diameter;
  context.omega = compute_omega(vertex_diameter, params.epsilon, params.delta);
  context.initial_samples = params.initial_samples != 0
                                ? params.initial_samples
                                : auto_initial_samples(context.omega);
  return context;
}

}  // namespace distbc::bc
