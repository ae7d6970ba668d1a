#include "bc/kadabra_context.hpp"

#include "graph/diameter.hpp"

namespace distbc::bc {

std::uint32_t kadabra_vertex_diameter(const graph::Graph& graph) {
  // iFUB's first sweep asserts that the graph is connected.
  return graph::ifub_diameter(graph, diameter_bracket_settled).diameter + 1;
}

KadabraContext begin_context(const KadabraParams& params,
                             std::uint32_t vertex_diameter) {
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
