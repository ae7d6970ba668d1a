// Diameter computation for connected undirected graphs.
//
// KADABRA's sample-budget bound omega depends on (an upper bound of) the
// vertex diameter VD (= hop diameter + 1 on connected unweighted graphs).
// The paper computes the diameter with the sequential BFS-based method of
// Borassi et al. (its Ref. [6]); we implement the same family:
//   - two_sweep: classic double-BFS lower bound,
//   - ifub_diameter: iFUB, exact, usually a handful of BFS on real graphs.
#pragma once

#include <cstdint>

#include "graph/bfs.hpp"
#include "graph/graph.hpp"

namespace distbc::graph {

struct TwoSweepResult {
  std::uint32_t lower_bound = 0;  // eccentricity found by the second sweep
  Vertex periphery = kInvalidVertex;  // endpoint realizing the bound
  Vertex midpoint = kInvalidVertex;   // middle vertex of the found path
  /// Vertices the first sweep reached: num_vertices() iff connected.
  std::uint64_t reached = 0;
};

/// Double sweep from the max-degree vertex: BFS to the farthest vertex u,
/// BFS again from u. Returns a diameter lower bound and the sweep midpoint
/// (a good iFUB root).
[[nodiscard]] TwoSweepResult two_sweep(const Graph& graph);

struct DiameterResult {
  std::uint32_t diameter = 0;
  std::uint64_t num_bfs = 0;  // BFS invocations spent (measure of work)
  /// Eccentricity of iFUB's root, the two-sweep midpoint: the same BFS
  /// vertex_diameter(graph, false) runs, so 2 * root_eccentricity + 1 is
  /// that 2-approximation without a second pass.
  std::uint32_t root_eccentricity = 0;
};

/// iFUB: exact diameter. Requires a connected graph.
[[nodiscard]] DiameterResult ifub_diameter(const Graph& graph);

/// Upper bound on the vertex diameter (number of vertices on the longest
/// shortest path). `exact` selects iFUB; otherwise a cheap 2-approximation
/// (2 * eccentricity of the two-sweep root + 1) is returned.
[[nodiscard]] std::uint32_t vertex_diameter(const Graph& graph, bool exact);

}  // namespace distbc::graph
