// Diameter computation for connected undirected graphs.
//
// KADABRA's sample-budget bound omega depends on (an upper bound of) the
// vertex diameter VD (= hop diameter + 1 on connected unweighted graphs).
// The paper computes the diameter with the sequential BFS-based method of
// Borassi et al. (its Ref. [6]); we implement the same family:
//   - two_sweep: classic double-BFS lower bound,
//   - ifub_diameter: iFUB, exact. A handful of BFS settles high-diameter
//     graphs; an odd diameter D = 2i - 1 also needs every vertex at depth
//     i of its root BFS checked, one BFS each unless the max-degree hub
//     already bounds it. It keeps a hop bracket [lower, upper] around the
//     diameter, and a caller that needs less than the exact value passes
//     a stop rule: the KADABRA drivers read VD only through
//     floor(log2(VD - 2)) (bc::diameter_bucket), so
//     bc::kadabra_vertex_diameter stops as soon as both ends of the
//     bracket share that bucket.
#pragma once

#include <cstdint>

#include "graph/bfs.hpp"
#include "graph/graph.hpp"

namespace distbc::graph {

struct TwoSweepResult {
  std::uint32_t lower_bound = 0;  // eccentricity found by the second sweep
  std::uint32_t hub_eccentricity = 0;  // eccentricity of the first sweep's
                                       // source, the max-degree vertex
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
  /// Hop diameter: exact, unless a stop rule ended the search, in which
  /// case it is the upper end of the bracket the rule accepted.
  std::uint32_t diameter = 0;
  std::uint64_t num_bfs = 0;  // BFS invocations spent (measure of work)
  /// False when the first sweep (a full BFS) missed a vertex: the graph is
  /// disconnected, the search stopped there, and `diameter` is 0.
  bool connected = true;
};

/// A stop rule for ifub_diameter: true once every hop diameter in
/// [lower, upper] is as good as any other to the caller.
using DiameterSettled = bool (*)(std::uint32_t lower, std::uint32_t upper);

/// iFUB: exact diameter of a connected graph; a disconnected one is
/// reported through `connected`, at no extra BFS. With `settled`, the
/// search also ends as soon as settled(lower, upper) holds for its
/// current bracket, and reports that bracket's upper end.
[[nodiscard]] DiameterResult ifub_diameter(const Graph& graph,
                                           DiameterSettled settled = nullptr);

/// Upper bound on the vertex diameter (number of vertices on the longest
/// shortest path) of a connected graph. `exact` selects iFUB; otherwise a
/// cheap 2-approximation (2 * eccentricity of the two-sweep root + 1) is
/// returned.
[[nodiscard]] std::uint32_t vertex_diameter(const Graph& graph, bool exact);

}  // namespace distbc::graph
