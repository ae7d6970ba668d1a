// Graph serialization: SNAP/KONECT-style text edge lists and a fast binary
// format for caching generated instances between bench runs.
#pragma once

#include <string>

#include "graph/graph.hpp"

namespace distbc::graph {

/// Reads a whitespace-separated edge list ("u v" per line). Lines starting
/// with '#' or '%' are comments (SNAP and KONECT conventions respectively).
/// Vertex ids may be arbitrary non-negative integers; they are compacted.
[[nodiscard]] Graph read_edge_list(const std::string& path);

/// Writes "u v" lines, one per undirected edge, with a '#' header.
void write_edge_list(const Graph& graph, const std::string& path);

/// Binary CSR snapshot (magic + counts + raw arrays, little-endian).
void write_binary(const Graph& graph, const std::string& path);
/// Reads a write_binary() snapshot. Throws std::runtime_error on a file
/// whose size disagrees with its header or whose CSR breaks a Graph
/// invariant: offsets not monotone from 0 to the arc count, neighbor ids
/// out of range, self-loops, unsorted or parallel arcs, or an arc without
/// its reverse.
[[nodiscard]] Graph read_binary(const std::string& path);

}  // namespace distbc::graph
