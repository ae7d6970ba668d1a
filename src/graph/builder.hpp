// Edge-list accumulator that normalizes raw input into a CSR Graph.
//
// Generators and file readers emit arbitrary (u, v) pairs: duplicates, self
// loops, and both orientations may appear. Builder::finish() removes self
// loops, deduplicates, symmetrizes, and sorts adjacency lists, producing a
// canonical simple undirected graph.
//
// finish() is a counting build (after the GAP Benchmark Suite's builder):
// it counts both arcs of every non-loop edge into the offsets, scatters the
// arcs into one adjacency array, releases the edge buffer, then sorts each
// list on its own, drops repeated neighbours and compacts lists and offsets
// in place. Its peak is the 8 B/edge buffer plus the 8 B/edge adjacency
// array - 16 B per input edge, plus 16 B per vertex for the offsets and the
// scatter cursors - and never a materialized array of (u, v) arc pairs.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "graph/graph.hpp"

namespace distbc::graph {

class Builder {
 public:
  explicit Builder(Vertex num_vertices) : num_vertices_(num_vertices) {}

  /// Adds an undirected edge {u, v}. Self loops are dropped at finish().
  void add_edge(Vertex u, Vertex v) {
    DISTBC_ASSERT(u < num_vertices_ && v < num_vertices_);
    edges_.emplace_back(u, v);
  }

  void reserve(std::size_t edges) { edges_.reserve(edges); }

  [[nodiscard]] std::size_t pending_edges() const { return edges_.size(); }

  /// Builds the canonical graph and releases the edge buffer.
  [[nodiscard]] Graph finish();

 private:
  Vertex num_vertices_;
  std::vector<std::pair<Vertex, Vertex>> edges_;
};

/// Convenience: build a graph directly from an initializer-style edge list.
[[nodiscard]] Graph from_edges(
    Vertex num_vertices, const std::vector<std::pair<Vertex, Vertex>>& edges);

/// Returns the induced subgraph on `keep` (ids are remapped to 0..k-1 in the
/// order they appear in `keep`). Writes the renamed CSR directly: it counts
/// each kept vertex's kept neighbours, then copies their new ids, sorting a
/// list only when `keep` is not ascending. largest_component passes
/// ascending ids; the reorderings pass a permutation.
[[nodiscard]] Graph induced_subgraph(const Graph& graph,
                                     const std::vector<Vertex>& keep);

}  // namespace distbc::graph
