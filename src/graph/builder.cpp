#include "graph/builder.hpp"

#include <algorithm>

namespace distbc::graph {

namespace {

/// Turns per-vertex counts in offsets[v + 1] into CSR offsets.
void prefix_sum(std::vector<EdgeId>& offsets) {
  for (std::size_t i = 1; i < offsets.size(); ++i) offsets[i] += offsets[i - 1];
}

}  // namespace

Graph Builder::finish() {
  const std::size_t n = num_vertices_;

  // Count both arcs of every edge that is not a self loop.
  std::vector<EdgeId> offsets(n + 1, 0);
  for (const auto& [u, v] : edges_) {
    if (u == v) continue;
    ++offsets[u + 1];
    ++offsets[v + 1];
  }
  prefix_sum(offsets);

  // Scatter the arcs into their lists; `cursor` is each list's next slot.
  std::vector<Vertex> adjacency(offsets[n]);
  {
    std::vector<EdgeId> cursor(offsets.begin(), offsets.end() - 1);
    for (const auto& [u, v] : edges_) {
      if (u == v) continue;
      adjacency[cursor[u]++] = v;
      adjacency[cursor[v]++] = u;
    }
  }
  edges_.clear();
  edges_.shrink_to_fit();

  // Sort each list, drop repeated neighbours, and slide it left over the
  // slots earlier lists freed. `begin` keeps list v's old start, since
  // offsets[v] already holds its compacted one.
  EdgeId write = 0;
  EdgeId begin = 0;
  for (std::size_t v = 0; v < n; ++v) {
    const EdgeId end = offsets[v + 1];
    const auto first = adjacency.begin() + static_cast<std::ptrdiff_t>(begin);
    const auto last = adjacency.begin() + static_cast<std::ptrdiff_t>(end);
    std::sort(first, last);
    const auto unique_end = std::unique(first, last);
    if (write != begin)
      std::copy(first, unique_end,
                adjacency.begin() + static_cast<std::ptrdiff_t>(write));
    write += static_cast<EdgeId>(unique_end - first);
    offsets[v + 1] = write;
    begin = end;
  }
  adjacency.resize(write);
  adjacency.shrink_to_fit();

  return Graph(std::move(offsets), std::move(adjacency));
}

Graph from_edges(Vertex num_vertices,
                 const std::vector<std::pair<Vertex, Vertex>>& edges) {
  Builder builder(num_vertices);
  builder.reserve(edges.size());
  for (const auto& [u, v] : edges) builder.add_edge(u, v);
  return builder.finish();
}

Graph induced_subgraph(const Graph& graph, const std::vector<Vertex>& keep) {
  std::vector<Vertex> remap(graph.num_vertices(), kInvalidVertex);
  bool ascending = true;
  for (std::size_t i = 0; i < keep.size(); ++i) {
    DISTBC_ASSERT(keep[i] < graph.num_vertices());
    DISTBC_ASSERT_MSG(remap[keep[i]] == kInvalidVertex,
                      "duplicate vertex in keep list");
    remap[keep[i]] = static_cast<Vertex>(i);
    ascending = ascending && (i == 0 || keep[i - 1] < keep[i]);
  }

  std::vector<EdgeId> offsets(keep.size() + 1, 0);
  for (std::size_t i = 0; i < keep.size(); ++i) {
    for (const Vertex v : graph.neighbors(keep[i]))
      offsets[i + 1] += remap[v] != kInvalidVertex ? 1 : 0;
  }
  prefix_sum(offsets);

  // The source lists are sorted and free of repeats, and an ascending
  // `keep` renames monotonically, so only a reordering needs a sort.
  std::vector<Vertex> adjacency(offsets.back());
  for (std::size_t i = 0; i < keep.size(); ++i) {
    auto out = adjacency.begin() + static_cast<std::ptrdiff_t>(offsets[i]);
    for (const Vertex v : graph.neighbors(keep[i]))
      if (remap[v] != kInvalidVertex) *out++ = remap[v];
    if (!ascending)
      std::sort(adjacency.begin() + static_cast<std::ptrdiff_t>(offsets[i]),
                out);
  }
  return Graph(std::move(offsets), std::move(adjacency));
}

}  // namespace distbc::graph
