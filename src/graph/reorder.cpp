#include "graph/reorder.hpp"

#include <algorithm>
#include <numeric>

#include "graph/bfs.hpp"
#include "graph/builder.hpp"

namespace distbc::graph {

namespace {

ReorderedGraph apply_order(const Graph& graph,
                           std::vector<Vertex> new_to_old) {
  DISTBC_ASSERT(new_to_old.size() == graph.num_vertices());
  ReorderedGraph result;
  result.new_to_old = std::move(new_to_old);
  result.old_to_new.assign(graph.num_vertices(), kInvalidVertex);
  for (Vertex new_id = 0; new_id < graph.num_vertices(); ++new_id)
    result.old_to_new[result.new_to_old[new_id]] = new_id;

  result.graph = induced_subgraph(graph, result.new_to_old);
  return result;
}

}  // namespace

std::vector<double> ReorderedGraph::scores_to_original(
    const std::vector<double>& scores) const {
  DISTBC_ASSERT(scores.size() == new_to_old.size());
  std::vector<double> original(scores.size());
  for (std::size_t new_id = 0; new_id < scores.size(); ++new_id)
    original[new_to_old[new_id]] = scores[new_id];
  return original;
}

ReorderedGraph sort_by_degree(const Graph& graph) {
  std::vector<Vertex> order(graph.num_vertices());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](Vertex a, Vertex b) {
    return graph.degree(a) > graph.degree(b);
  });
  return apply_order(graph, std::move(order));
}

ReorderedGraph sort_by_bfs(const Graph& graph) {
  std::vector<Vertex> order;
  order.reserve(graph.num_vertices());
  if (graph.num_vertices() > 0) {
    Vertex start = 0;
    for (Vertex v = 1; v < graph.num_vertices(); ++v)
      if (graph.degree(v) > graph.degree(start)) start = v;
    BfsWorkspace ws(graph.num_vertices());
    bfs(graph, start, ws);
    order = ws.queue();  // BFS visit order
    // Append vertices of other components in original order.
    std::vector<bool> placed(graph.num_vertices(), false);
    for (const Vertex v : order) placed[v] = true;
    for (Vertex v = 0; v < graph.num_vertices(); ++v)
      if (!placed[v]) order.push_back(v);
  }
  return apply_order(graph, std::move(order));
}

}  // namespace distbc::graph
