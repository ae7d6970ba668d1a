#include "graph/diameter.hpp"

#include <algorithm>
#include <vector>

#include "support/assert.hpp"

namespace distbc::graph {

namespace {

Vertex max_degree_vertex(const Graph& graph) {
  Vertex best = 0;
  std::uint64_t best_degree = 0;
  for (Vertex v = 0; v < graph.num_vertices(); ++v) {
    if (graph.degree(v) > best_degree) {
      best_degree = graph.degree(v);
      best = v;
    }
  }
  return best;
}

}  // namespace

TwoSweepResult two_sweep(const Graph& graph) {
  DISTBC_ASSERT(graph.num_vertices() > 0);
  BfsWorkspace ws(graph.num_vertices());

  const Vertex start = max_degree_vertex(graph);
  const BfsSummary first = bfs(graph, start, ws);
  const Vertex a = first.farthest;
  const BfsSummary second = bfs(graph, a, ws);

  TwoSweepResult result;
  result.lower_bound = second.eccentricity;
  result.periphery = a;
  result.reached = first.reached;

  // Retrace half of the a->farthest path inside the second BFS tree to find
  // the midpoint: a good iFUB root with small eccentricity.
  Vertex current = second.farthest;
  std::uint32_t depth = second.eccentricity;
  const std::uint32_t half = depth / 2;
  while (depth > half) {
    for (const Vertex w : graph.neighbors(current)) {
      if (ws.visited(w) && ws.dist(w) == depth - 1) {
        current = w;
        break;
      }
    }
    --depth;
  }
  result.midpoint = current;
  return result;
}

DiameterResult ifub_diameter(const Graph& graph) {
  DISTBC_ASSERT(graph.num_vertices() > 0);

  DiameterResult result;
  if (graph.num_vertices() == 1) return result;

  // The first sweep is a full BFS: it doubles as the connectivity check.
  const TwoSweepResult sweep = two_sweep(graph);
  DISTBC_ASSERT_MSG(sweep.reached == graph.num_vertices(),
                    "iFUB requires a connected graph");
  result.num_bfs = 2;

  BfsWorkspace ws(graph.num_vertices());
  const BfsSummary root_bfs = bfs(graph, sweep.midpoint, ws);
  ++result.num_bfs;
  result.root_eccentricity = root_bfs.eccentricity;

  // Bucket vertices of the root BFS tree by level.
  std::vector<std::vector<Vertex>> levels(root_bfs.eccentricity + 1);
  for (const Vertex v : ws.queue()) levels[ws.dist(v)].push_back(v);

  std::uint32_t lower = std::max(sweep.lower_bound, root_bfs.eccentricity);
  // Matching upper bound: D <= 2 ecc(v) for every v. The midpoint root and
  // the max-degree hub are the best candidates for ecc = ceil(D/2); when
  // one of them achieves it, lower == upper immediately - this covers the
  // even-diameter case where the classic lb > 2(i-1) test alone would scan
  // an entire fringe level (e.g. D = 4 complex networks).
  std::uint32_t upper = 2 * root_bfs.eccentricity;
  BfsWorkspace ecc_ws(graph.num_vertices());
  {
    const BfsSummary hub_bfs = bfs(graph, max_degree_vertex(graph), ecc_ws);
    ++result.num_bfs;
    lower = std::max(lower, hub_bfs.eccentricity);
    upper = std::min(upper, 2 * hub_bfs.eccentricity);
  }

  for (std::uint32_t i = root_bfs.eccentricity;
       i > 0 && lower < upper; --i) {
    // All remaining vertices sit at depth <= i, so any path through them has
    // length <= 2i; once the lower bound beats 2(i-1) deeper levels cannot
    // improve it. The same bound lets us abandon the current level early.
    if (lower > 2 * (i - 1)) break;
    for (const Vertex v : levels[i]) {
      const BfsSummary summary = bfs(graph, v, ecc_ws);
      ++result.num_bfs;
      lower = std::max(lower, summary.eccentricity);
      upper = std::min(upper, 2 * summary.eccentricity);
      if (lower > 2 * (i - 1) || lower >= upper) break;
    }
  }
  result.diameter = lower;
  return result;
}

std::uint32_t vertex_diameter(const Graph& graph, bool exact) {
  DISTBC_ASSERT(graph.num_vertices() > 0);
  if (graph.num_vertices() == 1) return 1;
  if (exact) return ifub_diameter(graph).diameter + 1;

  // Cheap upper bound: a shortest path cannot be longer than twice the
  // eccentricity of any vertex; use the two-sweep midpoint which has nearly
  // minimal eccentricity.
  const TwoSweepResult sweep = two_sweep(graph);
  BfsWorkspace ws(graph.num_vertices());
  const BfsSummary summary = bfs(graph, sweep.midpoint, ws);
  return 2 * summary.eccentricity + 1;
}

}  // namespace distbc::graph
