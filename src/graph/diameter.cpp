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

/// two_sweep on the caller's workspaces: `hub_ws` keeps the first sweep's
/// distances from the max-degree hub; `ws` (which may be `hub_ws`) ends up
/// with the second sweep's.
TwoSweepResult two_sweep_into(const Graph& graph, BfsWorkspace& hub_ws,
                              BfsWorkspace& ws) {
  DISTBC_ASSERT(graph.num_vertices() > 0);
  const BfsSummary first = bfs(graph, max_degree_vertex(graph), hub_ws);
  const Vertex a = first.farthest;
  const BfsSummary second = bfs(graph, a, ws);

  TwoSweepResult result;
  result.lower_bound = second.eccentricity;
  result.hub_eccentricity = first.eccentricity;
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

}  // namespace

TwoSweepResult two_sweep(const Graph& graph) {
  BfsWorkspace ws(graph.num_vertices());
  return two_sweep_into(graph, ws, ws);
}

DiameterResult ifub_diameter(const Graph& graph, DiameterSettled settled) {
  DISTBC_ASSERT(graph.num_vertices() > 0);

  DiameterResult result;
  if (graph.num_vertices() == 1) return result;

  // The first sweep is a full BFS: it doubles as the connectivity check.
  BfsWorkspace hub_ws(graph.num_vertices());
  BfsWorkspace ws(graph.num_vertices());
  const TwoSweepResult sweep = two_sweep_into(graph, hub_ws, ws);
  if (sweep.reached != graph.num_vertices()) {
    result.connected = false;
    result.num_bfs = 2;
    return result;
  }
  const BfsSummary root_bfs = bfs(graph, sweep.midpoint, ws);
  result.num_bfs = 3;

  // Bucket vertices of the root BFS tree by level.
  std::vector<std::vector<Vertex>> levels(root_bfs.eccentricity + 1);
  for (const Vertex v : ws.queue()) levels[ws.dist(v)].push_back(v);

  // The bracket lower <= D <= upper: every eccentricity bounds D from
  // below, and twice every eccentricity bounds it from above. The midpoint
  // root and the max-degree hub are the best candidates for
  // ecc = ceil(D/2); when one of them achieves it, the bracket closes
  // before any fringe BFS.
  std::uint32_t lower = std::max(
      {sweep.lower_bound, sweep.hub_eccentricity, root_bfs.eccentricity});
  std::uint32_t upper =
      2 * std::min(root_bfs.eccentricity, sweep.hub_eccentricity);
  const auto done = [&] {
    return lower >= upper || (settled != nullptr && settled(lower, upper));
  };

  // Fringe scan, deepest level first. Two vertices at depth < i are at
  // most 2(i - 1) apart, so once every vertex at depth >= i is known to
  // have an eccentricity of at most `lower`, no shortest path is longer
  // than max(lower, 2(i - 1)). A vertex needs no BFS of its own when the
  // hub already bounds its eccentricity by d(hub, v) + ecc(hub) <= lower.
  BfsWorkspace ecc_ws(graph.num_vertices());
  std::uint32_t depth = root_bfs.eccentricity;
  std::size_t next = 0;
  while (!done()) {
    if (next == levels[depth].size()) {
      upper = std::min(upper, std::max(lower, 2 * (depth - 1)));
      --depth;
      next = 0;
      continue;
    }
    const Vertex v = levels[depth][next++];
    if (hub_ws.dist(v) + sweep.hub_eccentricity <= lower) continue;
    const BfsSummary summary = bfs(graph, v, ecc_ws);
    ++result.num_bfs;
    lower = std::max(lower, summary.eccentricity);
    upper = std::min(upper, 2 * summary.eccentricity);
  }
  result.diameter = upper;
  return result;
}

std::uint32_t vertex_diameter(const Graph& graph, bool exact) {
  DISTBC_ASSERT(graph.num_vertices() > 0);
  if (graph.num_vertices() == 1) return 1;
  if (exact) {
    const DiameterResult result = ifub_diameter(graph);
    DISTBC_ASSERT_MSG(result.connected,
                      "vertex_diameter requires a connected graph");
    return result.diameter + 1;
  }

  // Cheap upper bound: a shortest path cannot be longer than twice the
  // eccentricity of any vertex; use the two-sweep midpoint which has nearly
  // minimal eccentricity.
  const TwoSweepResult sweep = two_sweep(graph);
  BfsWorkspace ws(graph.num_vertices());
  const BfsSummary summary = bfs(graph, sweep.midpoint, ws);
  return 2 * summary.eccentricity + 1;
}

}  // namespace distbc::graph
