#include "graph/bfs.hpp"

#include <algorithm>

namespace distbc::graph {

BfsSummary bfs(const Graph& graph, Vertex source, BfsWorkspace& ws) {
  DISTBC_ASSERT(source < graph.num_vertices());
  ws.reset();
  auto& queue = ws.queue();
  queue.push_back(source);
  ws.mark(source, 0);

  BfsSummary summary;
  summary.reached = 1;
  summary.farthest = source;
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const Vertex u = queue[head];
    const std::uint32_t du = ws.dist(u);
    for (const Vertex w : graph.neighbors(u)) {
      if (ws.visited(w)) continue;
      ws.mark(w, du + 1);
      queue.push_back(w);
      ++summary.reached;
      if (du + 1 > summary.eccentricity) {
        summary.eccentricity = du + 1;
        summary.farthest = w;
      }
    }
  }
  return summary;
}

void DirectionOptimizingBfs::run(const Graph& graph, Vertex source) {
  // Switch rules, Beamer et al.'s shape: a growing frontier goes bottom-up
  // once its arcs exceed 1/kBottomUpAlpha of the unreached vertices' arcs,
  // and a level runs bottom-up only while its frontier holds at least
  // n / kTopDownBeta vertices (a bottom-up level sweeps all n stamps).
  // Measured single-thread on a 4-core Xeon, 1,500 sources per graph, with
  // kTopDownBeta = 32; adjacency entries read per source, top-down reading
  // all of them, then alpha = 2 / 4 / 8 / 14:
  //   quick-social (45,526 arcs)  4,631 / 3,255 / 3,234 / 3,234
  //   quick-web    (33,180)       7,474 / 7,696 / 11,299 / 14,889
  //   BA(10000, 3) (59,864)      17,486 / 18,208 / 21,201 / 27,152
  // and us per source (min of 15 reps; graph::bfs, then alpha as above):
  //   quick-social  60 / 16.4 / 16.1 / 16.3 / 21.3
  //   quick-web     67 / 39.5 / 35.4 / 43.3 / 49.9
  // Beamer's alpha = 14 loses on the flatter degree distribution of
  // quick-web; 4 is within noise of the best on both service graphs. At
  // alpha = 4, beta = 16 / 32 / 64 read 4,622 / 3,255 / 3,249 arcs per
  // quick-social source. Road frontiers stay under n / 32, so quick-road
  // and road-pa-proxy at scale 0.1 run every level top-down, in 0.8-0.9x
  // graph::bfs's time per source (one stamp array instead of two).
  constexpr std::uint64_t kBottomUpAlpha = 4;
  constexpr std::uint64_t kTopDownBeta = 32;

  const Vertex n = graph.num_vertices();
  DISTBC_ASSERT(source < n && stamp_.size() == n);
  // A run writes stamps up to base_ + eccentricity < base_ + n.
  if (base_ > UINT32_MAX - n) {
    std::fill(stamp_.begin(), stamp_.end(), 0);
    base_ = 1;
  }
  level_starts_.assign({0, 1});
  order_[0] = source;
  stamp_[source] = base_;
  std::size_t tail = 1;
  std::uint64_t frontier_arcs = graph.degree(source);
  std::uint64_t unreached_arcs = graph.num_arcs() - frontier_arcs;
  std::size_t previous_frontier = 0;
  bool bottom_up = false;
  for (std::uint32_t next = base_ + 1;; ++next) {
    const std::size_t begin = level_starts_[level_starts_.size() - 2];
    const std::size_t end = tail;
    const std::size_t frontier = end - begin;
    bottom_up = frontier * kTopDownBeta >= n &&
                (bottom_up || (frontier > previous_frontier &&
                               frontier_arcs * kBottomUpAlpha > unreached_arcs));
    previous_frontier = frontier;
    frontier_arcs = 0;
    if (bottom_up) {
      ++bottom_up_levels_;
      const std::uint32_t in_frontier = next - 1;
      for (Vertex v = 0; v < n; ++v) {
        if (stamp_[v] >= base_) continue;
        const std::span<const Vertex> neighbors = graph.neighbors(v);
        const auto parent = std::ranges::find_if(
            neighbors, [&](Vertex w) { return stamp_[w] == in_frontier; });
        arcs_examined_ += static_cast<std::uint64_t>(parent - neighbors.begin());
        if (parent == neighbors.end()) continue;
        ++arcs_examined_;
        stamp_[v] = next;
        order_[tail++] = v;
        frontier_arcs += neighbors.size();
      }
    } else {
      for (std::size_t i = begin; i < end; ++i) {
        const std::span<const Vertex> neighbors = graph.neighbors(order_[i]);
        arcs_examined_ += neighbors.size();
        for (const Vertex w : neighbors) {
          if (stamp_[w] >= base_) continue;
          stamp_[w] = next;
          order_[tail++] = w;
          frontier_arcs += graph.degree(w);
        }
      }
    }
    if (tail == end) break;
    unreached_arcs -= frontier_arcs;
    level_starts_.push_back(tail);
  }
  base_ += num_levels();
}

std::vector<std::uint32_t> bfs_distances(const Graph& graph, Vertex source) {
  BfsWorkspace ws(graph.num_vertices());
  bfs(graph, source, ws);
  std::vector<std::uint32_t> dist(graph.num_vertices(), kUnreachable);
  for (const Vertex v : ws.queue()) dist[v] = ws.dist(v);
  return dist;
}

}  // namespace distbc::graph
