// Breadth-first search kernels with O(1)-reset workspaces.
//
// Sampling-based betweenness takes millions of BFS-like probes; clearing a
// |V|-sized array per probe would dominate the runtime (the paper relies on
// samples costing < 10 ms on billion-edge graphs). Workspaces therefore use
// generation stamps: an entry is valid only if its stamp equals the current
// generation, and reset is a single counter increment.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.hpp"

namespace distbc::graph {

/// Reusable BFS scratch space for one thread.
class BfsWorkspace {
 public:
  explicit BfsWorkspace(Vertex num_vertices)
      : stamp_(num_vertices, 0), dist_(num_vertices, 0) {
    queue_.reserve(num_vertices);
  }

  /// Invalidate all previous marks in O(1).
  void reset() {
    ++generation_;
    queue_.clear();
    if (generation_ == 0) {  // stamp wraparound: do the rare full clear
      std::fill(stamp_.begin(), stamp_.end(), 0);
      generation_ = 1;
    }
  }

  [[nodiscard]] bool visited(Vertex v) const {
    return stamp_[v] == generation_;
  }
  void mark(Vertex v, std::uint32_t dist) {
    stamp_[v] = generation_;
    dist_[v] = dist;
  }
  [[nodiscard]] std::uint32_t dist(Vertex v) const { return dist_[v]; }

  std::vector<Vertex>& queue() { return queue_; }

 private:
  std::vector<std::uint32_t> stamp_;
  std::uint32_t generation_ = 0;
  std::vector<std::uint32_t> dist_;
  std::vector<Vertex> queue_;
};

struct BfsSummary {
  std::uint32_t eccentricity = 0;  // max distance reached from the source
  std::uint64_t reached = 0;       // vertices reached (including the source)
  Vertex farthest = kInvalidVertex;  // one vertex at maximum distance
};

/// Full BFS from `source`; distances stay in `ws` until its next reset.
BfsSummary bfs(const Graph& graph, Vertex source, BfsWorkspace& ws);

/// Distance-only BFS that picks its direction level by level (Beamer,
/// Asanovic, Patterson, "Direction-Optimizing Breadth-First Search",
/// SC'12). Small frontiers expand top-down. Once a frontier's arcs
/// outweigh 1/kBottomUpAlpha of the unreached vertices' arcs, levels run
/// bottom-up: every unreached vertex scans its neighbours and stops at the
/// first one in the frontier. It reports which vertices sit at which
/// distance, in no fixed order within a level - all a consumer that reads
/// only d(source, v) needs (the closeness sampler). graph::bfs stays
/// top-down: iFUB reads its `farthest` vertex and in-level queue order.
class DirectionOptimizingBfs {
 public:
  explicit DirectionOptimizingBfs(Vertex num_vertices)
      : stamp_(num_vertices, 0), order_(num_vertices) {}

  /// Full BFS from `source`; levels stay valid until the next run.
  void run(const Graph& graph, Vertex source);

  /// Levels 0..num_levels()-1 (the eccentricity of the source, plus one).
  [[nodiscard]] std::uint32_t num_levels() const {
    return static_cast<std::uint32_t>(level_starts_.size()) - 1;
  }
  /// The vertices at distance d from the last run's source.
  [[nodiscard]] std::span<const Vertex> level(std::uint32_t d) const {
    return std::span(order_).subspan(level_starts_[d],
                                     level_starts_[d + 1] - level_starts_[d]);
  }

  /// Work counters summed over every run: adjacency entries read, and
  /// levels expanded bottom-up. Deterministic, for tests and benches.
  [[nodiscard]] std::uint64_t arcs_examined() const { return arcs_examined_; }
  [[nodiscard]] std::uint64_t bottom_up_levels() const {
    return bottom_up_levels_;
  }

 private:
  /// base_ + d for a vertex reached at distance d in the current run;
  /// anything below base_ is unreached. A run advances base_ past its own
  /// stamps, so reset is O(1) like BfsWorkspace's.
  std::vector<std::uint32_t> stamp_;
  std::uint32_t base_ = 1;
  std::vector<Vertex> order_;
  std::vector<std::size_t> level_starts_{0};
  std::uint64_t arcs_examined_ = 0;
  std::uint64_t bottom_up_levels_ = 0;
};

/// Convenience wrapper producing a dense distance vector
/// (kUnreachable for vertices in other components).
inline constexpr std::uint32_t kUnreachable = 0xffffffffu;
std::vector<std::uint32_t> bfs_distances(const Graph& graph, Vertex source);

}  // namespace distbc::graph
