// Balanced bidirectional BFS with shortest-path counting and uniform
// shortest-path sampling — KADABRA's improvement (ii) over earlier samplers.
//
// For a pair (s, t) the search grows BFS balls from both endpoints,
// expanding the side with the smaller frontier volume, and stops as soon as
// the balls intersect. Shortest-path counts sigma are maintained per side;
// the set M of vertices at a fixed "meeting level" m (dist_s = m,
// dist_t = L - m) tiles all shortest s-t paths, so
//   sigma_st = sum_{v in M} sigma_s(v) * sigma_t(v)
// and a uniformly random shortest path is drawn by picking v in M with
// probability proportional to sigma_s(v) * sigma_t(v), then walking
// backwards to each endpoint weighted by the respective sigma values.
//
// sigma values are doubles: counts can exceed 2^64 on dense low-diameter
// graphs, and only the *ratios* matter for uniform sampling.
//
// Memory layout: the generation stamps and BFS distances of BOTH sides
// share one 16-byte per-vertex record, so a discovery answers the
// membership test, the same-level sigma check, and the cross-side meeting
// check from one cache line; the intersection check is folded into
// discovery instead of rescanning the new level; and each side's frontier
// volume is cached until that side next expands.
//
// The backward walk finds a hop's predecessors by scanning either the
// current vertex's adjacency list or, when that list is much longer, the
// BFS level below with a binary search of the list per vertex; it then
// visits them in id order, which is adjacency order because adjacency
// lists are strictly increasing (graph::Builder, both readers, and
// MutableGraph snapshots guarantee it; Graph::has_edge relies on it too).
//
// None of this changes an output: discovery order, sigma arithmetic, side
// selection, and RNG draws are those of the textbook formulation above,
// bit for bit (tests/test_bidirectional_bfs.cpp pins them with golden
// checksums).
#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.hpp"
#include "support/random.hpp"

namespace distbc::graph {

class BidirectionalBfs {
 public:
  explicit BidirectionalBfs(Vertex num_vertices);

  struct PairResult {
    bool connected = false;
    std::uint32_t distance = 0;  // L = d(s, t), valid if connected
    double num_paths = 0.0;      // sigma_st, valid if connected
  };

  /// Runs the search for one pair. State persists until the next run() and
  /// backs sample_path() and append_scanned(). Requires s != t.
  PairResult run(const Graph& graph, Vertex s, Vertex t);

  /// Draws a uniformly random shortest s-t path from the last run() and
  /// appends its *internal* vertices (endpoints excluded) to `out`.
  /// Must only be called if the last run() returned connected == true.
  void sample_path(const Graph& graph, Rng& rng, std::vector<Vertex>& out);

  /// Appends the last run's SCANNED vertices — both sides' expanded levels
  /// [0, completed_levels), s side first, i.e. every vertex whose
  /// adjacency list the search read — to `out`. Duplicates are possible
  /// across (not within) sides. dynamic::SampleLedger sketches this set.
  void append_scanned(std::vector<Vertex>& out) const;

  /// Vertices touched by the last run (both sides) — proxy for work done.
  [[nodiscard]] std::uint64_t last_touched() const { return touched_; }

 private:
  /// Fused per-vertex record; each side's stamp and dist are adjacent so a
  /// discovery writes them as one 8-byte store.
  struct VisitRecord {
    struct PerSide {
      std::uint32_t stamp;
      std::uint32_t dist;
    };
    PerSide side[2];
  };

  /// Traversal state of one side. Discovery order must be preserved:
  /// sigma accumulation and meeting-set iteration follow it, and double
  /// addition is order-sensitive.
  struct Side {
    std::vector<double> sigma;  // [v]
    std::vector<Vertex> order;  // visited vertices in BFS order
    std::vector<std::uint32_t> level_starts;  // order index where level begins
    std::uint32_t completed_levels = 0;
    /// Degree sum of the current frontier, valid until this side expands.
    std::uint64_t frontier_volume = 0;
    bool volume_valid = false;
  };

  static constexpr int kS = 0;
  static constexpr int kT = 1;

  void reset(Vertex s, Vertex t);
  /// Expands one full level of side `side_index`; returns true if the
  /// balls now intersect (setting connected_/distance_).
  bool expand_level(const Graph& graph, int side_index);
  void collect_meeting_set();
  /// Walks from `v` back to side `side_index`'s root, appending interior
  /// vertices root-ward. Includes `v` itself if it is not the root. Each
  /// hop draws once per predecessor, in adjacency order, however the
  /// predecessors were found.
  void walk_to_root(const Graph& graph, int side_index, Vertex v, Rng& rng,
                    std::vector<Vertex>& out);

  std::vector<VisitRecord> visit_;  // [v], both sides
  Side sides_[2];
  std::uint32_t generation_ = 0;
  Vertex s_ = kInvalidVertex;
  Vertex t_ = kInvalidVertex;
  bool connected_ = false;
  std::uint32_t distance_ = 0;
  std::vector<Vertex> meeting_vertices_;  // M
  std::vector<double> meeting_weights_;   // sigma_s(v) * sigma_t(v)
  std::vector<Vertex> predecessors_;      // walk step's candidates, by id
  double num_paths_ = 0.0;
  std::uint64_t touched_ = 0;
};

}  // namespace distbc::graph
