// dynamic::MutableGraph - a slack-slot CSR adapter that applies validated
// EdgeBatches and hands out immutable graph::Graph snapshots per version.
//
// The immutable CSR the rest of the library runs on (graph::Graph) packs
// adjacency lists back to back; inserting one edge there means rebuilding
// both arrays. This adapter keeps a second, slack-padded copy of the CSR
// (per-vertex capacity = degree + max(2, degree/8), materialized lazily on
// the first apply so a never-mutated MutableGraph costs one shared_ptr):
//
//   * a batch whose every touched vertex still fits its capacity is
//     served IN PLACE - sorted insert/remove inside the vertex's slot
//     range, no allocation touching other vertices;
//   * a batch that overflows any vertex's slots REBUILDS the slack arrays
//     with fresh capacities (the rebuild-on-threshold policy; stats()
//     reports which path each apply took).
//
// After every apply a compact graph::Graph snapshot is rebuilt and
// published as shared_ptr (samplers of the previous version keep their
// snapshot alive) and the version counter advances. graph::fingerprint is
// NOT taken on publish: fingerprint() hashes the snapshot on its first
// read and caches the value until the next publish or revert, so applies
// whose callers never read it (no warm calibration to re-stamp) pay
// nothing for it. Downstream caches (calibrations, warm stores) key on the
// fingerprint and therefore invalidate naturally.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "dynamic/edge_batch.hpp"
#include "graph/graph.hpp"

namespace distbc::dynamic {

class MutableGraph {
 public:
  explicit MutableGraph(std::shared_ptr<const graph::Graph> initial);

  /// The current immutable snapshot (never null; holders of older
  /// snapshots keep them alive independently).
  [[nodiscard]] const std::shared_ptr<const graph::Graph>& snapshot() const {
    return snapshot_;
  }
  /// 0 for the initial graph; advances on every apply() and revert().
  [[nodiscard]] std::uint64_t version() const { return version_; }
  /// graph::fingerprint of the current snapshot, hashed on the first call
  /// after each publish. Not thread-safe (the cache is filled in place);
  /// DynamicState calls it under its mutex.
  [[nodiscard]] std::uint64_t fingerprint() const;

  struct Stats {
    std::uint64_t applies = 0;
    /// Batches served from the slack slots without reallocation.
    std::uint64_t in_place = 0;
    /// Batches that overflowed a vertex's slots and rebuilt the arrays.
    std::uint64_t rebuilds = 0;
    std::uint64_t edges_inserted = 0;
    std::uint64_t edges_deleted = 0;
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }

  /// Applies a validated batch (EdgeBatch::validate against snapshot())
  /// and publishes the next snapshot. Returns true when the batch was
  /// served in place (false = slack rebuild).
  bool apply(const EdgeBatch& batch);

  /// Exactly undoes `batch` (which apply() just applied): deletions are
  /// re-inserted, insertions removed, and the next snapshot published.
  /// The rollback path for batches rejected AFTER application (e.g. a
  /// deletion batch that disconnected a graph with live engines).
  void revert(const EdgeBatch& batch);

 private:
  /// Applies inserts/deletes given as spans (revert passes them swapped).
  bool apply_spans(std::span<const Edge> inserts,
                   std::span<const Edge> deletes);
  /// Builds the slack arrays from the current snapshot (first apply only).
  void materialize();
  /// Re-allocates the slack arrays with post-batch degrees + fresh slack.
  void rebuild(std::span<const Edge> inserts, std::span<const Edge> deletes);
  void insert_arc(graph::Vertex u, graph::Vertex v);
  void remove_arc(graph::Vertex u, graph::Vertex v);
  /// Compacts the slack arrays into a fresh immutable snapshot, advances
  /// the version and drops the cached fingerprint.
  void publish();

  [[nodiscard]] static std::uint32_t slack_for(std::uint32_t degree) {
    return std::max<std::uint32_t>(2, degree / 8);
  }

  std::shared_ptr<const graph::Graph> snapshot_;
  std::uint64_t version_ = 0;
  /// fingerprint() of snapshot_, once read; empty after every publish.
  mutable std::optional<std::uint64_t> fingerprint_;

  // Slack CSR (valid once materialized_): vertex v's neighbors live
  // sorted in slots_[begin_[v], begin_[v] + degree_[v]), with capacity
  // cap_[v] slots before the next vertex's range.
  bool materialized_ = false;
  std::vector<std::uint64_t> begin_;
  std::vector<std::uint32_t> degree_;
  std::vector<std::uint32_t> cap_;
  std::vector<graph::Vertex> slots_;

  Stats stats_;
};

}  // namespace distbc::dynamic
