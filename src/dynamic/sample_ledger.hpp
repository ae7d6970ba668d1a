// dynamic::SampleLedger - per-sample touched-region sketches, the record
// that lets an edge batch invalidate exactly the samples it could have
// changed.
//
// Every adaptive-phase sample is one sampled shortest path between a
// random pair (s, t). The ledger stores, per sample: the drawn path's
// interior vertices (to subtract its contribution from the aggregate), the
// deterministic RNG stream index it was drawn on, and a sketch of the
// sample's SCANNED region - the vertices whose adjacency lists the
// balanced bidirectional BFS expanded, i.e. per side the levels
// [0, completed_levels) (graph::BidirectionalBfs::append_scanned). The
// scanned set, NOT the full discovered ball, is the sound invalidation
// region:
//
//   an edge (u, v) whose insertion or deletion changes the s-t
//   shortest-path set satisfies d(s,u) + 1 + d(v,t) <= d in some
//   orientation; at meeting the two sides' completed levels satisfy
//   L_f + L_b >= d, so either d(s,u) <= L_f - 1 (u scanned by the s side)
//   or d(v,t) <= L_b - 1 (v scanned by the t side). For disconnected
//   pairs the exhausted side scanned its entire component, so any batch
//   edge that could reconnect the pair has an endpoint in the sketch.
//
// A sample whose sketch contains NO endpoint of any batch edge is CLEAN:
// its path and its distance balls are preserved by the batch (the balls
// can neither gain vertices - any new path enters through an unscanned
// endpoint at distance >= L, too far - nor lose them - deleted edges
// touch no ball vertex), so the stored sketch itself stays valid and the
// argument composes across stacked clean batches.
//
// Sketch representation: the exact scanned vertex list, stored in the
// order the traversal reported it, up to SketchParams::exact_cap scanned
// vertices, else a fixed-size Bloom filter. classify() tests an exact list
// by membership only, so it is never sorted. Bloom false positives are
// SAFE by construction - a clean sample misclassified dirty is resampled
// from the new graph, which only costs work, never correctness
// (tests/test_dynamic.cpp pins this property).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "dynamic/edge_batch.hpp"
#include "graph/graph.hpp"

namespace distbc::dynamic {

struct SketchParams {
  /// Scanned sets at or under this size store exact vertex lists;
  /// larger ones fall back to the Bloom filter. 0 = always Bloom.
  std::uint32_t exact_cap = 256;
  /// Bloom filter size in 64-bit words (4 probe bits per vertex).
  std::uint32_t bloom_words = 16;
};

class SampleLedger {
 public:
  SampleLedger() = default;
  explicit SampleLedger(SketchParams params) : params_(params) {}

  void clear() {
    records_.clear();
    bloom_sketches_ = 0;
  }

  [[nodiscard]] std::size_t size() const { return records_.size(); }
  /// Records currently sketched as Bloom filters (vs exact lists).
  [[nodiscard]] std::uint64_t bloom_sketches() const {
    return bloom_sketches_;
  }

  /// Appends the record of a freshly drawn sample. `path` holds the drawn
  /// path's interior vertices (empty for a disconnected pair), `scanned`
  /// the expanded vertices of both BFS sides.
  void record(std::uint64_t stream, bool connected,
              std::span<const graph::Vertex> path,
              std::span<const graph::Vertex> scanned);

  /// Replaces record `index` in place - the resample path: a dirty slot
  /// keeps its position, its contents become the fresh sample's.
  void replace(std::size_t index, std::uint64_t stream, bool connected,
               std::span<const graph::Vertex> path,
               std::span<const graph::Vertex> scanned);

  [[nodiscard]] std::span<const graph::Vertex> path(std::size_t index) const {
    return records_[index].path;
  }
  [[nodiscard]] bool connected(std::size_t index) const {
    return records_[index].connected;
  }
  [[nodiscard]] std::uint64_t stream(std::size_t index) const {
    return records_[index].stream;
  }
  [[nodiscard]] bool is_bloom(std::size_t index) const {
    return records_[index].bloom;
  }
  /// Bytes the ledger currently holds allocated (record array, every
  /// record's lists and filter words). Observability
  /// only: records are stored at their exact size, so this tracks the
  /// live sample set and does not grow with the number of refreshes.
  [[nodiscard]] std::size_t heap_bytes() const;

  struct Classification {
    /// Dirty record indices, ascending.
    std::vector<std::uint32_t> dirty;
    /// Dirty verdicts decided by a Bloom sketch (possible false
    /// positives); exact-sketch verdicts are never spurious.
    std::uint64_t bloom_dirty = 0;
  };

  /// Classifies every record against `batch`: dirty iff the sketch may
  /// contain an endpoint of any batch edge. Costs O(records + batch): the
  /// endpoint set, its bitmap and its Bloom probe positions are built once
  /// per call, then each exact record scans its list against the bitmap
  /// and each Bloom record tests the precomputed probes.
  [[nodiscard]] Classification classify(const EdgeBatch& batch) const;

 private:
  struct Record {
    std::uint64_t stream = 0;
    bool connected = false;
    bool bloom = false;
    std::vector<graph::Vertex> path;     // interior vertices, draw order
    std::vector<graph::Vertex> touched;  // exact sketch: scanned list
    std::vector<std::uint64_t> bits;     // Bloom sketch words
  };

  void fill(Record& record, std::uint64_t stream, bool connected,
            std::span<const graph::Vertex> path,
            std::span<const graph::Vertex> scanned);
  /// Words per Bloom filter (at least one).
  [[nodiscard]] std::uint32_t bloom_words() const;

  SketchParams params_;
  std::vector<Record> records_;
  std::uint64_t bloom_sketches_ = 0;
};

}  // namespace distbc::dynamic
