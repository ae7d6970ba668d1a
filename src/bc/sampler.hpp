// Per-thread path sampler: one KADABRA sample = a uniform vertex pair plus
// a uniform shortest path between them, taken via bidirectional BFS.
// Threads own their sampler (workspaces and RNG stream included), so taking
// a sample involves no shared state whatsoever - the property the paper's
// scenario assumes ("a single sample can be taken locally").
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "epoch/state_frame.hpp"
#include "graph/bidirectional_bfs.hpp"
#include "graph/graph.hpp"
#include "support/random.hpp"

namespace distbc::bc {

/// Per-sample tap on a PathSampler: called once per sample, right after
/// the frame record, while the traversal state is still current. `path`
/// holds the drawn path's interior vertices (empty for a disconnected
/// pair), `scanned` the expanded vertices of both BFS sides
/// (graph::BidirectionalBfs::append_scanned). dynamic::SampleLedger
/// records its invalidation sketches here.
class SampleObserver {
 public:
  virtual ~SampleObserver() = default;
  virtual void on_sample(bool connected, std::span<const graph::Vertex> path,
                         std::span<const graph::Vertex> scanned) = 0;
};

class PathSampler {
 public:
  PathSampler(const graph::Graph& graph, Rng rng)
      : graph_(&graph), bfs_(graph.num_vertices()), rng_(rng) {
    scratch_.reserve(64);
  }

  /// Takes one sample and records it into `frame`.
  void sample(epoch::StateFrame& frame) {
    const auto [s64, t64] = rng_.next_distinct_pair(graph_->num_vertices());
    const auto s = static_cast<graph::Vertex>(s64);
    const auto t = static_cast<graph::Vertex>(t64);
    const auto pair = bfs_.run(*graph_, s, t);
    ++taken_;
    scratch_.clear();
    if (pair.connected) {
      bfs_.sample_path(*graph_, rng_, scratch_);
      frame.record(scratch_);
    } else {
      frame.finish_sample();
    }
    if (observer_ != nullptr) {
      scanned_.clear();
      bfs_.append_scanned(scanned_);
      observer_->on_sample(pair.connected, scratch_, scanned_);
    }
  }

  /// Moves the sampler onto another RNG stream, keeping its traversal
  /// workspace: samples continue exactly as a fresh PathSampler on `rng`
  /// would take them.
  void set_stream(Rng rng) { rng_ = rng; }

  /// Installs (or clears, with nullptr) the per-sample observer. The
  /// observer must outlive every subsequent sample.
  void set_observer(SampleObserver* observer) { observer_ = observer; }

  [[nodiscard]] std::uint64_t samples_taken() const { return taken_; }

 private:
  const graph::Graph* graph_;
  graph::BidirectionalBfs bfs_;
  Rng rng_;
  std::vector<graph::Vertex> scratch_;
  std::vector<graph::Vertex> scanned_;
  std::uint64_t taken_ = 0;
  SampleObserver* observer_ = nullptr;
};

}  // namespace distbc::bc
