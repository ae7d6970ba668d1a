// Unified result type for all betweenness algorithms in the library:
// exact (Brandes), fixed sampling (RK), and the KADABRA variants.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "engine/engine.hpp"
#include "epoch/state_frame.hpp"
#include "graph/graph.hpp"
#include "support/timer.hpp"

namespace distbc::bc {

struct KadabraWarmState;  // bc/kadabra.hpp

struct BcResult {
  /// Normalized betweenness per vertex: exact values or estimates b~.
  std::vector<double> scores;

  // --- Sampling statistics (zero for exact algorithms) -------------------
  std::uint64_t samples = 0;          // tau at termination
  /// Samples attempted across all threads/ranks, including overlap samples
  /// never aggregated (>= samples); drives the Figure 3b rate metric.
  std::uint64_t samples_attempted = 0;
  std::uint64_t epochs = 0;           // aggregation rounds
  /// KADABRA: whether the stopping rule (omega included) or the epoch cap
  /// ended the adaptive phase.
  engine::StopReason stop_reason = engine::StopReason::kRule;
  std::uint64_t omega = 0;            // static budget
  std::uint32_t vertex_diameter = 0;  // VD used for omega

  // --- Timing -------------------------------------------------------------
  double total_seconds = 0.0;
  double adaptive_seconds = 0.0;  // adaptive-sampling phase only
  PhaseTimer phases;              // thread-zero/rank-zero phase windows

  // --- Communication (MPI variants only) ----------------------------------
  /// Payload moved by aggregations, per collective (elementwise
  /// reductions, wire-image merge reductions, window/p2p traffic,
  /// broadcasts); total() is the sum.
  mpisim::CommVolume comm_volume;

  /// Engine configuration the adaptive phase actually ran with (the
  /// caller's request with the first-stop-check pacing applied).
  engine::EngineOptions engine_used;

  /// The k highest (vertex, score) pairs, descending by score (ties by
  /// vertex id) - filled on *every* rank when KadabraOptions::top_k > 0,
  /// delivered without moving any full |V| frame (bc/topk.hpp).
  std::vector<std::pair<graph::Vertex, double>> top_k_pairs;

  /// The phases-1-2 state this KADABRA run used (computed or passed in);
  /// feed it back through KadabraOptions::warm_start to skip diameter and
  /// calibration on a repeat run. Null for non-KADABRA algorithms.
  std::shared_ptr<const KadabraWarmState> warm;

  /// Indices of the k highest-scoring vertices, descending by score.
  [[nodiscard]] std::vector<graph::Vertex> top_k(std::size_t k) const;

  /// Largest absolute difference to another score vector (same graph).
  [[nodiscard]] double max_abs_difference(const BcResult& other) const;
};

/// Extracts normalized betweenness estimates b~(v) = c~(v) / tau from an
/// aggregated state frame, shared by every sampling driver.
inline void scores_from_frame(const epoch::StateFrame& aggregate,
                              std::vector<double>& scores) {
  const std::uint32_t n = aggregate.num_vertices();
  scores.assign(n, 0.0);
  const auto tau = static_cast<double>(aggregate.tau());
  if (tau == 0.0) return;
  for (std::uint32_t v = 0; v < n; ++v)
    scores[v] = static_cast<double>(aggregate.count(v)) / tau;
}

}  // namespace distbc::bc
