// Adaptive estimation of harmonic closeness centrality for all vertices -
// a third algorithm on the unified epoch-sampling engine, with a
// *per-vertex* stopping rule like KADABRA's (in contrast to the scalar rule
// of mean_distance), demonstrating that the framework accommodates both.
//
// Estimator (Eppstein-Wang style): sample a uniform source s, run one BFS,
// and credit every vertex v with 1 / d(s, v). The BFS is
// graph::DirectionOptimizingBfs: on low-diameter graphs its bottom-up
// middle levels read a fraction of the arcs (quick-social: ~3.2k of 45.5k
// per source). A credit depends only on d(s, v) and frames add integers,
// so the frames equal a top-down BFS's bit for bit. The expectation of the
// credit at v is its normalized harmonic closeness
//   h(v) = (1/(n-1)) sum_{u != v} 1 / d(u, v)
// up to the n/(n-1) sampling factor handled at extraction. Credits and
// their squares are accumulated in fixed point (2^-20), so they fill the
// payload of the same flat epoch::StateFrame betweenness uses and
// aggregate by the same elementwise sum. Stopping is adaptive: for each
// vertex the tighter of the Hoeffding radius (credits lie in [0, 1]) and
// the empirical-Bernstein radius (which exploits the observed per-vertex
// variance) must drop below epsilon - low-variance vertices release the
// condition long before the worst-case bound.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "engine/engine.hpp"
#include "epoch/state_frame.hpp"
#include "graph/bfs.hpp"
#include "graph/graph.hpp"
#include "mpisim/comm.hpp"

namespace distbc::adaptive {

// --- The closeness layout of an epoch::StateFrame -------------------------
//
// [credit sums (n) | squared-credit sums (n) | sources], in fixed point (a
// credit of 1 is kCreditOne). A BFS source reaches every vertex of the
// (connected) graph, so these frames are dense by nature: once a source is
// in, the engine's image encoder (epoch::append_image) picks the dense
// image.

inline constexpr double kCreditOne = 1048576.0;  // 2^20

/// Payload words of a closeness frame over `num_vertices` vertices.
[[nodiscard]] constexpr std::size_t closeness_words(
    std::uint32_t num_vertices) {
  return 2 * static_cast<std::size_t>(num_vertices);
}

/// Adds the credit 1 / distance for (source, v) to every v in `vertices` -
/// one BFS level, which shares its distance. Converted to fixed point once
/// per level; the integer sums do not depend on order. The caller counts
/// the source with frame.finish_sample() once all its levels are in.
inline void add_credit(epoch::StateFrame& frame,
                       std::span<const std::uint32_t> vertices,
                       double credit) {
  const std::span<std::uint64_t> payload = frame.payload();
  const std::size_t n = payload.size() / 2;
  const auto fixed = static_cast<std::uint64_t>(credit * kCreditOne);
  const auto fixed_sq =
      static_cast<std::uint64_t>(credit * credit * kCreditOne);
  for (const std::uint32_t v : vertices) {
    payload[v] += fixed;
    payload[n + v] += fixed_sq;
  }
}

[[nodiscard]] inline double credit_sum(const epoch::StateFrame& frame,
                                       std::uint32_t v) {
  return static_cast<double>(frame.payload()[v]) / kCreditOne;
}

[[nodiscard]] inline double credit_sq_sum(const epoch::StateFrame& frame,
                                          std::uint32_t v) {
  const std::span<const std::uint64_t> payload = frame.payload();
  return static_cast<double>(payload[payload.size() / 2 + v]) / kCreditOne;
}

/// Biased per-vertex sample variance of the credit at v over the frame's
/// tau() sources.
[[nodiscard]] inline double credit_variance(const epoch::StateFrame& frame,
                                            std::uint32_t v) {
  const std::uint64_t n = frame.tau();
  if (n < 2) return 0.25;  // worst case for a [0,1] variable
  const double mean = credit_sum(frame, v) / static_cast<double>(n);
  return std::max(0.0, credit_sq_sum(frame, v) / static_cast<double>(n) -
                           mean * mean);
}

struct ClosenessParams {
  double epsilon = 0.05;  // additive error on normalized harmonic closeness
  double delta = 0.1;
  std::uint64_t seed = 0x5eed;
  /// Epoch-engine configuration: threads per rank, aggregation strategy
  /// (§IV-F), hierarchical reduction (§IV-E), epoch-length rule - the
  /// same knobs as the KADABRA backends, for free via the shared engine.
  engine::EngineOptions engine;
  /// Skip the rank-0 connectivity assertion: the caller (api::Session)
  /// already validated it and turned failure into a status instead of an
  /// abort.
  bool assume_connected = false;
};

struct ClosenessResult {
  std::vector<double> scores;  // normalized harmonic closeness estimates
  std::uint64_t samples = 0;   // BFS sources taken
  std::uint64_t epochs = 0;
  engine::StopReason stop_reason = engine::StopReason::kRule;
  double total_seconds = 0.0;
  /// Engine phase windows and per-collective bytes moved (valid at world
  /// rank 0, like scores) - the same observability surface BcResult has,
  /// feeding the unified api::Result.
  PhaseTimer phases;
  mpisim::CommVolume comm_volume;
  /// Engine configuration the run actually used.
  engine::EngineOptions engine_used;

  [[nodiscard]] std::vector<graph::Vertex> top_k(std::size_t k) const;
};

/// Worst-case (Hoeffding) source count after which the rule must fire,
/// before rounding: ln(2n/delta) / (2 eps^2).
[[nodiscard]] double closeness_sample_budget(std::uint32_t num_vertices,
                                             double epsilon, double delta);

/// closeness_sample_budget rounded up; the budget must fit a uint64
/// (bc::budget_fits). Exposed for tests.
[[nodiscard]] std::uint64_t closeness_sample_bound(std::uint32_t num_vertices,
                                                   double epsilon,
                                                   double delta);

/// One closeness sample from `source`: a direction-optimizing BFS that
/// credits 1 / d(source, v) to every reached v != source, then counts the
/// source. Exposed for the kernel bench.
void credit_source(const graph::Graph& graph, graph::Vertex source,
                   graph::DirectionOptimizingBfs& bfs,
                   epoch::StateFrame& frame);

/// Per-rank driver (result valid at world rank 0); connected graphs only.
[[nodiscard]] ClosenessResult closeness_rank(const graph::Graph& graph,
                                             const ClosenessParams& params,
                                             mpisim::Comm& world);

[[nodiscard]] ClosenessResult closeness_mpi(const graph::Graph& graph,
                                            const ClosenessParams& params,
                                            int num_ranks,
                                            int ranks_per_node = 1,
                                            mpisim::NetworkModel network = {});

}  // namespace distbc::adaptive
