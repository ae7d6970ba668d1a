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
// their squares are accumulated in fixed-point (2^-20) so frames stay flat
// uint64 arrays and aggregate by elementwise sum, exactly like betweenness
// state frames. Stopping is adaptive: for each vertex the tighter of the
// Hoeffding radius (credits lie in [0, 1]) and the empirical-Bernstein
// radius (which exploits the observed per-vertex variance) must drop below
// epsilon - low-variance vertices release the condition long before the
// worst-case bound.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "comm/substrate.hpp"
#include "engine/engine.hpp"
#include "graph/bfs.hpp"
#include "graph/graph.hpp"

namespace distbc::adaptive {

/// Flat frame layout: [credit sums (n) | squared-credit sums (n) | sources].
/// A BFS source reaches every vertex of the (connected) graph, so these
/// frames are dense by nature: once a source is in, the engine's image
/// encoder (epoch::append_image) picks the dense image.
class ClosenessFrame {
 public:
  static constexpr double kFixedPointOne = 1048576.0;  // 2^20

  ClosenessFrame() = default;
  explicit ClosenessFrame(std::uint32_t num_vertices)
      : data_(2 * static_cast<std::size_t>(num_vertices) + 1, 0),
        num_vertices_(num_vertices) {}

  void clear() { std::fill(data_.begin(), data_.end(), 0); }
  /// A frame with no finished sources holds no credits (samples complete
  /// before frames are merged), so idle frames skip the O(n) sweep.
  [[nodiscard]] bool empty() const { return sources() == 0; }
  void merge(const ClosenessFrame& other) {
    if (other.empty()) return;
    for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += other.data_[i];
  }
  [[nodiscard]] std::span<std::uint64_t> raw() { return data_; }

  /// Adds the credit 1 / distance for (source, v) to every v in
  /// `vertices` - one BFS level, which shares its distance. Converted to
  /// fixed point once per level; the integer sums do not depend on order.
  void add_credit(std::span<const std::uint32_t> vertices, double credit) {
    const auto fixed = static_cast<std::uint64_t>(credit * kFixedPointOne);
    const auto fixed_sq =
        static_cast<std::uint64_t>(credit * credit * kFixedPointOne);
    for (const std::uint32_t v : vertices) {
      data_[v] += fixed;
      data_[num_vertices_ + v] += fixed_sq;
    }
  }
  void add_credit(std::uint32_t v, double credit) {
    add_credit(std::span(&v, 1), credit);
  }
  void finish_source() { ++data_[2 * num_vertices_]; }

  [[nodiscard]] std::uint64_t sources() const {
    return data_[2 * num_vertices_];
  }
  [[nodiscard]] double credit_sum(std::uint32_t v) const {
    return static_cast<double>(data_[v]) / kFixedPointOne;
  }
  [[nodiscard]] double credit_sq_sum(std::uint32_t v) const {
    return static_cast<double>(data_[num_vertices_ + v]) / kFixedPointOne;
  }
  /// Biased per-vertex sample variance of the credit at v.
  [[nodiscard]] double variance(std::uint32_t v) const {
    const std::uint64_t n = sources();
    if (n < 2) return 0.25;  // worst case for a [0,1] variable
    const double mean = credit_sum(v) / static_cast<double>(n);
    return std::max(0.0,
                    credit_sq_sum(v) / static_cast<double>(n) - mean * mean);
  }
  [[nodiscard]] std::uint32_t num_vertices() const { return num_vertices_; }

 private:
  std::vector<std::uint64_t> data_;
  std::uint32_t num_vertices_ = 0;
};

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
  comm::CommVolume comm_volume;
  /// Engine configuration the run actually used.
  engine::EngineOptions engine_used;
  /// The comm substrate the run executed on (comm::substrate_name value).
  std::string substrate_used;

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
                   graph::DirectionOptimizingBfs& bfs, ClosenessFrame& frame);

/// Per-rank driver (result valid at world rank 0); connected graphs only.
[[nodiscard]] ClosenessResult closeness_rank(const graph::Graph& graph,
                                             const ClosenessParams& params,
                                             comm::Substrate& world);

[[nodiscard]] ClosenessResult closeness_mpi(const graph::Graph& graph,
                                            const ClosenessParams& params,
                                            int num_ranks,
                                            int ranks_per_node = 1,
                                            comm::NetworkModel network = {});

}  // namespace distbc::adaptive
