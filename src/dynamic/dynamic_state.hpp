// dynamic::DynamicState - the shared mutable-graph coordinator behind
// api::Session::apply and the service tier's churn path.
//
// One DynamicState owns the MutableGraph and every IncrementalBc engine
// keyed by its statistical parameters. Session replicas in a
// service::SessionPool all bind the SAME DynamicState, so incremental
// query results are bitwise identical across pool sizes by construction
// (one engine instance, one deterministic stream counter) - the pool
// serializes applies against queries, this class serializes everything
// else with one mutex.
//
// apply(batch) is transactional: the batch is validated against the
// current snapshot, applied, and - when it deletes an edge of the
// reference snapshot (below) - the new snapshot is connectivity-checked
// (the sampling estimators require a connected graph); a disconnecting
// batch is reverted and rejected with a typed Status.
//
// Vertex-diameter bounds are kept against a REFERENCE snapshot with this
// invariant: the reference is connected, it is a spanning subgraph of the
// current snapshot, and every live engine's vertex_diameter() is at least
// VD(reference). Deleting no reference edge therefore cannot disconnect
// the graph or lengthen its vertex diameter past VD(reference). A batch's
// bound comes from one of three sources (ApplyReport::bound_path):
//   - none: insert-only batches shrink distances; every cached bound and
//     the reference stay valid untouched;
//   - reference: a deletion batch that deletes no reference edge skips the
//     diameter pass; engines keep their bounds and the report carries the
//     reference's cached bound;
//   - recomputed: any other deletion batch pays one diameter pass,
//     bc::kadabra_vertex_diameter: iFUB stopped once its bracket fits one
//     diameter bucket, so the bound sizes the exact diameter's omega. Its
//     first sweep is the connectivity check (a bound of 0 means it missed
//     a vertex). The report and every engine take the bound, and an
//     accepted batch becomes the reference. Engines recalibrate only when
//     the new bound grows their omega.
// A fresh engine's snapshot becomes the reference too, with that engine's
// vertex_diameter() as its bound; older engines' bounds cover the old
// reference, a subgraph of the new one. query() builds engines only on a
// connected snapshot, so every reference is connected.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <tuple>
#include <vector>

#include "api/status.hpp"
#include "bc/kadabra_math.hpp"
#include "dynamic/edge_batch.hpp"
#include "dynamic/incremental_bc.hpp"
#include "dynamic/mutable_graph.hpp"
#include "graph/graph.hpp"

namespace distbc::dynamic {

/// Which source a batch's vertex-diameter bound came from (see above).
enum class BoundPath : std::uint8_t { kNone, kReference, kRecomputed };

/// Everything one apply() did, for callers to adopt: the new graph
/// version, what the batch contained, the bound policy outcome, and the
/// aggregated ledger accounting across every refreshed engine. The new
/// graph's content fingerprint is not part of the report: apply() never
/// hashes the snapshot, and callers that need the fingerprint (to
/// re-stamp a surviving warm calibration) read DynamicState::fingerprint(),
/// which hashes once per version on demand.
struct ApplyReport {
  api::Status status;
  std::uint64_t version = 0;
  std::uint64_t edges_inserted = 0;
  std::uint64_t edges_deleted = 0;
  bool had_deletes = false;
  /// Whether the slack CSR served the batch without a rebuild.
  bool in_place = false;
  /// Where the bound came from; kNone for insert-only (and invalid)
  /// batches.
  BoundPath bound_path = BoundPath::kNone;
  /// Vertex-diameter upper bound for the NEW graph: the recomputed
  /// bucket-tight bound (kRecomputed), the reference snapshot's cached bound,
  /// which covers every spanning supergraph (kReference), or 0 when the
  /// batch was insert-only and every cached bound stayed valid untouched.
  std::uint32_t diameter_bound = 0;
  /// Wall time spent deciding the bound: the reference-edge check, plus
  /// the diameter pass (which checks connectivity) on kRecomputed.
  double bound_seconds = 0.0;

  // Ledger accounting, summed over every refreshed engine.
  std::uint64_t samples_retained = 0;
  std::uint64_t samples_dirty = 0;
  std::uint64_t samples_resampled = 0;
  std::uint64_t samples_topup = 0;
  std::uint64_t bloom_dirty = 0;
  std::uint64_t engines_refreshed = 0;
  std::uint64_t recalibrations = 0;

  /// Fraction of retained-or-dirty samples the batch invalidated.
  [[nodiscard]] double dirty_fraction() const {
    const std::uint64_t total = samples_retained + samples_dirty;
    return total == 0 ? 0.0
                      : static_cast<double>(samples_dirty) /
                            static_cast<double>(total);
  }
};

class DynamicState {
 public:
  DynamicState(std::shared_ptr<const graph::Graph> initial,
               SketchParams sketch);

  /// Validates, applies, and propagates one batch through every live
  /// engine. On a rejected batch (validation failure, empty batch, or a
  /// deletion batch that disconnects the graph) the state is untouched and
  /// report.status carries the reason.
  [[nodiscard]] ApplyReport apply(EdgeBatch batch);

  struct QueryView {
    api::Status status;
    std::vector<double> scores;
    std::uint64_t samples = 0;
    std::uint32_t epochs = 0;
    /// Ledger records currently held as Bloom sketches.
    std::uint64_t ledger_bloom = 0;
    std::uint32_t vertex_diameter = 0;
    /// True when this call created (and fully ran) the engine.
    bool first_run = false;
  };

  /// Scores from the incremental engine for `params`, creating and running
  /// it on the current snapshot on first use. Creating one on a
  /// disconnected snapshot is rejected with a typed Status.
  [[nodiscard]] QueryView query(const bc::KadabraParams& params);

  [[nodiscard]] std::shared_ptr<const graph::Graph> snapshot() const;
  [[nodiscard]] std::uint64_t version() const;
  /// graph::fingerprint of the current snapshot: hashed on the first
  /// call after an apply (under the mutex), cached until the next one.
  [[nodiscard]] std::uint64_t fingerprint() const;
  [[nodiscard]] MutableGraph::Stats graph_stats() const;
  [[nodiscard]] std::size_t engine_count() const;

 private:
  /// The statistical identity of one engine: (epsilon, delta, seed,
  /// initial_samples, balancing).
  using EngineKey =
      std::tuple<double, double, std::uint64_t, std::uint64_t, double>;
  [[nodiscard]] static EngineKey engine_key(const bc::KadabraParams& params) {
    return {params.epsilon, params.delta, params.seed, params.initial_samples,
            params.balancing};
  }

  /// True when `batch` deletes no edge of the reference snapshot.
  [[nodiscard]] bool covered_by_reference(const EdgeBatch& batch) const;

  mutable std::mutex mutex_;
  MutableGraph graph_;
  SketchParams sketch_;
  std::map<EngineKey, std::unique_ptr<IncrementalBc>> engines_;
  /// The reference snapshot (null until the first fresh engine or accepted
  /// recomputed deletion batch) and its cached vertex-diameter bound.
  std::shared_ptr<const graph::Graph> reference_;
  std::uint32_t reference_bound_ = 0;
};

}  // namespace distbc::dynamic
