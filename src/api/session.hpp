// distbc::api::Session - one job-submission facade over every driver.
//
// A Session binds a graph to a runtime/cluster shape (an owned
// mpisim::Runtime built from Config::ranks / ranks_per_node / network) and
// owns the reusable per-(graph, cluster-shape) state that the free
// functions recompute on every call:
//   * the KADABRA phases-1-2 warm state (diameter estimate + calibration),
//     cached per statistical key, so repeated betweenness queries skip
//     both phases (bc::KadabraWarmState);
//   * the mean-distance range bound (2-approximate diameter);
//   * the connectivity check.
//
// session.run(query) dispatches the typed queries to the existing drivers
// and returns one unified Result: a Status instead of deep asserts for
// invalid submissions, the score view, top-k pairs, phase timings, the
// per-collective communication volume, and the engine configuration the
// run actually used. In the engine's deterministic mode, session.run is
// bitwise identical to calling the drivers directly with the same knobs
// (tests/test_api.cpp).
//
// The legacy free functions (bc::kadabra_mpi, adaptive::closeness_mpi,
// adaptive::mean_distance_mpi) are thin wrappers over the native
// entry points below - one facade, one cluster lifecycle.
//
// Sessions are NOT thread-safe - this is a contract, not an accident.
// Every run()/native entry mutates the session's caches (calibrations,
// connectivity, mean-distance range), so queries run one at
// a time on one thread (each query already fans out over the session's
// ranks and threads). Concurrent submission from two threads corrupts the
// caches silently; the session therefore carries a re-entrancy tripwire
// (active in every build type - one atomic exchange per query) that aborts
// loudly on overlapping cross-thread calls. Concurrency belongs one layer
// up: service::SessionPool holds N replicas bound to the same graph and
// shares their warm state instead of sharing a session.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <tuple>
#include <variant>
#include <vector>

#include "adaptive/closeness.hpp"
#include "adaptive/mean_distance.hpp"
#include "api/config.hpp"
#include "api/status.hpp"
#include "bc/kadabra.hpp"
#include "dynamic/dynamic_state.hpp"
#include "graph/graph.hpp"
#include "mpisim/runtime.hpp"
#include "support/timer.hpp"

namespace distbc::api {

// --- Typed queries ----------------------------------------------------------

/// Approximate betweenness (KADABRA) with optional exact top-k extraction;
/// runs exact Brandes instead when `exact` is set or |V| is at or below
/// Config::exact_threshold.
struct BetweennessQuery {
  double epsilon = 0.05;
  double delta = 0.1;
  std::size_t top_k = 0;  // 0 = score vector only
  bool exact = false;     // force the exact-Brandes path
  /// Route through the session's dynamic::IncrementalBc engine: the sample
  /// set survives Session::apply(EdgeBatch) churn, so post-apply queries
  /// pay only for the invalidated samples. Single-threaded engine, keyed
  /// by (epsilon, delta) + the session's statistical config; ignored when
  /// the exact-Brandes path is selected.
  bool incremental = false;
};

/// Adaptive harmonic-closeness estimation for all vertices.
struct ClosenessRankQuery {
  double epsilon = 0.05;
  double delta = 0.1;
  std::size_t top_k = 0;  // 0 = score vector only
};

/// Adaptive mean shortest-path distance estimation.
struct MeanDistanceQuery {
  double epsilon = 0.1;
  double delta = 0.1;
};

using Query = std::variant<BetweennessQuery, ClosenessRankQuery,
                           MeanDistanceQuery>;

// --- Unified result ---------------------------------------------------------

struct Result {
  /// Validation / execution status; every other field is meaningful only
  /// when status.ok, except after a `max_epochs` stop, which fills them
  /// with the estimate the cap cut off.
  Status status;
  /// "kadabra" | "brandes" | "closeness" | "mean_distance".
  std::string algorithm;

  /// Per-vertex scores (betweenness / closeness queries).
  std::vector<double> scores;
  /// The k highest (vertex, score) pairs, descending (top_k > 0 queries).
  std::vector<std::pair<graph::Vertex, double>> top_k;
  /// Mean-distance queries only.
  double mean = 0.0;
  double stddev = 0.0;
  double half_width = 0.0;

  std::uint64_t samples = 0;
  std::uint64_t epochs = 0;
  /// kMaxEpochs: Config::max_epochs ended the run before its stopping rule
  /// held, so the estimate misses its (epsilon, delta) target; status is
  /// then an error.
  engine::StopReason stop_reason = engine::StopReason::kRule;
  double total_seconds = 0.0;
  /// Phase windows of this query only: a query that reused the session's
  /// cached calibration reports zero kDiameter/kCalibration seconds.
  PhaseTimer phases;
  /// Per-collective bytes moved by this query (MPI shapes only).
  mpisim::CommVolume comm_volume;
  /// The engine configuration the adaptive phase actually ran with.
  engine::EngineOptions engine_used;

  /// Reuse accounting: what session state this query skipped recomputing.
  bool calibration_reused = false;
};

// --- Session ----------------------------------------------------------------

class Session {
 public:
  /// Binds an owned copy/moved graph to the cluster shape in `config`.
  /// Construction never aborts: configuration problems (validate())
  /// surface through status() and fail every subsequent run() with the
  /// same message.
  Session(graph::Graph graph, Config config);

  /// Non-owning binding for callers whose graph outlives the session (the
  /// compatibility wrappers).
  Session(std::shared_ptr<const graph::Graph> graph, Config config);

  [[nodiscard]] const Status& status() const { return status_; }
  [[nodiscard]] const Config& config() const { return config_; }
  [[nodiscard]] const graph::Graph& graph() const { return *graph_; }

  /// Typed dispatch. Invalid submissions (bad epsilon/delta/k, graphs with
  /// fewer than two vertices, disconnected input for the sampling
  /// estimators, mismatched runtime configuration) return an error Result
  /// instead of tripping driver asserts.
  [[nodiscard]] Result run(const BetweennessQuery& query);
  [[nodiscard]] Result run(const ClosenessRankQuery& query);
  [[nodiscard]] Result run(const MeanDistanceQuery& query);
  [[nodiscard]] Result run(const Query& query);
  [[nodiscard]] std::vector<Result> run_batch(std::span<const Query> queries);

  /// Seeds the calibration cache from a previous run's BcResult::warm
  /// (e.g. persisted across processes by a service), keyed like the
  /// session's own cache entries. The warm state's provenance is validated
  /// against this session - same graph fingerprint, same statistical
  /// parameters, same cluster shape (ranks, threads, deterministic mode,
  /// virtual streams), one delta_l/delta_u entry per vertex, every share
  /// finite and in (0, 1) with a sum below delta - and a mismatch returns
  /// an error Status with the cache untouched, instead of silently
  /// mis-caching a state the stopping rule was never calibrated for.
  /// States without provenance (fingerprint/ranks zero, from before the
  /// accounting) skip the fingerprint and shape checks. A state without
  /// the stop rule's cached logs is cached as a copy that has them.
  [[nodiscard]] Status preload_calibration(
      const bc::KadabraParams& params,
      std::shared_ptr<const bc::KadabraWarmState> warm);

  /// The cached phases-1-2 warm states of this session, exportable to
  /// other sessions bound to the same (graph, cluster shape) via
  /// preload_calibration (each state's KadabraParams travel inside
  /// context.params) - the service tier's cross-replica sharing and
  /// persistence hook.
  [[nodiscard]] std::vector<std::shared_ptr<const bc::KadabraWarmState>>
  calibrations() const;

  // --- Dynamic graphs (src/dynamic/) --------------------------------------

  /// Applies one edge batch to the session's graph: validates it against
  /// the current snapshot, publishes the next version, refreshes every
  /// live incremental engine (clean samples kept, dirty ones resampled),
  /// and updates the session caches - a known connected graph stays
  /// connected (deletion batches are checked, insertions cannot
  /// disconnect), any other verdict is re-derived lazily; cached
  /// calibrations survive insert-only batches unchanged (distances only
  /// shrink, so their vertex-diameter bounds hold) and survive deletion
  /// batches when their bound covers the recomputed one, re-stamped to the
  /// new fingerprint; violated bounds drop the entry. The new snapshot is
  /// hashed during the apply only when a survivor needs that re-stamp.
  /// A rejected batch (report.status) leaves the session untouched.
  [[nodiscard]] dynamic::ApplyReport apply(dynamic::EdgeBatch batch);

  /// Adopts an apply() performed by another session sharing this one's
  /// DynamicState (service::SessionPool replicas): updates this session's
  /// snapshot and caches without re-applying the batch.
  void sync_dynamic(const dynamic::ApplyReport& report);

  /// Binds a shared DynamicState (pool replicas all bind the same one so
  /// incremental results are identical across pool sizes). Must happen
  /// before the first apply()/incremental query; the state's current
  /// snapshot must be this session's graph.
  void bind_dynamic_state(std::shared_ptr<dynamic::DynamicState> state);

  /// The session's dynamic state (null until an apply() or incremental
  /// query created one, or bind_dynamic_state installed a shared one).
  [[nodiscard]] const std::shared_ptr<dynamic::DynamicState>& dynamic_state()
      const {
    return dynamic_;
  }

  // --- Native entry points (the compatibility wrappers delegate here) ----
  // Same cluster lifecycle and caching as run(), legacy option/result
  // types, legacy misuse semantics (driver asserts, no Status).

  [[nodiscard]] bc::BcResult kadabra(const bc::KadabraOptions& options);
  [[nodiscard]] adaptive::ClosenessResult closeness(
      const adaptive::ClosenessParams& params);
  [[nodiscard]] adaptive::MeanDistanceResult mean_distance(
      const adaptive::MeanDistanceParams& params);

 private:
  /// RAII tripwire enforcing the "Sessions are not thread-safe" contract:
  /// entry points claim the session for their thread and abort (loudly,
  /// in every build type) when another thread already holds it. Same-
  /// thread nesting (run() -> native entry) is fine.
  class [[nodiscard]] ThreadGuard {
   public:
    explicit ThreadGuard(const Session& session);
    ~ThreadGuard();
    ThreadGuard(const ThreadGuard&) = delete;
    ThreadGuard& operator=(const ThreadGuard&) = delete;

   private:
    const Session& session_;
    bool owner_ = false;
  };

  /// Everything the calibration outcome depends on besides the graph and
  /// the rank count (fixed per session): the statistical parameters and
  /// the stream layout.
  using CalibrationKey =
      std::tuple<double, double, std::uint64_t, std::uint64_t, double, int,
                 bool, std::uint64_t>;
  [[nodiscard]] CalibrationKey calibration_key(
      const bc::KadabraParams& params, int threads_per_rank,
      bool deterministic, std::uint64_t virtual_streams) const;

  [[nodiscard]] Status validate_query(double epsilon, double delta,
                                      std::size_t top_k,
                                      bool needs_connected);
  /// Creates the session-private DynamicState on first dynamic use.
  void ensure_dynamic();
  /// The incremental-betweenness dispatch target of run(BetweennessQuery).
  [[nodiscard]] Result run_incremental(const BetweennessQuery& query);
  /// Cache updates shared by apply() and sync_dynamic() (see apply()).
  void adopt_apply(const dynamic::ApplyReport& report);
  [[nodiscard]] bool connected();
  /// Lazily computed graph::fingerprint of the bound graph (cached; used
  /// by preload_calibration validation).
  [[nodiscard]] std::uint64_t graph_fingerprint();

  std::shared_ptr<const graph::Graph> graph_;
  Config config_;
  Status status_;
  std::unique_ptr<mpisim::Runtime> runtime_;

  // Cached per-(graph, cluster-shape) state.
  std::optional<bool> connected_;
  std::optional<std::uint64_t> fingerprint_;
  std::map<CalibrationKey, std::shared_ptr<const bc::KadabraWarmState>>
      calibrations_;
  std::uint32_t mean_distance_range_ = 0;
  std::shared_ptr<dynamic::DynamicState> dynamic_;

  /// Thread currently inside an entry point (default id = none).
  mutable std::atomic<std::thread::id> active_thread_{};
};

}  // namespace distbc::api
