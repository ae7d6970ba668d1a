// service::SessionPool - N api::Session replicas bound to one graph,
// behind one bounded work queue, sharing their warm state.
//
// Sessions are single-threaded by contract (api/session.hpp); concurrency
// lives here. The pool constructs `Config::service_pool_size` sessions
// over a shared (not copied) graph, spawns one worker thread per replica,
// and feeds them from a FIFO queue. What makes the replicas a pool rather
// than N cold sessions is warm-state sharing:
//
//   * calibrations: a betweenness calibration computed by any replica is
//     exported (Session::calibrations) into a pool-level cache and
//     preloaded (Session::preload_calibration) into the serving replica
//     before each betweenness query - every replica skips phases 1-2 once
//     any one of them has paid for a (params, shape) combination;
//   * persistence: with Config::service_warm_store set, calibrations
//     round-trip through a service::WarmStore, so a restarted
//     pool preloads them at construction and its first query performs
//     zero diameter/calibration work (the kDiameter/kCalibration phase
//     stats stay 0 - the restart acceptance check).
//
// In the engine's deterministic mode every replica produces bitwise-
// identical results for the same query, so pooling changes throughput
// and ordering only - never answers (tests/test_service.cpp).
//
// On this simulated-MPI substrate the concurrency win comes from overlap:
// ranks blocked in modeled collectives sleep on the real clock
// (mpisim::NetworkModel), and the pool runs other queries' sampling under
// those sleeps - which is exactly the effect bench/service_throughput
// measures.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "api/session.hpp"
#include "dynamic/dynamic_state.hpp"
#include "service/ticket.hpp"
#include "service/warm_store.hpp"
#include "support/timer.hpp"

namespace distbc::service {

/// Pool-lifetime counters (all monotonic; snapshot via stats()).
struct PoolStats {
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;
  /// Bounded-queue rejections (Ticket-path submissions only; the
  /// Dispatcher performs its own admission control upstream).
  std::uint64_t rejected = 0;
  /// Warm states found on disk and accepted by the replicas.
  std::uint64_t store_states_loaded = 0;
  /// Warm states found on disk but rejected (foreign shape/params).
  std::uint64_t store_states_rejected = 0;
  /// Fresh calibrations persisted to the store.
  std::uint64_t store_saves = 0;
  /// Queries that ran on a calibration cached before them (preloaded from
  /// the store or computed by any replica).
  std::uint64_t calibration_reuses = 0;
  /// Edge batches applied through apply().
  std::uint64_t applies = 0;
  /// Submissions rejected because an apply() was quiescing the pool.
  std::uint64_t rejected_mutating = 0;
};

class SessionPool {
 public:
  using Callback = std::function<void(Response)>;

  /// Binds `config.service_pool_size` session replicas to the shared
  /// graph. Construction preloads the warm store; configuration problems
  /// surface through status() and reject every subsequent submission.
  SessionPool(std::shared_ptr<const graph::Graph> graph, api::Config config);
  SessionPool(graph::Graph graph, api::Config config);

  /// Drains the queue (every accepted query completes), then joins the
  /// workers.
  ~SessionPool();

  SessionPool(const SessionPool&) = delete;
  SessionPool& operator=(const SessionPool&) = delete;

  [[nodiscard]] const api::Status& status() const { return status_; }
  [[nodiscard]] int size() const { return static_cast<int>(replicas_.size()); }
  /// The bound graph. NOT synchronized with apply(): callers that mutate
  /// the pool concurrently should hold graph_snapshot() instead.
  [[nodiscard]] const graph::Graph& graph() const { return *graph_; }
  /// The current snapshot, safe against concurrent apply().
  [[nodiscard]] std::shared_ptr<const graph::Graph> graph_snapshot() const {
    const std::scoped_lock lock(mutex_);
    return graph_;
  }
  /// graph::fingerprint of the current snapshot, hashed on demand (once
  /// per graph version, shared with every replica).
  [[nodiscard]] std::uint64_t graph_fingerprint() const;

  /// Asynchronous submission; rejects with a typed Status when the
  /// bounded queue (Config::service_queue_capacity) is full.
  [[nodiscard]] Ticket submit(api::Query query, std::string tenant = {},
                              std::string graph_id = {});

  /// Dispatcher path: callback delivery (invoked on a worker thread),
  /// admission already performed upstream - never rejects.
  void submit_async(api::Query query, std::string tenant,
                    std::string graph_id, std::uint64_t dispatch_sequence,
                    Callback on_done);

  /// Blocks until every accepted submission has completed.
  void drain();

  /// Applies one edge batch to the pooled graph: quiesces the replicas
  /// (new submissions are rejected with a typed Status while the apply is
  /// pending, queued work completes first), applies through replica 0's
  /// shared dynamic state, syncs the other replicas, and rebroadcasts the
  /// re-stamped warm cache. Post-apply responses are bitwise identical
  /// across pool sizes: every replica serves incremental queries from the
  /// ONE shared dynamic::DynamicState. Concurrent applies serialize.
  [[nodiscard]] dynamic::ApplyReport apply(dynamic::EdgeBatch batch);

  /// The shared dynamic state behind apply() (never null after a
  /// successful bootstrap).
  [[nodiscard]] const std::shared_ptr<dynamic::DynamicState>& dynamic_state()
      const {
    return dynamic_;
  }

  [[nodiscard]] std::size_t queue_depth() const;
  [[nodiscard]] PoolStats stats() const;

 private:
  struct Job {
    api::Query query;
    std::string tenant;
    std::string graph_id;
    std::uint64_t dispatch_sequence = 0;
    Callback callback;  // null -> fulfill `ticket`
    Ticket ticket;
    WallTimer queued;
  };

  void bootstrap(api::Config config);
  void enqueue(Job job);
  void worker_main(int index);
  /// Preloads pool-cache entries this replica has not seen yet.
  void sync_warm_into(int index);
  /// Exports calibrations the replica just computed into the pool cache
  /// (and the store).
  void export_warm_from(int index);
  /// Rebuilds the pool warm cache from replica 0 after an apply(): the
  /// old-fingerprint entries are gone, the re-stamped survivors become the
  /// new broadcast set (and are re-persisted under the new fingerprint).
  void rebroadcast_warm();

  std::shared_ptr<const graph::Graph> graph_;
  api::Status status_;
  std::uint64_t queue_capacity_ = 0;
  WarmStore store_;

  std::vector<std::unique_ptr<api::Session>> replicas_;
  std::vector<std::thread> workers_;

  mutable std::mutex mutex_;
  std::condition_variable work_cv_;
  std::condition_variable idle_cv_;
  std::deque<Job> queue_;
  int running_jobs_ = 0;
  bool stopping_ = false;
  /// Set while an apply() quiesces and mutates the pool; submissions are
  /// rejected with a typed Status until it clears.
  bool mutating_ = false;
  PoolStats stats_;

  /// Serializes whole apply() calls (quiesce through rebroadcast).
  std::mutex apply_mutex_;
  /// The one dynamic state every replica binds (bootstrap).
  std::shared_ptr<dynamic::DynamicState> dynamic_;

  /// Pool-level warm cache: states accepted by the replicas, in arrival
  /// order (append-only; per-replica cursors track what is already
  /// preloaded). `known_` holds their identities for O(log n) new-state
  /// detection after a run.
  std::mutex warm_mutex_;
  std::vector<std::shared_ptr<const bc::KadabraWarmState>> warm_states_;
  std::set<const bc::KadabraWarmState*> warm_known_;
  std::vector<std::size_t> warm_cursor_;
};

}  // namespace distbc::service
