#include "service/session_pool.hpp"

#include <utility>
#include <variant>

#include "graph/stats.hpp"
#include "support/assert.hpp"

namespace distbc::service {

SessionPool::SessionPool(std::shared_ptr<const graph::Graph> graph,
                         api::Config config)
    : graph_(std::move(graph)),
      store_(config.service_warm_store,
             config.service_warm_store_max_entries) {
  DISTBC_ASSERT(graph_ != nullptr);
  bootstrap(std::move(config));
}

SessionPool::SessionPool(graph::Graph graph, api::Config config)
    : SessionPool(std::make_shared<const graph::Graph>(std::move(graph)),
                  std::move(config)) {}

void SessionPool::bootstrap(api::Config config) {
  status_ = config.validate();
  if (!status_.ok) return;
  queue_capacity_ = config.service_queue_capacity;

  const int pool_size = config.service_pool_size;
  // One shared dynamic state for the whole pool: every replica binds it,
  // so incremental engines (and their deterministic stream counters) are
  // pool-global and apply()/query results cannot depend on the pool size.
  dynamic_ = std::make_shared<dynamic::DynamicState>(graph_,
                                                     dynamic::SketchParams{});
  replicas_.reserve(pool_size);
  for (int i = 0; i < pool_size; ++i) {
    replicas_.push_back(std::make_unique<api::Session>(graph_, config));
    if (!replicas_.back()->status().ok) {
      status_ = replicas_.back()->status();
      replicas_.clear();
      return;
    }
    replicas_.back()->bind_dynamic_state(dynamic_);
  }
  warm_cursor_.assign(pool_size, 0);

  // Warm restart: preload every compatible stored calibration before the
  // first query. Replica 0 validates (provenance vs this graph/shape);
  // the rest pick accepted states up through sync_warm_into.
  if (store_.enabled()) {
    for (auto& state : store_.load_all(dynamic_->fingerprint())) {
      const api::Status accepted =
          replicas_[0]->preload_calibration(state->context.params, state);
      if (accepted.ok) {
        warm_known_.insert(state.get());
        warm_states_.push_back(std::move(state));
        ++stats_.store_states_loaded;
      } else {
        ++stats_.store_states_rejected;
      }
    }
    warm_cursor_[0] = warm_states_.size();
  }

  workers_.reserve(pool_size);
  for (int i = 0; i < pool_size; ++i)
    workers_.emplace_back([this, i] { worker_main(i); });
}

SessionPool::~SessionPool() {
  {
    const std::scoped_lock lock(mutex_);
    stopping_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

Ticket SessionPool::submit(api::Query query, std::string tenant,
                           std::string graph_id) {
  Job job;
  job.query = std::move(query);
  job.tenant = std::move(tenant);
  job.graph_id = std::move(graph_id);
  const Ticket ticket = job.ticket;

  {
    const std::scoped_lock lock(mutex_);
    if (!status_.ok) {
      ++stats_.rejected;
      Response response;
      response.status = status_;
      response.tenant = job.tenant;
      response.graph_id = job.graph_id;
      ticket.fulfill(std::move(response));
      return ticket;
    }
    if (mutating_) {
      ++stats_.rejected_mutating;
      Response response;
      response.status = api::Status::error(
          "graph is mid-apply (edge batch in progress); retry");
      response.tenant = job.tenant;
      response.graph_id = job.graph_id;
      ticket.fulfill(std::move(response));
      return ticket;
    }
    if (queue_.size() >= queue_capacity_) {
      ++stats_.rejected;
      Response response;
      response.status = api::Status::error(
          "service queue full (" + std::to_string(queue_capacity_) +
          " pending queries; raise service_queue_capacity or retry)");
      response.tenant = job.tenant;
      response.graph_id = job.graph_id;
      ticket.fulfill(std::move(response));
      return ticket;
    }
    ++stats_.submitted;
    queue_.push_back(std::move(job));
  }
  work_cv_.notify_one();
  return ticket;
}

void SessionPool::submit_async(api::Query query, std::string tenant,
                               std::string graph_id,
                               std::uint64_t dispatch_sequence,
                               Callback on_done) {
  DISTBC_ASSERT(on_done != nullptr);
  Job job;
  job.query = std::move(query);
  job.tenant = std::move(tenant);
  job.graph_id = std::move(graph_id);
  job.dispatch_sequence = dispatch_sequence;
  job.callback = std::move(on_done);

  api::Status rejection;
  {
    const std::scoped_lock lock(mutex_);
    if (!status_.ok) {
      ++stats_.rejected;
      rejection = status_;
    } else if (mutating_) {
      // Safety net for direct users; the Dispatcher stops forwarding to a
      // mutating shard before its own apply() reaches the pool.
      ++stats_.rejected_mutating;
      rejection = api::Status::error(
          "graph is mid-apply (edge batch in progress); retry");
    } else {
      // No capacity check: the Dispatcher is the admission authority on
      // this path and keeps at most pool-size queries in flight per pool.
      ++stats_.submitted;
      queue_.push_back(std::move(job));
    }
  }
  if (!rejection.ok) {
    Response response;
    response.status = std::move(rejection);
    response.tenant = std::move(job.tenant);
    response.graph_id = std::move(job.graph_id);
    job.callback(std::move(response));
    return;
  }
  work_cv_.notify_one();
}

std::uint64_t SessionPool::graph_fingerprint() const {
  // A pool whose bootstrap failed never built the dynamic state.
  return dynamic_ != nullptr ? dynamic_->fingerprint()
                             : graph::fingerprint(*graph_);
}

void SessionPool::drain() {
  std::unique_lock lock(mutex_);
  idle_cv_.wait(lock, [this] { return queue_.empty() && running_jobs_ == 0; });
}

dynamic::ApplyReport SessionPool::apply(dynamic::EdgeBatch batch) {
  // Whole applies serialize: two concurrent applies must not interleave
  // their quiesce/mutate/rebroadcast sequences (and api::Session is
  // single-threaded by contract).
  const std::scoped_lock apply_lock(apply_mutex_);
  {
    std::unique_lock lock(mutex_);
    if (!status_.ok) {
      dynamic::ApplyReport report;
      report.status = status_;
      return report;
    }
    // Quiesce: stop admitting (typed rejection in submit/submit_async),
    // let every accepted query finish, then mutate on idle replicas.
    mutating_ = true;
    idle_cv_.wait(lock,
                  [this] { return queue_.empty() && running_jobs_ == 0; });
  }

  dynamic::ApplyReport report = replicas_[0]->apply(std::move(batch));
  if (report.status.ok) {
    for (std::size_t i = 1; i < replicas_.size(); ++i)
      replicas_[i]->sync_dynamic(report);
    rebroadcast_warm();
  }
  {
    const std::scoped_lock lock(mutex_);
    if (report.status.ok) {
      graph_ = dynamic_->snapshot();
      ++stats_.applies;
    }
    mutating_ = false;
  }
  work_cv_.notify_all();
  return report;
}

void SessionPool::rebroadcast_warm() {
  // Replica 0's adopt pass re-stamped the surviving calibrations to the
  // new fingerprint and dropped the violated ones; that set becomes the
  // whole pool cache (old-fingerprint entries must not be re-preloaded -
  // provenance would reject them anyway).
  const auto states = replicas_[0]->calibrations();
  std::uint64_t saved = 0;
  {
    const std::scoped_lock lock(warm_mutex_);
    warm_states_.assign(states.begin(), states.end());
    warm_known_.clear();
    for (const auto& state : warm_states_) warm_known_.insert(state.get());
    // Replica 0 holds everything already; the rest re-preload from zero.
    for (std::size_t i = 0; i < warm_cursor_.size(); ++i) warm_cursor_[i] = 0;
    warm_cursor_[0] = warm_states_.size();
  }
  if (store_.enabled())
    for (const auto& state : states)
      if (store_.save(*state)) ++saved;
  const std::scoped_lock lock(mutex_);
  stats_.store_saves += saved;
}

std::size_t SessionPool::queue_depth() const {
  const std::scoped_lock lock(mutex_);
  return queue_.size();
}

PoolStats SessionPool::stats() const {
  const std::scoped_lock lock(mutex_);
  return stats_;
}

void SessionPool::worker_main(int index) {
  for (;;) {
    Job job;
    {
      std::unique_lock lock(mutex_);
      work_cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping, and fully drained
      job = std::move(queue_.front());
      queue_.pop_front();
      ++running_jobs_;
    }

    Response response;
    response.tenant = job.tenant;
    response.graph_id = job.graph_id;
    response.dispatch_sequence = job.dispatch_sequence;
    response.queue_seconds = job.queued.elapsed_s();

    const bool betweenness =
        std::holds_alternative<api::BetweennessQuery>(job.query);
    if (betweenness) sync_warm_into(index);

    const WallTimer run_timer;
    response.result = replicas_[index]->run(job.query);
    response.run_seconds = run_timer.elapsed_s();
    response.status = response.result.status;
    if (betweenness && response.result.status.ok) export_warm_from(index);

    {
      // Count the completion BEFORE delivering: anyone who learns of the
      // response (ticket holder, dispatcher callback) then already sees it
      // in stats(). The running_jobs_ decrement stays AFTER delivery so
      // drain() returning implies every response has been observed.
      const std::scoped_lock lock(mutex_);
      ++stats_.completed;
      if (response.result.calibration_reused) ++stats_.calibration_reuses;
    }
    if (job.callback != nullptr)
      job.callback(std::move(response));
    else
      job.ticket.fulfill(std::move(response));

    {
      const std::scoped_lock lock(mutex_);
      --running_jobs_;
      if (queue_.empty() && running_jobs_ == 0) idle_cv_.notify_all();
    }
  }
}

void SessionPool::sync_warm_into(int index) {
  std::vector<std::shared_ptr<const bc::KadabraWarmState>> fresh;
  {
    const std::scoped_lock lock(warm_mutex_);
    for (std::size_t i = warm_cursor_[index]; i < warm_states_.size(); ++i)
      fresh.push_back(warm_states_[i]);
    warm_cursor_[index] = warm_states_.size();
  }
  // Replica `index` is owned by this worker; preloading outside the pool
  // locks is safe. States in the pool cache were validated on admission,
  // and re-preloading a replica's own exports is a no-op, so the status
  // can be ignored here.
  for (auto& state : fresh) {
    // Copy the key out first: passing `state->context.params` and
    // `std::move(state)` in one call would leave the dereference racing
    // the move (argument evaluation order is unspecified).
    const bc::KadabraParams params = state->context.params;
    (void)replicas_[index]->preload_calibration(params, std::move(state));
  }
}

void SessionPool::export_warm_from(int index) {
  const auto states = replicas_[index]->calibrations();
  std::vector<std::shared_ptr<const bc::KadabraWarmState>> to_save;
  {
    const std::scoped_lock lock(warm_mutex_);
    for (const auto& state : states) {
      if (warm_known_.insert(state.get()).second) {
        warm_states_.push_back(state);
        to_save.push_back(state);
      }
    }
    // warm_cursor_[index] is deliberately NOT advanced: entries appended
    // by other replicas since this replica's last sync are still pending
    // for it, and re-preloading its own export is a harmless no-op.
  }
  if (to_save.empty() || !store_.enabled()) return;
  std::uint64_t saved = 0;
  for (const auto& state : to_save)
    if (store_.save(*state)) ++saved;
  const std::scoped_lock lock(mutex_);
  stats_.store_saves += saved;
}

}  // namespace distbc::service
