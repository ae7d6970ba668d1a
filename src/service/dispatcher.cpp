#include "service/dispatcher.hpp"

#include <utility>

namespace distbc::service {

Dispatcher::Dispatcher(std::uint64_t queue_capacity)
    : queue_capacity_(queue_capacity) {}

Dispatcher::~Dispatcher() {
  resume();
  drain();
  // Shard destruction joins each pool's workers (pools drain on their
  // own; after drain() above their queues are already empty).
}

api::Status Dispatcher::bind(const std::string& graph_id,
                             std::shared_ptr<const graph::Graph> graph,
                             const api::Config& config) {
  {
    const std::scoped_lock lock(mutex_);
    if (shards_.contains(graph_id))
      return api::Status::error("graph id '" + graph_id +
                                "' is already bound");
  }
  // Pool construction is heavyweight (sessions, workers, warm-store
  // preload) - run it outside the dispatcher lock.
  auto pool = std::make_unique<SessionPool>(std::move(graph), config);
  if (!pool->status().ok) return pool->status();

  const std::scoped_lock lock(mutex_);
  if (shards_.contains(graph_id))
    return api::Status::error("graph id '" + graph_id + "' is already bound");
  if (queue_capacity_ == 0) queue_capacity_ = config.service_queue_capacity;
  shards_[graph_id].pool = std::move(pool);
  return api::Status::success();
}

void Dispatcher::set_tenant_weight(const std::string& tenant, double weight) {
  const std::scoped_lock lock(mutex_);
  scheduler_.set_weight(tenant, weight);
}

Ticket Dispatcher::submit(Request request) {
  const Ticket ticket;
  Response rejection;
  {
    const std::scoped_lock lock(mutex_);
    const auto shard_it = shards_.find(request.graph_id);
    if (shard_it == shards_.end()) {
      ++stats_.rejected_unknown_graph;
      rejection.status = api::Status::error(
          "unknown graph id '" + request.graph_id + "' (not bound)");
    } else if (shard_it->second.mutating > 0) {
      ++stats_.rejected_mutating;
      rejection.status = api::Status::error(
          "graph '" + request.graph_id +
          "' is mid-apply (edge batch in progress); retry");
    } else if (stats_.scheduled >= queue_capacity_) {
      ++stats_.rejected_queue_full;
      rejection.status = api::Status::error(
          "service queue full (" + std::to_string(queue_capacity_) +
          " pending queries; raise service_queue_capacity or retry)");
    } else {
      ++stats_.submitted;
      ++stats_.scheduled;
      const std::uint64_t handle = next_handle_++;
      scheduler_.push(request.tenant, request.graph_id, handle);
      pending_.emplace(handle,
                       Pending{std::move(request), ticket, WallTimer{}});
      pump();
      return ticket;
    }
  }
  rejection.tenant = std::move(request.tenant);
  rejection.graph_id = std::move(request.graph_id);
  ticket.fulfill(std::move(rejection));
  return ticket;
}

void Dispatcher::pause() {
  const std::scoped_lock lock(mutex_);
  paused_ = true;
}

void Dispatcher::resume() {
  const std::scoped_lock lock(mutex_);
  paused_ = false;
  pump();
}

void Dispatcher::drain() {
  std::unique_lock lock(mutex_);
  idle_cv_.wait(lock, [this] {
    return (paused_ || stats_.scheduled == 0) && stats_.in_flight == 0;
  });
}

DispatcherStats Dispatcher::stats() const {
  const std::scoped_lock lock(mutex_);
  return stats_;
}

const SessionPool* Dispatcher::pool(const std::string& graph_id) const {
  const std::scoped_lock lock(mutex_);
  const auto it = shards_.find(graph_id);
  return it == shards_.end() ? nullptr : it->second.pool.get();
}

void Dispatcher::pump() {
  if (paused_) return;
  // Keep forwarding scheduler picks until every pool either has all
  // replica slots busy or no eligible work; the per-pool slot cap keeps
  // the scheduler's dispatch order authoritative (a pool's FIFO queue
  // never holds more than its replicas can start immediately).
  bool progress = true;
  while (progress) {
    progress = false;
    for (auto& [graph_id, shard] : shards_) {
      // A mutating shard forwards nothing: its pool is quiescing for an
      // apply() and would reject (scheduled work waits it out instead).
      if (shard.mutating > 0) continue;
      while (shard.in_flight < shard.pool->size()) {
        const auto handle = scheduler_.pop(graph_id);
        if (!handle.has_value()) break;
        const auto it = pending_.find(*handle);
        Pending pending = std::move(it->second);
        pending_.erase(it);
        ++shard.in_flight;
        ++stats_.in_flight;
        --stats_.scheduled;
        const std::uint64_t sequence = next_sequence_++;
        const double scheduler_seconds = pending.queued.elapsed_s();
        const Ticket ticket = pending.ticket;
        const std::string gid = graph_id;
        shard.pool->submit_async(
            std::move(pending.request.query),
            std::move(pending.request.tenant), gid, sequence,
            [this, gid, ticket, scheduler_seconds](Response response) {
              on_complete(gid, std::move(response), ticket,
                          scheduler_seconds);
            });
        progress = true;
      }
    }
  }
}

void Dispatcher::on_complete(const std::string& graph_id, Response response,
                             const Ticket& ticket,
                             double scheduler_seconds) {
  // Time spent in the fair scheduler counts as queueing too.
  response.queue_seconds += scheduler_seconds;
  ticket.fulfill(std::move(response));

  const std::scoped_lock lock(mutex_);
  Shard& shard = shards_.at(graph_id);
  --shard.in_flight;
  --stats_.in_flight;
  ++stats_.completed;
  pump();
  // Unconditional: besides drain()'s global predicate, apply() waits for
  // ONE shard's in_flight to reach zero.
  idle_cv_.notify_all();
}

dynamic::ApplyReport Dispatcher::apply(const std::string& graph_id,
                                       dynamic::EdgeBatch batch) {
  SessionPool* pool = nullptr;
  {
    std::unique_lock lock(mutex_);
    const auto it = shards_.find(graph_id);
    if (it == shards_.end()) {
      dynamic::ApplyReport report;
      report.status = api::Status::error("unknown graph id '" + graph_id +
                                         "' (not bound)");
      return report;
    }
    Shard& shard = it->second;
    ++shard.mutating;  // closes the shard: submit rejects, pump skips
    idle_cv_.wait(lock, [&shard] { return shard.in_flight == 0; });
    pool = shard.pool.get();
  }
  // The pool quiesces and mutates on its own; other shards keep serving
  // because the dispatcher lock is NOT held across the apply.
  dynamic::ApplyReport report = pool->apply(std::move(batch));
  {
    const std::scoped_lock lock(mutex_);
    Shard& shard = shards_.at(graph_id);
    --shard.mutating;
    if (report.status.ok) ++stats_.applies;
    pump();
  }
  idle_cv_.notify_all();
  return report;
}

}  // namespace distbc::service
