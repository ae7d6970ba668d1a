#include "dynamic/dynamic_state.hpp"

#include <algorithm>
#include <utility>

#include "graph/components.hpp"
#include "graph/diameter.hpp"
#include "support/assert.hpp"

namespace distbc::dynamic {

DynamicState::DynamicState(std::shared_ptr<const graph::Graph> initial,
                           SketchParams sketch)
    : graph_(std::move(initial)), sketch_(sketch) {}

ApplyReport DynamicState::apply(EdgeBatch batch) {
  std::lock_guard<std::mutex> lock(mutex_);
  ApplyReport report;
  if (batch.empty()) {
    report.status = api::Status::error("edge batch is empty");
    report.version = graph_.version();
    report.fingerprint = graph_.fingerprint();
    return report;
  }
  if (const api::Status status = batch.validate(*graph_.snapshot());
      !status) {
    report.status = status;
    report.version = graph_.version();
    report.fingerprint = graph_.fingerprint();
    return report;
  }

  report.had_deletes = !batch.deletes().empty();
  report.in_place = graph_.apply(batch);
  // Deletions can split the graph; the sampling estimators (and every live
  // incremental engine) require a connected one, so a disconnecting batch
  // rolls back instead of poisoning later queries.
  if (report.had_deletes && !graph::is_connected(*graph_.snapshot())) {
    graph_.revert(batch);
    report.status =
        api::Status::error("edge batch disconnects the graph (rejected)");
    report.version = graph_.version();
    report.fingerprint = graph_.fingerprint();
    return report;
  }
  report.status = api::Status::success();
  report.version = graph_.version();
  report.fingerprint = graph_.fingerprint();
  report.edges_inserted = batch.inserts().size();
  report.edges_deleted = batch.deletes().size();

  // Bound policy: insert-only batches only shrink distances, so every
  // cached vertex-diameter bound stays a valid upper bound - nothing is
  // recomputed (diameter_bound stays 0). Deletion batches recompute the
  // bound on the NEW snapshot in one pass: iFUB when any live engine uses
  // the exact bound, whose root BFS is the 2-approximation's (same
  // two-sweep midpoint), else the 2-approximation alone. The report
  // carries the 2-approximation, a sound upper bound for any downstream
  // cache (e.g. Session warm states).
  std::uint32_t exact_bound = 0;
  if (report.had_deletes) {
    const graph::Graph& snapshot = *graph_.snapshot();
    const bool any_exact =
        std::any_of(engines_.begin(), engines_.end(), [](const auto& entry) {
          return entry.second->params().exact_diameter;
        });
    if (any_exact) {
      const graph::DiameterResult ifub = graph::ifub_diameter(snapshot);
      exact_bound = ifub.diameter + 1;
      report.diameter_bound = 2 * ifub.root_eccentricity + 1;
    } else {
      report.diameter_bound = graph::vertex_diameter(snapshot, false);
    }
  }

  for (auto& [key, engine] : engines_) {
    const std::uint32_t new_bound =
        !report.had_deletes ? 0
        : engine->params().exact_diameter ? exact_bound
                                          : report.diameter_bound;
    const IncrementalBc::RefreshStats stats =
        engine->refresh(graph_.snapshot(), batch, new_bound);
    ++report.engines_refreshed;
    report.samples_retained += stats.retained;
    report.samples_dirty += stats.dirty;
    report.samples_resampled += stats.resampled;
    report.samples_topup += stats.topup;
    report.bloom_dirty += stats.bloom_dirty;
    report.recalibrations += stats.recalibrated ? 1 : 0;
  }
  return report;
}

DynamicState::QueryView DynamicState::query(const bc::KadabraParams& params) {
  std::lock_guard<std::mutex> lock(mutex_);
  QueryView view;
  auto& engine = engines_[engine_key(params)];
  if (engine == nullptr) {
    engine = std::make_unique<IncrementalBc>(params, sketch_);
    engine->run(graph_.snapshot());
    view.first_run = true;
  }
  view.status = api::Status::success();
  view.scores = engine->scores();
  view.samples = engine->samples();
  view.epochs = engine->epochs();
  view.ledger_bloom = engine->ledger().bloom_sketches();
  view.vertex_diameter = engine->vertex_diameter();
  return view;
}

std::shared_ptr<const graph::Graph> DynamicState::snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return graph_.snapshot();
}

std::uint64_t DynamicState::version() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return graph_.version();
}

std::uint64_t DynamicState::fingerprint() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return graph_.fingerprint();
}

MutableGraph::Stats DynamicState::graph_stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return graph_.stats();
}

std::size_t DynamicState::engine_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return engines_.size();
}

}  // namespace distbc::dynamic
