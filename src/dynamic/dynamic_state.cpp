#include "dynamic/dynamic_state.hpp"

#include <algorithm>
#include <utility>

#include "graph/components.hpp"
#include "support/assert.hpp"
#include "support/timer.hpp"

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
    return report;
  }
  if (const api::Status status = batch.validate(*graph_.snapshot());
      !status) {
    report.status = status;
    report.version = graph_.version();
    return report;
  }

  report.had_deletes = !batch.deletes().empty();
  report.in_place = graph_.apply(batch);
  const WallTimer bound_timer;
  if (report.had_deletes) {
    report.bound_path = covered_by_reference(batch) ? BoundPath::kReference
                                                    : BoundPath::kRecomputed;
  }
  const bool recompute = report.bound_path == BoundPath::kRecomputed;
  // Deletions can split the graph; the sampling estimators (and every live
  // incremental engine) require a connected one, so a disconnecting batch
  // rolls back instead of poisoning later queries. The recomputed bound
  // doubles as the check (0 = disconnected: iFUB's first sweep missed a
  // vertex). A batch that keeps the connected reference snapshot cannot
  // disconnect anything.
  const std::uint32_t bound =
      recompute ? bc::kadabra_vertex_diameter(*graph_.snapshot()) : 0;
  if (recompute && bound == 0) {
    graph_.revert(batch);
    report.status =
        api::Status::error("edge batch disconnects the graph (rejected)");
    report.version = graph_.version();
    report.bound_seconds = bound_timer.elapsed_s();
    return report;
  }
  report.status = api::Status::success();
  report.version = graph_.version();
  report.edges_inserted = batch.inserts().size();
  report.edges_deleted = batch.deletes().size();

  // Bound policy (see the header). The recomputed path ran one diameter
  // pass on the NEW snapshot, whose bound the report and every engine
  // take.
  if (report.bound_path == BoundPath::kReference) {
    report.diameter_bound = reference_bound_;
  } else if (recompute) {
    report.diameter_bound = bound;
    reference_ = graph_.snapshot();
    reference_bound_ = report.diameter_bound;
  }
  report.bound_seconds = bound_timer.elapsed_s();

  for (auto& [key, engine] : engines_) {
    const IncrementalBc::RefreshStats stats = engine->refresh(
        graph_.snapshot(), batch, recompute ? report.diameter_bound : 0);
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
  const EngineKey key = engine_key(params);
  auto it = engines_.find(key);
  if (it == engines_.end()) {
    const std::shared_ptr<const graph::Graph> snapshot = graph_.snapshot();
    if (!graph::is_connected(*snapshot)) {
      view.status = api::Status::error(
          "graph is not connected; the incremental engine requires a "
          "connected graph");
      return view;
    }
    auto fresh = std::make_unique<IncrementalBc>(params, sketch_);
    fresh->run(snapshot);
    reference_ = snapshot;
    reference_bound_ = fresh->vertex_diameter();
    it = engines_.emplace(key, std::move(fresh)).first;
    view.first_run = true;
  }
  const IncrementalBc* engine = it->second.get();
  view.status = api::Status::success();
  view.scores = engine->scores();
  view.samples = engine->samples();
  view.epochs = engine->epochs();
  view.ledger_bloom = engine->ledger().bloom_sketches();
  view.vertex_diameter = engine->vertex_diameter();
  return view;
}

bool DynamicState::covered_by_reference(const EdgeBatch& batch) const {
  return reference_ != nullptr &&
         std::ranges::none_of(batch.deletes(), [&](const Edge& edge) {
           return reference_->has_edge(edge.u, edge.v);
         });
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
