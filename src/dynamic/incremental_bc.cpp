#include "dynamic/incremental_bc.hpp"

#include <algorithm>
#include <utility>

#include "support/assert.hpp"

namespace distbc::dynamic {

void IncrementalBc::Recorder::on_sample(bool connected,
                                        std::span<const graph::Vertex> path,
                                        std::span<const graph::Vertex> scanned) {
  if (ledger == nullptr) return;
  if (replace_index < 0) {
    ledger->record(stream, connected, path, scanned);
  } else {
    ledger->replace(static_cast<std::size_t>(replace_index), stream, connected,
                    path, scanned);
  }
}

IncrementalBc::IncrementalBc(bc::KadabraParams params, SketchParams sketch)
    : params_(params), sketch_(sketch), ledger_(sketch) {}

void IncrementalBc::sample_next(epoch::StateFrame& frame, bool record,
                                std::int64_t replace_index) {
  // A stream's draws depend only on its index, never on which samples
  // shared the workspace before it.
  const std::uint64_t stream = next_stream_++;
  sampler_->set_stream(Rng(params_.seed).split(stream));
  recorder_.ledger = &ledger_;
  recorder_.stream = stream;
  recorder_.replace_index = replace_index;
  sampler_->set_observer(record ? &recorder_ : nullptr);
  sampler_->sample(frame);
}

void IncrementalBc::sample_fresh(std::uint64_t count, epoch::StateFrame& frame,
                                 bool record) {
  for (std::uint64_t i = 0; i < count; ++i) sample_next(frame, record, -1);
}

void IncrementalBc::resample_slots(std::span<const std::uint32_t> slots) {
  for (const std::uint32_t slot : slots)
    sample_next(aggregate_, /*record=*/true, slot);
}

std::uint64_t IncrementalBc::adaptive_loop() {
  std::uint64_t taken = 0;
  while (!context_.stop_satisfied(aggregate_)) {
    const std::uint64_t tau = aggregate_.tau();
    // First epoch: a fixed slice of the budget so easy instances check the
    // stop rule early; afterwards geometric doubling (epoch = current tau),
    // always capped at the remaining omega budget.
    std::uint64_t epoch =
        tau == 0 ? std::max<std::uint64_t>(64, context_.omega / 8) : tau;
    epoch = std::min(epoch, context_.omega - tau);
    DISTBC_ASSERT(epoch > 0);
    sample_fresh(epoch, aggregate_, /*record=*/true);
    taken += epoch;
    ++epochs_;
  }
  return taken;
}

void IncrementalBc::run(std::shared_ptr<const graph::Graph> graph) {
  DISTBC_ASSERT(graph != nullptr);
  graph_ = std::move(graph);
  sampler_.emplace(*graph_, Rng(params_.seed));
  ledger_.clear();
  epochs_ = 0;
  vertex_diameter_ = bc::kadabra_vertex_diameter(*graph_);
  context_ = bc::begin_context(params_, vertex_diameter_);
  aggregate_ = epoch::StateFrame(graph_->num_vertices());
  // Phase 2: non-adaptive calibration samples feed only the stopping
  // radii - not the estimator, so no ledger records.
  epoch::StateFrame calibration_frame(graph_->num_vertices());
  sample_fresh(context_.initial_samples, calibration_frame, /*record=*/false);
  bc::finish_calibration(context_, calibration_frame);
  // Phase 3: adaptive epochs, every sample sketched into the ledger.
  (void)adaptive_loop();
  ran_ = true;
}

IncrementalBc::RefreshStats IncrementalBc::refresh(
    std::shared_ptr<const graph::Graph> graph, const EdgeBatch& batch,
    std::uint32_t diameter_bound) {
  DISTBC_ASSERT_MSG(ran_, "refresh requires a previous run()");
  DISTBC_ASSERT(graph != nullptr);
  RefreshStats stats;

  const SampleLedger::Classification verdict = ledger_.classify(batch);
  stats.dirty = verdict.dirty.size();
  stats.retained = ledger_.size() - verdict.dirty.size();
  stats.bloom_dirty = verdict.bloom_dirty;

  // Subtract every dirty sample's contribution: its path counts and its
  // tau share (disconnected records contributed tau only).
  const std::span<std::uint64_t> raw = aggregate_.raw();
  const std::uint32_t n = aggregate_.num_vertices();
  for (const std::uint32_t index : verdict.dirty) {
    for (const graph::Vertex v : ledger_.path(index)) {
      DISTBC_DEBUG_ASSERT(raw[v] > 0);
      --raw[v];
    }
    DISTBC_ASSERT(raw[n] > 0);
    --raw[n];
  }

  graph_ = std::move(graph);
  sampler_.emplace(*graph_, Rng(params_.seed));
  resample_slots(verdict.dirty);
  stats.resampled = verdict.dirty.size();

  // Calibration-bound policy: 0 asserts the cached bound still covers the
  // new graph (insert-only batches); a bound within the cached one keeps
  // omega and the stopping radii. A larger bound is adopted, but omega
  // reads VD only through floor(log2(VD - 2)): only a bound that GROWS
  // omega re-derives it and recalibrates - from the merged aggregate, no
  // extra samples.
  if (diameter_bound > vertex_diameter_) {
    vertex_diameter_ = diameter_bound;
    if (bc::compute_omega(diameter_bound, params_.epsilon, params_.delta) >
        context_.omega) {
      bc::KadabraContext fresh = bc::begin_context(params_, diameter_bound);
      bc::finish_calibration(fresh, aggregate_);
      context_ = fresh;
      stats.recalibrated = true;
    }
  }

  // The merged aggregate must still satisfy the stop rule under the
  // (possibly regrown) omega; top up with regular adaptive epochs if not.
  const std::uint32_t epochs_before = epochs_;
  stats.topup = adaptive_loop();
  stats.epochs = epochs_ - epochs_before;
  return stats;
}

std::vector<double> IncrementalBc::scores() const {
  DISTBC_ASSERT(ran_ && aggregate_.tau() > 0);
  const std::uint32_t n = aggregate_.num_vertices();
  std::vector<double> result(n, 0.0);
  const auto tau = static_cast<double>(aggregate_.tau());
  for (std::uint32_t v = 0; v < n; ++v)
    result[v] = static_cast<double>(aggregate_.count(v)) / tau;
  return result;
}

}  // namespace distbc::dynamic
