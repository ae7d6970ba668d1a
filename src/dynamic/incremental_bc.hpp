// dynamic::IncrementalBc - a single-threaded KADABRA engine that keeps its
// sample set alive across edge batches instead of recomputing from scratch.
//
// A fresh run() executes the standard three phases (vertex diameter ->
// omega, calibration, adaptive epochs), drawing every sample on its OWN
// deterministic RNG stream (`Rng(params.seed).split(stream)`, one monotone
// stream counter across calibration, adaptive, and resample phases) and
// recording a SampleLedger sketch per adaptive sample.
//
// refresh(graph, batch, bound) is the incremental path:
//   1. classify retained samples clean/dirty against the batch sketches;
//   2. subtract the dirty samples' contributions from the aggregate frame
//      (their paths and tau shares), keeping every clean contribution;
//   3. resample EXACTLY the dirty count on fresh stream indices against
//      the new snapshot, into the same ledger slots;
//   4. adopt a larger vertex-diameter bound (`bound > current`); when it
//      grows omega, re-derive omega and recalibrate the stopping radii
//      from the merged post-resample aggregate - no extra samples;
//   5. re-evaluate the adaptive stop rule on the merged aggregate and top
//      up with further epochs if it no longer holds.
//
// The contract is STATISTICAL, not bitwise: after refresh the estimator is
// an average over exactly ledger().size() samples, each drawn uniformly
// on the graph version it is valid for, and the KADABRA stop rule holds on
// the merged aggregate under the (possibly recalibrated) omega. Two
// identical run()+refresh() sequences are bitwise identical to each other
// (deterministic streams); a refresh is NOT bitwise identical to a
// from-scratch run on the same snapshot.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "bc/kadabra_context.hpp"
#include "bc/sampler.hpp"
#include "dynamic/edge_batch.hpp"
#include "dynamic/sample_ledger.hpp"
#include "epoch/state_frame.hpp"
#include "graph/graph.hpp"

namespace distbc::dynamic {

class IncrementalBc {
 public:
  IncrementalBc(bc::KadabraParams params, SketchParams sketch);

  /// From-scratch run on `graph` (must be connected): phases 1-3, ledger
  /// rebuilt. Resets any previous state except the stream counter (streams
  /// are never reused within one engine lifetime).
  void run(std::shared_ptr<const graph::Graph> graph);

  struct RefreshStats {
    std::uint64_t retained = 0;   // clean samples kept
    std::uint64_t dirty = 0;      // samples invalidated by the batch
    std::uint64_t resampled = 0;  // == dirty (fresh draws, same slots)
    std::uint64_t topup = 0;      // extra samples from re-running the stop rule
    std::uint64_t bloom_dirty = 0;  // dirty verdicts from Bloom sketches
    std::uint32_t epochs = 0;       // top-up epochs executed
    bool recalibrated = false;      // omega grew: stopping radii re-derived
  };

  /// Incremental refresh after `batch` produced snapshot `graph`.
  /// `diameter_bound` is the caller's vertex-diameter upper bound for the
  /// NEW graph, or 0 to assert the cached bound still holds (insert-only
  /// batches: distances only shrink). A larger bound raises
  /// vertex_diameter(); it recalibrates only when it grows omega. Requires
  /// a previous run().
  RefreshStats refresh(std::shared_ptr<const graph::Graph> graph,
                       const EdgeBatch& batch, std::uint32_t diameter_bound);

  [[nodiscard]] bool ran() const { return ran_; }
  /// Betweenness estimates: count(v) / tau over the current aggregate.
  [[nodiscard]] std::vector<double> scores() const;
  /// Samples in the current estimator (== ledger().size()).
  [[nodiscard]] std::uint64_t samples() const { return aggregate_.tau(); }
  /// Adaptive epochs executed across run() and every refresh().
  [[nodiscard]] std::uint32_t epochs() const { return epochs_; }
  [[nodiscard]] const bc::KadabraContext& context() const { return context_; }
  [[nodiscard]] const SampleLedger& ledger() const { return ledger_; }
  [[nodiscard]] const bc::KadabraParams& params() const { return params_; }
  [[nodiscard]] std::uint32_t vertex_diameter() const {
    return vertex_diameter_;
  }
  /// Next unused RNG stream index (monotone across phases and refreshes).
  [[nodiscard]] std::uint64_t next_stream() const { return next_stream_; }

 private:
  /// SampleObserver adapter: routes each finished sample into the ledger,
  /// either appending or replacing a dirty slot.
  struct Recorder final : bc::SampleObserver {
    SampleLedger* ledger = nullptr;
    std::uint64_t stream = 0;
    std::int64_t replace_index = -1;  // < 0 = append
    void on_sample(bool connected, std::span<const graph::Vertex> path,
                   std::span<const graph::Vertex> scanned) override;
  };

  /// One sample on the next fresh stream into `frame`. `replace_index`
  /// selects the ledger slot it replaces (< 0 = append); `record` false
  /// skips the ledger entirely (calibration samples).
  void sample_next(epoch::StateFrame& frame, bool record,
                   std::int64_t replace_index);
  /// `count` fresh samples on fresh streams, appended to the ledger when
  /// `record` is set.
  void sample_fresh(std::uint64_t count, epoch::StateFrame& frame,
                    bool record);
  /// Redraws the given ledger slots on fresh streams into aggregate_.
  void resample_slots(std::span<const std::uint32_t> slots);
  /// Adaptive epochs until the stop rule holds on aggregate_; returns the
  /// samples taken.
  std::uint64_t adaptive_loop();

  bc::KadabraParams params_;
  SketchParams sketch_;

  std::shared_ptr<const graph::Graph> graph_;
  /// One traversal workspace for every stream: moved onto each sample's
  /// own stream (PathSampler::set_stream) before it samples.
  std::optional<bc::PathSampler> sampler_;
  Recorder recorder_;
  bc::KadabraContext context_;
  epoch::StateFrame aggregate_;
  SampleLedger ledger_;
  std::uint32_t vertex_diameter_ = 0;
  std::uint64_t next_stream_ = 0;
  std::uint32_t epochs_ = 0;
  bool ran_ = false;
};

}  // namespace distbc::dynamic
