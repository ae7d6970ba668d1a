// The decision layer of the autotuner (tune/ layer 3).
//
// A TuningProfile bundles what one microbench run learned about a cluster
// shape: the fitted alpha-beta cost line per aggregation pattern, the
// oversubscription factor, and the work-unit calibration. Profiles
// round-trip through a plain "key = value" text format so a tuning run can
// be captured once (examples/autotune.cpp) and reloaded by every workload
// on that cluster.
//
// tune_decision() turns a profile plus a workload's frame size and
// per-sample cost into the knobs the paper hand-ablates, plus one it
// could not: the frame representation.
//   * aggregation strategy (§IV-F): the pattern with the cheapest predicted
//     exposed cost at the actual wire payload - flat merge, radix-tree
//     merge, and the two-level (node pre-reduce + leader tree) path all
//     compete on their own fitted lines at sparse payloads;
//   * hierarchical pre-reduction (§IV-E): on iff the measured window path
//     beats the best flat reduction (and nodes hold more than one rank);
//   * epoch length (§IV-D): the smallest epoch whose predicted aggregation
//     overhead stays below a target fraction of the epoch's sampling time;
//   * frame representation: with a per-sample touch estimate, the tuner
//     predicts the sparse delta image of an epoch and, when it undercuts
//     the dense frame, re-decides strategy and epoch length at the sparse
//     payload (the per-byte beta makes both meaningful at any size) and
//     emits frame_rep = auto. Shorter epochs shrink the payload further,
//     so the sizing iterates to a fixed point - this is what lets short
//     epochs, huge V, and fine-grained stop checks coexist.
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "comm/substrate.hpp"
#include "engine/engine.hpp"
#include "support/timer.hpp"
#include "tune/cost_model.hpp"

namespace distbc::tune {

struct ClusterShape {
  int num_ranks = 1;
  int ranks_per_node = 1;
  int threads_per_rank = 1;

  [[nodiscard]] bool operator==(const ClusterShape&) const = default;
};

struct TuningProfile {
  ClusterShape shape;
  double oversubscription = 1.0;
  /// Duration of the microbench's stand-in sample; the fallback per-sample
  /// cost when a workload does not supply its own measurement.
  double work_unit_s = 20e-6;
  /// Winning radix of the microbench's kTreeMerge sweep - the radix the
  /// fitted tree_merge line was measured at, and the one tune_decision
  /// emits when that line wins. 0 when the arm did not run on this shape.
  int tree_radix = 0;
  /// Winning radix of the kTwoLevel leader-tree sweep (same contract).
  int leader_radix = 0;
  /// The comm substrate the microbench arms ran on: a profile prices one
  /// backend's link economics and is only valid for sessions on it.
  comm::SubstrateKind substrate = comm::SubstrateKind::kMpisim;
  CostModel model;
  /// Keys this parser did not recognize, preserved verbatim (in input
  /// order) and re-emitted by serialize() - a profile written by a newer
  /// library round-trips through an older one without losing fields.
  std::vector<std::pair<std::string, std::string>> extras;

  /// Serializes to the "key = value" profile text format (one line per
  /// field, '#' comments allowed on parse).
  [[nodiscard]] std::string serialize() const;
  [[nodiscard]] static std::optional<TuningProfile> parse(
      std::string_view text);

  /// File round-trip; save returns false (load nullopt) on I/O failure.
  [[nodiscard]] bool save(const std::string& path) const;
  [[nodiscard]] static std::optional<TuningProfile> load(
      const std::string& path);
};

/// Runs the microbench for the configured shape and fits the profile -
/// the one-call capture path. The profile records config.substrate.
[[nodiscard]] TuningProfile capture_profile(const MicrobenchConfig& config);

/// Captures one profile per substrate on the same cluster shape: the full
/// CommBench arm sweep re-runs under each backend's link economics
/// (config.substrate is overridden per capture). Pattern rankings shift
/// across backends, so a multi-substrate deployment needs one profile
/// each.
[[nodiscard]] std::vector<TuningProfile> capture_profiles(
    const MicrobenchConfig& config,
    std::span<const comm::SubstrateKind> substrates);

struct TuneRequest {
  /// Flat uint64 words of the workload's epoch frame (the aggregation
  /// payload).
  std::size_t frame_words = 1;
  /// Measured seconds per sample of this workload; 0 falls back to the
  /// profile's work-unit calibration.
  double sample_seconds = 0.0;
  /// Average dense frame words one sample writes (e.g. internal path
  /// vertices + tau for betweenness, measured on calibration). Feeds the
  /// frame_rep decision: predicted sparse payload = epoch samples x this,
  /// capped at the dense frame. 0 = unknown; frame_rep keeps base's value.
  double touched_words_per_sample = 0.0;
  /// Epoch sizing target: predicted aggregation overhead per epoch stays
  /// below this fraction of the epoch's sampling time.
  double target_overhead = 0.1;
  /// Decision margin: Ibarrier+Reduce is the paper-backed prior, so a
  /// competing flat strategy (or the hierarchical path over the best flat
  /// one) must be predicted cheaper by this fraction to override it.
  /// Microbench medians on near-parity shapes carry ~20% spread; §IV-F
  /// carries evidence, so only a decisive measurement overrides it.
  double decision_margin = 0.3;
  /// Starting options; tuning preserves fields it does not decide
  /// (determinism, epoch exponent, max_epochs, ...).
  engine::EngineOptions base{};
};

struct TuneDecision {
  engine::EngineOptions options{};
  /// The pattern the decision is based on (kWindowPreReduce when the
  /// hierarchical path won).
  Pattern pattern = Pattern::kIbarrierReduce;
  /// The representation the decision priced (mirrors options.frame_rep).
  engine::FrameRep frame_rep = engine::FrameRep::kDense;
  double predicted_overhead_s = 0.0;  // exposed comm seconds per epoch
  double predicted_epoch_s = 0.0;     // sampling + exposed comm per epoch
  /// Predicted per-epoch aggregation payload at the chosen representation.
  std::uint64_t predicted_wire_bytes = 0;
};

/// The full decision, with the predictions that justify it.
[[nodiscard]] TuneDecision tune_decision(const TuningProfile& profile,
                                         const TuneRequest& request);

/// Convenience: just the tuned engine options.
[[nodiscard]] engine::EngineOptions tuned_options(const TuningProfile& profile,
                                                  const TuneRequest& request);

/// The engine Aggregation a flat pattern maps to.
[[nodiscard]] engine::Aggregation pattern_aggregation(Pattern pattern);

/// Quick per-sample cost probe for workloads without a calibration phase:
/// times `probes` samples of a throwaway stream-0 sampler into a scratch
/// frame. The probe sampler is independent of the run's samplers, so the
/// run's RNG streams are untouched.
template <typename Frame, typename MakeSampler>
[[nodiscard]] double measure_sample_seconds(const Frame& prototype,
                                            MakeSampler&& make_sampler,
                                            int probes = 16) {
  Frame scratch(prototype);
  scratch.clear();
  auto sampler = make_sampler(std::uint64_t{0});
  WallTimer timer;
  for (int i = 0; i < probes; ++i) sampler.sample(scratch);
  return timer.elapsed_s() / static_cast<double>(probes);
}

}  // namespace distbc::tune
