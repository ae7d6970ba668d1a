// The epoch-sampling engine: one compiled implementation of the paper's
// Algorithm 2 serving every adaptive-sampling workload and every backend.
//
// A workload brings three values, none of them a type: the payload width of
// its epoch::StateFrame, a sampler per RNG stream, and a stopping rule over
// the aggregated frame. Everything the paper contributes is engine
// machinery shared by all of them (engine.cpp):
//   * per-thread wait-free frames with overlapped epoch transitions (§IV-B/C),
//   * the epoch-length rule (§IV-D, streams.hpp),
//   * selectable aggregation strategies (§IV-F): Ibarrier + blocking Reduce,
//     plain Ireduce, or fully blocking,
//   * hierarchical node-local RMA pre-reduction (§IV-E, hierarchy.hpp):
//     only node leaders join the global merge, then rebroadcast its result
//     over their node,
//   * decentralized termination: the epoch's wire images meet in one
//     all-reduce merge (the tree shape is the communicator's, as with an
//     MPI library), so every rank evaluates the stopping rule locally on
//     identical data - no rank-0 verdict broadcast,
//   * per-phase stats plumbing.
//
// Every multi-rank aggregation ships a frame as a wire image sized by its
// data (epoch/frame_codec.hpp). Images carry exact uint64 counts and decode
// by a commutative elementwise sum, so in deterministic mode the aggregate
// does not depend on the topology or on which images went dense.
//
// Backends are pure configurations of this engine:
//   seq = no communicator (world == nullptr), 1 thread;
//   shm = no communicator, T threads;
//   mpi = P ranks x T threads over an mpisim communicator.
// With a null communicator (or a 1-rank world) every collective degenerates
// to a no-op and the epoch aggregate feeds the stopping rule directly.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string_view>

#include "engine/streams.hpp"
#include "epoch/state_frame.hpp"
#include "mpisim/comm.hpp"
#include "support/timer.hpp"

namespace distbc::engine {

/// Aggregation strategies of paper §IV-F.
enum class Aggregation : std::uint8_t {
  kIbarrierReduce,  // paper's final choice: Ibarrier, then blocking Reduce
  kIreduce,         // plain non-blocking reduction (progresses poorly)
  kBlocking         // no overlap at all ("again detrimental")
};

[[nodiscard]] const char* aggregation_name(Aggregation aggregation);

[[nodiscard]] std::optional<Aggregation> aggregation_from_name(
    std::string_view name);

struct EngineOptions {
  int threads_per_rank = 1;
  Aggregation aggregation = Aggregation::kIbarrierReduce;
  /// §IV-E: node-local shared-memory pre-aggregation; only node leaders
  /// join the global reduction. Ignored on single-rank runs.
  bool hierarchical = false;
  /// Epoch length rule n0 = epoch_base * streams^epoch_exponent (§IV-D),
  /// counting *total* samples per epoch across all streams.
  std::uint64_t epoch_base = 1000;
  double epoch_exponent = 1.33;
  /// Optional cap on the total epoch length (0 = none). Adaptive drivers
  /// clamp with a fraction of their sample budget so the first stopping
  /// check happens before easy instances overshoot termination.
  std::uint64_t max_epoch_length = 0;
  /// Hard cap on epochs (safety net for never-converging stop rules).
  std::uint64_t max_epochs = 1u << 20;
  /// Deterministic mode: every stream contributes an exact per-epoch share
  /// and no overlap samples are taken, so the aggregate after every epoch
  /// is a pure function of (seed, streams, epoch schedule) - bitwise
  /// identical across backends, cluster shapes, and aggregation strategies.
  bool deterministic = false;
  /// Stream count for deterministic mode (0 = physical thread count).
  /// Fixing it decouples the sample set from the physical layout.
  std::uint64_t virtual_streams = 0;
  /// Keep this rank's own samples in EngineResult::local_aggregate, for
  /// collectives over per-rank partials (multi-rank top-k). Off by
  /// default: it costs a frame and one merge per epoch.
  bool local_aggregates = false;
};

/// Number of RNG streams a run with these options draws from; sampler
/// factories receive stream indices in [0, num_streams).
[[nodiscard]] inline std::uint64_t num_streams(const EngineOptions& options,
                                               int num_ranks) {
  const auto physical = static_cast<std::uint64_t>(num_ranks) *
                        static_cast<std::uint64_t>(options.threads_per_rank);
  if (options.deterministic && options.virtual_streams != 0)
    return options.virtual_streams;
  return physical;
}

/// Takes one sample into a frame. A stream's sampler owns its RNG and
/// workspaces, so no two threads ever share one.
using Sampler = std::function<void(epoch::StateFrame&)>;

/// Builds the sampler of stream `v`, v in [0, num_streams); called once
/// per stream and run.
using SamplerFactory = std::function<Sampler(std::uint64_t v)>;

/// The stopping rule. Every rank evaluates it on its own copy of the
/// identical merged aggregate, so it must be a pure function of that
/// aggregate, or ranks diverge and the run deadlocks.
using StopRule = std::function<bool(const epoch::StateFrame&)>;

/// What ended a run: its stopping rule, or the `max_epochs` cap with the
/// rule still unsatisfied (the aggregate then misses the rule's target).
enum class StopReason : std::uint8_t { kRule, kMaxEpochs };

struct EngineResult {
  /// Consistent final state, identical on every rank.
  epoch::StateFrame aggregate;
  /// This rank's own aggregated samples - valid on every rank when
  /// EngineOptions::local_aggregates is set (a zero-word frame otherwise).
  /// The elementwise sum of all ranks' local aggregates equals `aggregate`.
  epoch::StateFrame local_aggregate;
  std::uint64_t epochs = 0;
  StopReason stop_reason = StopReason::kRule;
  std::uint64_t samples_attempted = 0;  // all ranks (valid at rank 0)
  /// Payload moved over the communicators this engine used, including the
  /// hierarchy's split communicators (cumulative over their lifetime), per
  /// collective (elementwise reductions vs wire-image merge reductions vs
  /// window/p2p vs broadcasts); total() is the sum.
  mpisim::CommVolume comm_volume{};
  PhaseTimer phases{};
  double total_seconds = 0.0;
};

/// Parallel calibration sampling (the engine's calibration-phase hook):
/// distributes `total_budget` samples over the run's streams, samples them
/// with all threads in parallel, and reduces the frames to world rank 0.
/// The returned frame holds the full aggregate at rank 0 and this rank's
/// local aggregate elsewhere. Collective when `world` is multi-rank.
[[nodiscard]] epoch::StateFrame calibrate(mpisim::Comm* world,
                                          std::size_t payload_words,
                                          const SamplerFactory& make_sampler,
                                          std::uint64_t total_budget,
                                          const EngineOptions& options);

/// Algorithm 2: epoch-based adaptive sampling into frames of
/// `payload_words` payload words until `should_stop` fires. Pass
/// world == nullptr for a communicator-free (seq/shm) run.
[[nodiscard]] EngineResult run_epochs(mpisim::Comm* world,
                                      std::size_t payload_words,
                                      const SamplerFactory& make_sampler,
                                      const StopRule& should_stop,
                                      const EngineOptions& options);

}  // namespace distbc::engine
