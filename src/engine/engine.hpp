// The pluggable epoch-sampling engine: one implementation of the paper's
// Algorithm 2 serving every adaptive-sampling workload and every backend.
//
// The algorithm-specific pieces - the state-frame layout, the sampling
// kernel, the stopping rule - are template parameters; everything the paper
// contributes is engine machinery shared by all of them:
//   * per-thread wait-free frames with overlapped epoch transitions (§IV-B/C),
//   * the epoch-length rule (§IV-D, streams.hpp),
//   * selectable aggregation strategies (§IV-F): Ibarrier + blocking Reduce,
//     plain Ireduce, or fully blocking,
//   * hierarchical node-local RMA pre-reduction (§IV-E, hierarchy.hpp),
//     composable with a leader-level radix tree into one two-level merge
//     path (EngineOptions::leader_radix),
//   * decentralized termination: the merged epoch aggregate is distributed
//     to every rank (all-reduce flavors, or the tree path's downward
//     broadcast leg), so each rank evaluates the stopping rule locally on
//     identical data - no rank-0 verdict broadcast,
//   * per-phase stats plumbing.
//
// Backends are pure configurations of this engine:
//   seq = no communicator (world == nullptr), 1 thread;
//   shm = no communicator, T threads;
//   mpi = P ranks x T threads over an mpisim communicator.
// With a null communicator (or a 1-rank world) every collective degenerates
// to a no-op and the epoch aggregate feeds the stopping rule directly.
//
// Requirements on Frame:
//   Frame(const Frame&)            - copyable prototype construction
//   void clear()
//   void merge(const Frame&)       - equivalent to elementwise sum
//   std::span<std::uint64_t> raw() - the frame as one flat uint64 array,
//     all the engine needs: every multi-rank aggregation encodes it into a
//     variable-length wire image sized by its data (epoch/frame_codec.hpp:
//     sparse index/count deltas while they are smaller, the paper's
//     §III-B dense layout otherwise), moved by the substrate's merge
//     family and accumulated into the §IV-E window. Images carry exact
//     uint64 counts and decode by a commutative elementwise sum, so in
//     deterministic mode the aggregate does not depend on the topology or
//     on which images went dense.
// Requirements on the sampler factory: Sampler make(stream_index) for
// stream indices in [0, num_streams), where Sampler provides
// void sample(Frame&). Requirements on the stop functor (evaluated on EVERY
// rank, each holding the identical merged aggregate - it must be a pure
// function of that aggregate, or ranks diverge and the run deadlocks):
// bool operator()(const Frame&).
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "engine/hierarchy.hpp"
#include "engine/streams.hpp"
#include "epoch/epoch_manager.hpp"
#include "epoch/frame_codec.hpp"
#include "comm/substrate.hpp"
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
  /// Tree-merge aggregation of wire images (mpisim reduce_merge_tree):
  /// 0 = flat (the root ingests every per-rank image); >= 2 = images
  /// combine at interior ranks of a radix-k tree with mid-tree
  /// densification, charging alpha-beta per hop, so root ingest shrinks
  /// from O(P x nnz) to the top-of-tree merged images and latency grows
  /// with depth instead of P. The final aggregate is bitwise identical in
  /// deterministic mode. Environment defaulting (DISTBC_TREE_RADIX) is
  /// api::Config's job, not the engine's.
  int tree_radix = 0;
  /// Radix of the leader-level (inter-node) merge when `hierarchical` is
  /// set - the top half of the two-level path: ranks pre-reduce over the
  /// node window, node leaders tree-merge at this radix. 0 = inherit
  /// tree_radix, so existing single-knob configurations keep their PR 4
  /// shape; >= 2 overrides it for the leader hop class only (intra-node
  /// stays the RMA window pass either way). Ignored without `hierarchical`.
  /// Environment defaulting (DISTBC_LEADER_RADIX) is api::Config's job.
  int leader_radix = 0;
  /// Keep per-rank local aggregates: every rank (the root included) also
  /// accumulates its own epoch snapshots into
  /// EngineResult::local_aggregate, feeding collectives that operate on
  /// per-rank partials (e.g. the distributed top-k extraction). Off by
  /// default - it costs one frame merge per epoch. Drivers set it
  /// themselves (kadabra_run, for multi-rank top-k); api::Config has no
  /// key for it.
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

/// What ended a run: its stopping rule, or the `max_epochs` cap with the
/// rule still unsatisfied (the aggregate then misses the rule's target).
enum class StopReason : std::uint8_t { kRule, kMaxEpochs };

template <typename Frame>
struct EngineResult {
  Frame aggregate;  // consistent final state (identical on every rank)
  /// This rank's own aggregated samples - valid on every rank when
  /// EngineOptions::local_aggregates is set (empty otherwise). The
  /// elementwise sum of all ranks' local aggregates equals `aggregate`.
  Frame local_aggregate;
  std::uint64_t epochs = 0;
  StopReason stop_reason = StopReason::kRule;
  std::uint64_t samples_attempted = 0;  // all ranks (valid at rank 0)
  /// Payload moved over the communicators this engine used, including the
  /// hierarchical substrate (cumulative over the comm's lifetime).
  std::uint64_t comm_bytes = 0;
  /// Per-collective breakdown of comm_bytes (elementwise reductions vs
  /// wire-image merge reductions vs window/p2p vs broadcasts).
  comm::CommVolume comm_volume{};
  PhaseTimer phases{};
  double total_seconds = 0.0;
};

namespace detail {

/// The streams a physical thread owns, with their exact per-epoch shares
/// (used in deterministic mode; free-running threads own exactly one).
template <typename Sampler>
struct ThreadStreams {
  struct Stream {
    Sampler sampler;
    std::uint64_t share;
  };
  std::vector<Stream> streams;

  template <typename Frame>
  std::uint64_t sample_shares(Frame& frame) {
    std::uint64_t count = 0;
    for (Stream& stream : streams) {
      for (std::uint64_t i = 0; i < stream.share; ++i)
        stream.sampler.sample(frame);
      count += stream.share;
    }
    return count;
  }
};

/// Builds each local thread's stream set: stream v goes to global thread
/// v mod PT, with its exact share of `total` samples. Calibration and the
/// epoch loop MUST use this same assignment, or deterministic-mode runs
/// diverge across backends.
template <typename MakeSampler>
auto assign_streams(int rank, int num_threads, std::uint64_t total_threads,
                    std::uint64_t streams, std::uint64_t total,
                    MakeSampler&& make_sampler) {
  using Sampler = std::decay_t<decltype(make_sampler(std::uint64_t{0}))>;
  std::vector<ThreadStreams<Sampler>> thread_streams(num_threads);
  for (std::uint64_t v = 0; v < streams; ++v) {
    const std::uint64_t owner = stream_owner(v, total_threads);
    if (owner / num_threads != static_cast<std::uint64_t>(rank)) continue;
    thread_streams[owner % num_threads].streams.push_back(
        {make_sampler(v), stream_share(total, v, streams)});
  }
  return thread_streams;
}

}  // namespace detail

/// Parallel calibration sampling (the engine's calibration-phase hook):
/// distributes `total_budget` samples over the run's streams, samples them
/// with all threads in parallel, and reduces the frames to world rank 0.
/// The returned frame holds the full aggregate at rank 0 and this rank's
/// local aggregate elsewhere. Collective when `world` is multi-rank.
template <typename Frame, typename MakeSampler>
Frame calibrate(comm::Substrate* world, const Frame& prototype,
                MakeSampler&& make_sampler, std::uint64_t total_budget,
                const EngineOptions& options) {
  DISTBC_ASSERT(options.threads_per_rank >= 1);
  const int num_ranks = world != nullptr ? world->size() : 1;
  const int rank = world != nullptr ? world->rank() : 0;
  const int num_threads = options.threads_per_rank;
  const auto total_threads =
      static_cast<std::uint64_t>(num_ranks) * num_threads;
  const std::uint64_t streams = num_streams(options, num_ranks);

  std::vector<Frame> frames(num_threads, prototype);
  for (Frame& frame : frames) frame.clear();

  auto thread_streams = detail::assign_streams(
      rank, num_threads, total_threads, streams, total_budget, make_sampler);

  auto worker = [&](int t) { thread_streams[t].sample_shares(frames[t]); };
  std::vector<std::thread> pool;
  pool.reserve(num_threads - 1);
  for (int t = 1; t < num_threads; ++t) pool.emplace_back(worker, t);
  worker(0);
  for (auto& thread : pool) thread.join();

  Frame local(prototype);
  local.clear();
  for (const Frame& frame : frames) local.merge(frame);
  if (num_ranks <= 1) return local;

  Frame aggregate(prototype);
  aggregate.clear();
  std::vector<std::uint64_t> image;
  epoch::append_image(local.raw(), image);
  const auto merge_image = [&](int,
                               std::span<const std::uint64_t> contribution) {
    epoch::decode_add_image(aggregate.raw(), contribution);
  };
  if (options.tree_radix >= 2) {
    // By-value capture: the stored combiner runs at the *last* arrival,
    // possibly after fast non-root ranks left this scope.
    const std::size_t dense_words = local.raw().size();
    world->reduce_merge_tree(
        std::span<const std::uint64_t>(image),
        [dense_words](std::vector<std::uint64_t>& acc,
                      std::span<const std::uint64_t> in) {
          epoch::merge_images(acc, in, dense_words);
        },
        merge_image, 0, options.tree_radix);
  } else {
    world->reduce_merge(std::span<const std::uint64_t>(image), merge_image,
                        0);
  }
  return world->rank() == 0 ? aggregate : local;
}

/// Algorithm 2: epoch-based adaptive sampling until the stop rule fires.
/// Pass world == nullptr for a communicator-free (seq/shm) run.
template <typename Frame, typename MakeSampler, typename StopFn>
EngineResult<Frame> run_epochs(comm::Substrate* world, const Frame& prototype,
                               MakeSampler&& make_sampler,
                               StopFn&& should_stop,
                               const EngineOptions& options) {
  DISTBC_ASSERT(options.threads_per_rank >= 1);
  DISTBC_ASSERT_MSG(options.deterministic || options.virtual_streams == 0,
                    "virtual streams require deterministic mode");
  WallTimer total_timer;
  EngineResult<Frame> result{.aggregate = prototype,
                             .local_aggregate = prototype};
  result.aggregate.clear();
  result.local_aggregate.clear();

  const int num_ranks = world != nullptr ? world->size() : 1;
  const int rank = world != nullptr ? world->rank() : 0;
  const int num_threads = options.threads_per_rank;
  const bool is_root = rank == 0;
  const bool multi_rank = num_ranks > 1;
  const auto total_threads =
      static_cast<std::uint64_t>(num_ranks) * num_threads;
  const std::uint64_t streams = num_streams(options, num_ranks);

  // Total epoch length (§IV-D), clamped so adaptive rules get their first
  // stopping check before easy instances sample far past termination.
  std::uint64_t n0_total =
      epoch_length(options.epoch_base, options.epoch_exponent, streams);
  if (options.max_epoch_length != 0)
    n0_total = std::max<std::uint64_t>(
        1, std::min(n0_total, options.max_epoch_length));
  // Free-running mode: every physical thread samples at the same rate and
  // thread zero's fixed share paces the epoch.
  const std::uint64_t n0_share =
      std::max<std::uint64_t>(1, ceil_div(n0_total, total_threads));

  // Stream ownership: stream v belongs to global thread v mod PT. In
  // free-running mode streams == PT, so thread (rank, t) owns exactly
  // stream rank * T + t - the unified RNG-stream derivation rule.
  auto thread_streams = detail::assign_streams(
      rank, num_threads, total_threads, streams, n0_total, make_sampler);

  Hierarchy hierarchy;
  if (options.hierarchical && multi_rank)
    hierarchy.init(*world, result.aggregate.raw().size());

  epoch::EpochManager<Frame> manager(num_threads, prototype);
  std::vector<std::uint64_t> taken(num_threads, 0);

  // Worker threads (t != 0). Free-running: sample continuously, joining
  // epoch transitions wait-free. Deterministic: contribute the exact
  // per-stream shares, then wait for thread zero to force the transition.
  auto worker_main = [&](int t) {
    std::uint32_t epoch = 0;
    std::uint64_t count = 0;
    if (options.deterministic) {
      while (true) {
        count += thread_streams[t].sample_shares(manager.frame(t, epoch));
        while (!manager.check_transition(t, epoch)) {
          if (manager.stopped()) {
            taken[t] = count;
            return;
          }
          std::this_thread::yield();
        }
        ++epoch;
      }
    }
    auto& stream = thread_streams[t].streams.front();
    while (!manager.stopped()) {
      stream.sampler.sample(manager.frame(t, epoch));
      ++count;
      if (manager.check_transition(t, epoch)) ++epoch;
    }
    taken[t] = count;
  };
  std::vector<std::thread> workers;
  workers.reserve(num_threads - 1);
  for (int t = 1; t < num_threads; ++t) workers.emplace_back(worker_main, t);

  // Thread zero: the main loop of Algorithm 2.
  {
    Frame snapshot(prototype);   // S^e_loc: this rank's epoch aggregate
    Frame epoch_agg(prototype);  // S^e: global epoch aggregate (at root)
    std::vector<std::uint64_t> wire_buffer;  // reused encode scratch
    std::uint8_t done_flag = 0;
    std::uint32_t epoch = 0;
    std::uint64_t count = 0;

    // One overlap sample into the *next* epoch's frame (Algorithm 2 lines
    // 15, 21, 27); disabled in deterministic mode, where communication
    // waits must not inject timing-dependent samples. The yield matters on
    // oversubscribed hosts (cores < ranks x threads): without it the spin
    // starves peers that still need the CPU to reach the collective, and
    // the stretched wait floods the next epoch with overlap samples.
    auto overlap_sample = [&] {
      if (!options.deterministic && !thread_streams[0].streams.empty()) {
        thread_streams[0].streams.front().sampler.sample(
            manager.frame(0, epoch + 1));
        ++count;
      }
      std::this_thread::yield();
    };

    // The stop check every rank runs on the identical aggregate: the rule
    // first, then the epoch cap, recorded as the reason when it alone ends
    // the run.
    auto stop_check = [&]() -> std::uint8_t {
      return result.phases.timed(Phase::kStopCheck, [&]() -> std::uint8_t {
        if (should_stop(std::as_const(result.aggregate))) return 1;
        if (result.epochs + 1 < options.max_epochs) return 0;
        result.stop_reason = StopReason::kMaxEpochs;
        return 1;
      });
    };

    // One §IV-F strategy dispatch serving every merge shape: the callers
    // supply the blocking reduction and the non-blocking starter.
    auto run_aggregation = [&](comm::Substrate& global, auto&& blocking_reduce,
                               auto&& start_reduce) {
      switch (options.aggregation) {
        case Aggregation::kIbarrierReduce: {
          result.phases.timed(Phase::kBarrier, [&] {
            comm::Request barrier = global.ibarrier();
            while (!barrier.test()) overlap_sample();
          });
          result.phases.timed(Phase::kReduction, blocking_reduce);
          break;
        }
        case Aggregation::kIreduce: {
          result.phases.timed(Phase::kReduction, [&] {
            comm::Request reduce = start_reduce();
            while (!reduce.test()) overlap_sample();
          });
          break;
        }
        case Aggregation::kBlocking: {
          result.phases.timed(Phase::kReduction, blocking_reduce);
          break;
        }
      }
    };

    while (true) {
      result.phases.timed(Phase::kSampling, [&] {
        if (options.deterministic) {
          count += thread_streams[0].sample_shares(manager.frame(0, epoch));
        } else {
          auto& stream = thread_streams[0].streams.front();
          for (std::uint64_t i = 0; i < n0_share; ++i) {
            stream.sampler.sample(manager.frame(0, epoch));
            ++count;
          }
        }
      });

      // Epoch transition, overlapped with sampling (paper Figure 1).
      result.phases.timed(Phase::kEpochTransition, [&] {
        manager.force_transition(epoch);
        while (!manager.transition_done(epoch)) overlap_sample();
      });
      snapshot.clear();
      manager.collect(epoch, snapshot);
      // Per-rank partials, captured before the hierarchy can replace a
      // leader's snapshot with its node aggregate.
      if (options.local_aggregates) result.local_aggregate.merge(snapshot);

      if (!multi_rank) {
        // Null/1-rank communicator: the epoch aggregate is already global.
        result.aggregate.merge(snapshot);
        done_flag = stop_check();
      } else {
        // Node-local pre-aggregation via the shared window (§IV-E).
        bool in_global = true;
        if (hierarchy.active())
          in_global = hierarchy.pre_reduce(snapshot.raw());

        // Effective radix of the global merge. Under the two-level path
        // (hierarchy active) the leader hop class may pick its own radix;
        // 0 inherits tree_radix so single-knob configurations keep their
        // established shape.
        const int radix = hierarchy.active() && options.leader_radix != 0
                              ? options.leader_radix
                              : options.tree_radix;

        // Ships epoch_agg from `comm` rank zero to every rank of `comm`
        // as a length-prefixed wire image, with the strategy-matching
        // overlap behavior; receivers rebuild their epoch_agg from it.
        // The downward leg of the tree path and of the two-level path's
        // intra-node redistribution.
        auto distribute_image = [&](comm::Substrate& comm) {
          auto bcast = [&](std::span<std::uint64_t> span) {
            if (options.aggregation == Aggregation::kBlocking) {
              // §IV-F's fully blocking variant: no overlap anywhere, the
              // distribution legs included.
              comm.bcast(span, 0);
            } else {
              comm::Request request = comm.ibcast(span, 0);
              while (!request.test()) overlap_sample();
            }
          };
          const bool sender = comm.rank() == 0;
          if (sender) {
            wire_buffer.clear();
            epoch::append_image(epoch_agg.raw(), wire_buffer);
          }
          std::uint64_t words = wire_buffer.size();
          bcast(std::span{&words, 1});
          if (!sender) wire_buffer.resize(words);
          bcast(std::span<std::uint64_t>(wire_buffer));
          if (!sender) {
            epoch_agg.clear();
            epoch::decode_add_image(epoch_agg.raw(), wire_buffer);
          }
        };

        // Global aggregation (§IV-F strategies), decentralized: every
        // participant ends the phase holding the identical merged epoch
        // aggregate. With hierarchy the merge runs on the node-leader
        // communicator whose rank zero is world rank zero. Each rank ships
        // its snapshot's wire image; flat merges ride the all-reduce
        // flavor (no root hotspot at all), the radix tree merges toward
        // rank zero and broadcasts the merged image back down.
        if (in_global) {
          comm::Substrate& global =
              hierarchy.active() ? hierarchy.global() : *world;
          wire_buffer.clear();
          epoch::append_image(snapshot.raw(), wire_buffer);
          epoch_agg.clear();
          auto merge_image = [&](int, std::span<const std::uint64_t> image) {
            epoch::decode_add_image(epoch_agg.raw(), image);
          };
          const std::span<const std::uint64_t> send(wire_buffer);
          if (radix >= 2) {
            // Tree merge: images combine at interior ranks, so the root
            // ingests only the top-of-tree merged images. The combiner
            // captures by VALUE: the slot stores the first poster's
            // closure and invokes it at the last arrival, by which time a
            // fast non-root rank's non-blocking aggregation has completed
            // and this epoch scope is gone (use-after-scope otherwise; the
            // golden-score tests run this shape under ASan).
            const std::size_t dense_words = snapshot.raw().size();
            auto combine_image = [dense_words](
                                     std::vector<std::uint64_t>& acc,
                                     std::span<const std::uint64_t> in) {
              epoch::merge_images(acc, in, dense_words);
            };
            run_aggregation(
                global,
                [&] {
                  global.reduce_merge_tree(send, combine_image, merge_image,
                                           0, radix);
                },
                [&] {
                  return global.ireduce_merge_tree(send, combine_image,
                                                   merge_image, 0, radix);
                });
            // Downward leg: the merged image returns to every participant,
            // completing the all-reduce semantics the flat flavor gets
            // natively.
            result.phases.timed(Phase::kBroadcast,
                                [&] { distribute_image(global); });
          } else {
            run_aggregation(
                global, [&] { global.allreduce_merge(send, merge_image); },
                [&] { return global.iallreduce_merge(send, merge_image); });
          }
        }

        // Two-level downward leg: leaders now hold the global aggregate;
        // redistribute its wire image over the intra-node communicator so
        // non-leader ranks hold it too.
        if (hierarchy.active()) {
          result.phases.timed(Phase::kBroadcast,
                              [&] { distribute_image(hierarchy.node()); });
        }

        // Decentralized termination: every rank holds the identical
        // merged aggregate and evaluates the stopping rule on it, so all
        // ranks reach the same verdict independently - the rank-0 verdict
        // broadcast this protocol replaces cost a latency-bound
        // synchronization per epoch at exactly the moment every rank was
        // about to diverge into the next epoch's sampling.
        result.aggregate.merge(epoch_agg);
        done_flag = stop_check();
      }

      ++result.epochs;
      if (done_flag != 0) {
        manager.signal_stop();
        break;
      }
      ++epoch;
    }
    taken[0] = count;
  }
  for (auto& worker : workers) worker.join();

  // Work accounting (Figure 3b): samples attempted by all threads of all
  // ranks, including overlap samples that were never aggregated.
  std::uint64_t local_taken = 0;
  for (const std::uint64_t t : taken) local_taken += t;
  if (multi_rank) {
    std::uint64_t world_taken = 0;
    world->reduce(std::span<const std::uint64_t>(&local_taken, 1),
                  std::span{&world_taken, 1}, 0);
    result.samples_attempted = is_root ? world_taken : local_taken;
    result.comm_volume = world->volume();
    result.comm_volume += hierarchy.volume();
    result.comm_bytes = result.comm_volume.total();
  } else {
    result.samples_attempted = local_taken;
  }
  result.total_seconds = total_timer.elapsed_s();
  return result;
}

}  // namespace distbc::engine
