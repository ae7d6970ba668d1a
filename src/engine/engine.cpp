#include "engine/engine.hpp"

#include <algorithm>
#include <atomic>
#include <span>
#include <thread>
#include <utility>
#include <vector>

#include "engine/hierarchy.hpp"
#include "epoch/epoch_manager.hpp"
#include "epoch/frame_codec.hpp"

namespace distbc::engine {

const char* aggregation_name(Aggregation aggregation) {
  switch (aggregation) {
    case Aggregation::kIbarrierReduce:
      return "ibarrier+reduce";
    case Aggregation::kIreduce:
      return "ireduce";
    case Aggregation::kBlocking:
      return "blocking";
  }
  return "?";
}

std::optional<Aggregation> aggregation_from_name(std::string_view name) {
  for (const Aggregation aggregation :
       {Aggregation::kIbarrierReduce, Aggregation::kIreduce,
        Aggregation::kBlocking}) {
    if (name == aggregation_name(aggregation)) return aggregation;
  }
  return std::nullopt;
}

namespace {

/// The streams a physical thread owns, with their exact per-epoch shares
/// (used in deterministic mode; free-running threads own exactly one).
struct ThreadStreams {
  struct Stream {
    Sampler sampler;
    std::uint64_t share;
  };
  std::vector<Stream> streams;

  std::uint64_t sample_shares(epoch::StateFrame& frame) {
    std::uint64_t count = 0;
    for (Stream& stream : streams) {
      for (std::uint64_t i = 0; i < stream.share; ++i) stream.sampler(frame);
      count += stream.share;
    }
    return count;
  }
};

/// Builds each local thread's stream set: stream v goes to global thread
/// v mod PT, with its exact share of `total` samples. Calibration and the
/// epoch loop MUST use this same assignment, or deterministic-mode runs
/// diverge across backends.
std::vector<ThreadStreams> assign_streams(int rank, int num_threads,
                                          std::uint64_t total_threads,
                                          std::uint64_t streams,
                                          std::uint64_t total,
                                          const SamplerFactory& make_sampler) {
  std::vector<ThreadStreams> thread_streams(num_threads);
  for (std::uint64_t v = 0; v < streams; ++v) {
    const std::uint64_t owner = stream_owner(v, total_threads);
    if (owner / num_threads != static_cast<std::uint64_t>(rank)) continue;
    thread_streams[owner % num_threads].streams.push_back(
        {make_sampler(v), stream_share(total, v, streams)});
  }
  return thread_streams;
}

}  // namespace

epoch::StateFrame calibrate(mpisim::Comm* world, std::size_t payload_words,
                            const SamplerFactory& make_sampler,
                            std::uint64_t total_budget,
                            const EngineOptions& options) {
  DISTBC_ASSERT(options.threads_per_rank >= 1);
  const int num_ranks = world != nullptr ? world->size() : 1;
  const int rank = world != nullptr ? world->rank() : 0;
  const int num_threads = options.threads_per_rank;
  const auto total_threads =
      static_cast<std::uint64_t>(num_ranks) * num_threads;
  const std::uint64_t streams = num_streams(options, num_ranks);

  std::vector<epoch::StateFrame> frames(num_threads,
                                        epoch::StateFrame(payload_words));
  auto thread_streams = assign_streams(
      rank, num_threads, total_threads, streams, total_budget, make_sampler);

  auto worker = [&](int t) { thread_streams[t].sample_shares(frames[t]); };
  std::vector<std::thread> pool;
  pool.reserve(num_threads - 1);
  for (int t = 1; t < num_threads; ++t) pool.emplace_back(worker, t);
  worker(0);
  for (auto& thread : pool) thread.join();

  epoch::StateFrame local(payload_words);
  for (const epoch::StateFrame& frame : frames) local.merge(frame);
  if (num_ranks <= 1) return local;

  epoch::StateFrame aggregate(payload_words);
  std::vector<std::uint64_t> image;
  epoch::append_image(local.raw(), image);
  world->reduce_merge(
      std::span<const std::uint64_t>(image),
      [&](int, std::span<const std::uint64_t> contribution) {
        epoch::decode_add_image(aggregate.raw(), contribution);
      },
      0);
  return world->rank() == 0 ? aggregate : local;
}

EngineResult run_epochs(mpisim::Comm* world, std::size_t payload_words,
                        const SamplerFactory& make_sampler,
                        const StopRule& should_stop,
                        const EngineOptions& options) {
  DISTBC_ASSERT(options.threads_per_rank >= 1);
  DISTBC_ASSERT_MSG(options.deterministic || options.virtual_streams == 0,
                    "virtual streams require deterministic mode");
  WallTimer total_timer;
  EngineResult result;
  result.aggregate = epoch::StateFrame(payload_words);
  if (options.local_aggregates)
    result.local_aggregate = epoch::StateFrame(payload_words);

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
  auto thread_streams = assign_streams(rank, num_threads, total_threads,
                                       streams, n0_total, make_sampler);

  Hierarchy hierarchy;
  if (options.hierarchical && multi_rank)
    hierarchy.init(*world, result.aggregate.raw().size());

  epoch::EpochManager manager(num_threads, payload_words);
  std::vector<std::uint64_t> taken(num_threads, 0);
  // Deterministic mode: epochs whose stop check came back negative.
  std::atomic<std::uint32_t> continued{0};

  // Worker threads (t != 0). Free-running: sample continuously, joining
  // epoch transitions wait-free. Deterministic: contribute the exact
  // per-stream shares, join the transition thread zero forces, and start
  // the next share only once the epoch's stop check came back negative,
  // so no sample is taken that the run will not aggregate.
  auto worker_main = [&](int t) {
    std::uint32_t epoch = 0;
    std::uint64_t count = 0;
    if (options.deterministic) {
      while (true) {
        count += thread_streams[t].sample_shares(manager.frame(t, epoch));
        while (!manager.check_transition(t, epoch)) std::this_thread::yield();
        ++epoch;
        while (continued.load(std::memory_order_acquire) < epoch) {
          if (manager.stopped()) {
            taken[t] = count;
            return;
          }
          std::this_thread::yield();
        }
      }
    }
    auto& stream = thread_streams[t].streams.front();
    while (!manager.stopped()) {
      stream.sampler(manager.frame(t, epoch));
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
    // S^e_loc: this rank's epoch aggregate; S^e: the global one.
    epoch::StateFrame snapshot(payload_words);
    epoch::StateFrame epoch_agg(payload_words);
    std::vector<std::uint64_t> wire_buffer;  // reused encode scratch
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
        thread_streams[0].streams.front().sampler(
            manager.frame(0, epoch + 1));
        ++count;
      }
      std::this_thread::yield();
    };

    while (true) {
      result.phases.timed(Phase::kSampling, [&] {
        if (options.deterministic) {
          count += thread_streams[0].sample_shares(manager.frame(0, epoch));
        } else {
          auto& stream = thread_streams[0].streams.front();
          for (std::uint64_t i = 0; i < n0_share; ++i) {
            stream.sampler(manager.frame(0, epoch));
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

      if (multi_rank) {
        // Node-local pre-aggregation via the shared window (§IV-E).
        bool in_global = true;
        if (hierarchy.active())
          in_global = hierarchy.pre_reduce(snapshot.raw());

        // Ships epoch_agg from `comm` rank zero to every rank of `comm`
        // as a length-prefixed wire image, with the strategy-matching
        // overlap behavior; receivers rebuild their epoch_agg from it.
        // The hierarchy's intra-node downward leg.
        auto distribute_image = [&](mpisim::Comm& comm) {
          auto bcast = [&](std::span<std::uint64_t> span) {
            if (options.aggregation == Aggregation::kBlocking) {
              // §IV-F's fully blocking variant: no overlap anywhere, the
              // distribution legs included.
              comm.bcast(span, 0);
            } else {
              mpisim::Request request = comm.ibcast(span, 0);
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
        // participant ships its snapshot's wire image into one all-reduce
        // merge and ends the phase holding the identical merged epoch
        // aggregate (no root hotspot). With hierarchy the merge runs on the
        // node-leader communicator whose rank zero is world rank zero.
        if (in_global) {
          mpisim::Comm& global =
              hierarchy.active() ? hierarchy.global() : *world;
          wire_buffer.clear();
          epoch::append_image(snapshot.raw(), wire_buffer);
          epoch_agg.clear();
          auto merge_image = [&](int, std::span<const std::uint64_t> image) {
            epoch::decode_add_image(epoch_agg.raw(), image);
          };
          const std::span<const std::uint64_t> send(wire_buffer);
          auto blocking_merge = [&] {
            global.allreduce_merge(send, merge_image);
          };
          switch (options.aggregation) {
            case Aggregation::kIbarrierReduce:
              result.phases.timed(Phase::kBarrier, [&] {
                mpisim::Request barrier = global.ibarrier();
                while (!barrier.test()) overlap_sample();
              });
              result.phases.timed(Phase::kReduction, blocking_merge);
              break;
            case Aggregation::kIreduce:
              result.phases.timed(Phase::kReduction, [&] {
                mpisim::Request merge =
                    global.iallreduce_merge(send, merge_image);
                while (!merge.test()) overlap_sample();
              });
              break;
            case Aggregation::kBlocking:
              result.phases.timed(Phase::kReduction, blocking_merge);
              break;
          }
        }

        // Hierarchy's downward leg: leaders now hold the global aggregate;
        // redistribute its wire image over the intra-node communicator so
        // non-leader ranks hold it too.
        if (hierarchy.active()) {
          result.phases.timed(Phase::kBroadcast,
                              [&] { distribute_image(hierarchy.node()); });
        }
      }

      // Decentralized termination: every rank holds the identical merged
      // aggregate and evaluates the stopping rule on it, so all ranks reach
      // the same verdict with no rank-0 verdict broadcast. The rule goes
      // first; the epoch cap is the reason only when it alone ends the run.
      // Without a multi-rank communicator the snapshot is already global.
      result.aggregate.merge(multi_rank ? epoch_agg : snapshot);
      const bool done = result.phases.timed(Phase::kStopCheck, [&] {
        if (should_stop(std::as_const(result.aggregate))) return true;
        if (result.epochs + 1 < options.max_epochs) return false;
        result.stop_reason = StopReason::kMaxEpochs;
        return true;
      });
      ++result.epochs;
      if (done) {
        manager.signal_stop();
        break;
      }
      ++epoch;
      continued.store(epoch, std::memory_order_release);
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
    result.comm_volume = world->stats().volume();
    result.comm_volume += hierarchy.volume();
  } else {
    result.samples_attempted = local_taken;
  }
  result.total_seconds = total_timer.elapsed_s();
  return result;
}

}  // namespace distbc::engine
