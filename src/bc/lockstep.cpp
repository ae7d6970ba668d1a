#include "bc/lockstep.hpp"

#include <atomic>
#include <barrier>
#include <mutex>
#include <thread>
#include <vector>

#include "bc/sampler.hpp"
#include "mpisim/runtime.hpp"
#include "engine/streams.hpp"
#include "epoch/frame_codec.hpp"
#include "epoch/state_frame.hpp"
#include "support/timer.hpp"

namespace distbc::bc {

namespace {

/// Reduces `local` to `round_agg` at world rank 0 as wire images over
/// reduce_merge (the images the epoch engine ships, minus every overlap
/// trick - this is the baseline).
void round_reduce(comm::Substrate& world, const epoch::StateFrame& local,
                  epoch::StateFrame& round_agg,
                  std::vector<std::uint64_t>& scratch) {
  scratch.clear();
  epoch::append_image(local.raw(), scratch);
  round_agg.clear();
  world.reduce_merge(std::span<const std::uint64_t>(scratch),
                     [&](int, std::span<const std::uint64_t> image) {
                       epoch::decode_add_image(round_agg.raw(), image);
                     },
                     0);
}

}  // namespace

BcResult lockstep_mpi_rank(const graph::Graph& graph,
                           const LockstepOptions& options,
                           comm::Substrate& world) {
  DISTBC_ASSERT(options.threads_per_rank >= 1);
  WallTimer total_timer;
  PhaseTimer phases;
  BcResult result;
  const graph::Vertex n = graph.num_vertices();
  const int num_ranks = world.size();
  const int num_threads = options.threads_per_rank;
  const int rank = world.rank();
  const bool is_root = rank == 0;
  const KadabraParams& params = options.params;
  if (n < 2) {
    if (is_root) result.scores.assign(n, 0.0);
    return result;
  }

  // Phases 1 + 2 identical in structure to the epoch-based driver.
  std::uint32_t vd = 0;
  if (is_root) {
    vd = phases.timed(Phase::kDiameter,
                      [&] { return kadabra_vertex_diameter(graph); });
  }
  world.bcast(std::span{&vd, 1}, 0);
  KadabraContext context = begin_context(params, vd);

  const std::uint64_t total_threads =
      static_cast<std::uint64_t>(num_ranks) * num_threads;
  std::vector<std::uint64_t> wire_scratch;
  phases.timed(Phase::kCalibration, [&] {
    std::vector<epoch::StateFrame> frames(num_threads, epoch::StateFrame(n));
    auto worker = [&](int t) {
      const std::uint64_t gti =
          static_cast<std::uint64_t>(rank) * num_threads + t;
      PathSampler sampler(graph, Rng(params.seed).split(gti));
      const std::uint64_t budget = context.initial_samples;
      const std::uint64_t share =
          budget / total_threads + (gti < budget % total_threads ? 1 : 0);
      for (std::uint64_t i = 0; i < share; ++i) sampler.sample(frames[t]);
    };
    std::vector<std::thread> pool;
    for (int t = 1; t < num_threads; ++t) pool.emplace_back(worker, t);
    worker(0);
    for (auto& thread : pool) thread.join();
    epoch::StateFrame local(n);
    for (const auto& frame : frames) local.merge(frame);
    epoch::StateFrame initial(n);
    round_reduce(world, local, initial, wire_scratch);
    if (is_root) finish_calibration(context, initial);
  });

  // Phase 3: synchronous rounds.
  WallTimer adaptive_timer;
  const std::uint64_t round_share =
      options.round_share != 0
          ? options.round_share
          : std::min(engine::epoch_share(options.epoch_base,
                                         options.epoch_exponent,
                                         total_threads),
                     std::max<std::uint64_t>(
                         1, context.omega / (2 * total_threads)));

  std::vector<epoch::StateFrame> frames(num_threads, epoch::StateFrame(n));
  std::vector<PathSampler> samplers;
  samplers.reserve(num_threads);
  for (int t = 0; t < num_threads; ++t) {
    const std::uint64_t gti =
        total_threads + static_cast<std::uint64_t>(rank) * num_threads + t;
    samplers.emplace_back(graph, Rng(params.seed).split(gti));
  }

  std::barrier sync(num_threads);
  std::atomic<bool> stop{false};
  epoch::StateFrame running(n);  // valid at root

  auto round_worker = [&](int t) {
    while (!stop.load(std::memory_order_acquire)) {
      for (std::uint64_t i = 0; i < round_share; ++i)
        samplers[t].sample(frames[t]);
      sync.arrive_and_wait();  // all local samples of this round done
      if (t == 0) {
        epoch::StateFrame local(n);
        for (auto& frame : frames) {
          local.merge(frame);
          frame.clear();
        }
        epoch::StateFrame round_agg(n);
        phases.timed(Phase::kReduction, [&] {
          round_reduce(world, local, round_agg, wire_scratch);
        });
        std::uint8_t done_flag = 0;
        if (is_root) {
          running.merge(round_agg);
          done_flag = phases.timed(Phase::kStopCheck, [&] {
            return context.stop_satisfied(running) ? 1 : 0;
          });
        }
        phases.timed(Phase::kBroadcast, [&] {
          world.bcast(std::span{&done_flag, 1}, 0);
        });
        ++result.epochs;
        if (done_flag != 0) stop.store(true, std::memory_order_release);
      }
      sync.arrive_and_wait();  // verdict visible to all local threads
    }
  };

  std::vector<std::thread> pool;
  for (int t = 1; t < num_threads; ++t) pool.emplace_back(round_worker, t);
  round_worker(0);
  for (auto& thread : pool) thread.join();
  result.adaptive_seconds = adaptive_timer.elapsed_s();

  std::uint64_t local_taken = 0;
  for (const auto& sampler : samplers) local_taken += sampler.samples_taken();
  std::uint64_t world_taken = 0;
  world.reduce(std::span<const std::uint64_t>(&local_taken, 1),
               std::span{&world_taken, 1}, 0);

  if (is_root) {
    scores_from_frame(running, result.scores);
    result.samples = running.tau();
    result.samples_attempted = world_taken;
    result.omega = context.omega;
    result.vertex_diameter = vd;
    result.comm_volume = world.volume();
    result.substrate_used = world.name();
    result.comm_bytes = result.comm_volume.total();
    result.phases = phases;
  } else {
    result.samples_attempted = local_taken;
  }
  result.total_seconds = total_timer.elapsed_s();
  return result;
}

BcResult lockstep_mpi(const graph::Graph& graph,
                      const LockstepOptions& options, int num_ranks,
                      int ranks_per_node, comm::NetworkModel network) {
  mpisim::RuntimeConfig config;
  config.num_ranks = num_ranks;
  config.ranks_per_node = ranks_per_node;
  config.network = network;
  mpisim::Runtime runtime(config);

  BcResult root_result;
  std::mutex result_mu;
  runtime.run([&](auto& rank_comm) {
    const auto substrate = comm::make_substrate(
        comm::SubstrateKind::kMpisim, rank_comm);
    BcResult local = lockstep_mpi_rank(graph, options, *substrate);
    if (substrate->rank() == 0) {
      std::lock_guard lock(result_mu);
      root_result = std::move(local);
    }
  });
  return root_result;
}

}  // namespace distbc::bc
