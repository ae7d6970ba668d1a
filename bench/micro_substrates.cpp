// google-benchmark microbenchmarks for the substrates: BFS kernels,
// bidirectional vs unidirectional search, one KADABRA sample, epoch
// transitions, state-frame aggregation, and simulated reductions.
#include <benchmark/benchmark.h>

#include "bc/kadabra_context.hpp"
#include "bc/sampler.hpp"
#include "epoch/epoch_manager.hpp"
#include "epoch/state_frame.hpp"
#include "gen/hyperbolic.hpp"
#include "gen/rmat.hpp"
#include "gen/road.hpp"
#include "graph/bfs.hpp"
#include "graph/bidirectional_bfs.hpp"
#include "graph/components.hpp"
#include "mpisim/comm.hpp"
#include "mpisim/runtime.hpp"

namespace {

using namespace distbc;

const graph::Graph& social_graph() {
  static const graph::Graph graph = [] {
    gen::RmatParams params;
    params.scale = 14;
    params.edge_factor = 16.0;
    return graph::largest_component(gen::rmat(params, 1));
  }();
  return graph;
}

const graph::Graph& road_graph() {
  static const graph::Graph graph = [] {
    gen::RoadParams params;
    params.width = 200;
    params.height = 80;
    return gen::road(params, 2);
  }();
  return graph;
}

void BM_BfsSocial(benchmark::State& state) {
  const auto& graph = social_graph();
  graph::BfsWorkspace ws(graph.num_vertices());
  Rng rng(7);
  for (auto _ : state) {
    const auto source =
        static_cast<graph::Vertex>(rng.next_bounded(graph.num_vertices()));
    benchmark::DoNotOptimize(graph::bfs(graph, source, ws));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BfsSocial);

void BM_BidirectionalVsFullBfs(benchmark::State& state) {
  // One bidirectional pair query; compare items/s against BM_BfsSocial to
  // see the asymptotic win KADABRA's sampler relies on.
  const auto& graph = social_graph();
  graph::BidirectionalBfs bfs(graph.num_vertices());
  Rng rng(8);
  for (auto _ : state) {
    const auto [s, t] = rng.next_distinct_pair(graph.num_vertices());
    benchmark::DoNotOptimize(bfs.run(graph, static_cast<graph::Vertex>(s),
                                     static_cast<graph::Vertex>(t)));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BidirectionalVsFullBfs);

void BM_SampleSocial(benchmark::State& state) {
  const auto& graph = social_graph();
  bc::PathSampler sampler(graph, Rng(9));
  epoch::StateFrame frame(graph.num_vertices());
  for (auto _ : state) sampler.sample(frame);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SampleSocial);

void BM_SampleRoad(benchmark::State& state) {
  // Road samples are the expensive ones: high diameter, big BFS balls.
  const auto& graph = road_graph();
  bc::PathSampler sampler(graph, Rng(10));
  epoch::StateFrame frame(graph.num_vertices());
  for (auto _ : state) sampler.sample(frame);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SampleRoad);

void BM_EpochTransition(benchmark::State& state) {
  // Cost of force_transition + immediate completion with a single thread:
  // the overhead floor of the epoch mechanism.
  epoch::EpochManager manager(1, 1024);
  std::uint32_t epoch = 0;
  for (auto _ : state) {
    manager.force_transition(epoch);
    benchmark::DoNotOptimize(manager.transition_done(epoch));
    ++epoch;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EpochTransition);

void BM_FrameMerge(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  epoch::StateFrame a(n);
  epoch::StateFrame b(n);
  b.finish_sample();
  for (auto _ : state) {
    a.merge(b);
    benchmark::DoNotOptimize(a.raw().data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          (n + 1) * sizeof(std::uint64_t));
}
BENCHMARK(BM_FrameMerge)->Arg(1 << 12)->Arg(1 << 16)->Arg(1 << 20);

void BM_SimulatedReduce(benchmark::State& state) {
  const auto count = static_cast<std::size_t>(state.range(0));
  const int ranks = 8;
  mpisim::RuntimeConfig config;
  config.num_ranks = ranks;
  config.network = mpisim::NetworkModel::disabled();
  mpisim::Runtime runtime(config);
  for (auto _ : state) {
    runtime.run([&](mpisim::Comm& comm) {
      std::vector<std::uint64_t> send(count, 1);
      std::vector<std::uint64_t> recv(count, 0);
      comm.reduce(std::span<const std::uint64_t>(send), std::span(recv), 0);
    });
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          count * sizeof(std::uint64_t) * ranks);
}
BENCHMARK(BM_SimulatedReduce)->Arg(1 << 10)->Arg(1 << 16);

void BM_StopCheck(benchmark::State& state) {
  // O(|V|) stopping-condition evaluation, the per-epoch cost at rank 0.
  const auto n = static_cast<std::uint32_t>(state.range(0));
  bc::KadabraParams params;
  params.epsilon = 0.01;
  bc::KadabraContext context = bc::begin_context(params, 16);
  epoch::StateFrame initial(n);
  for (int i = 0; i < 1000; ++i) initial.finish_sample();
  bc::finish_calibration(context, initial);
  epoch::StateFrame aggregate(n);
  for (int i = 0; i < 5000; ++i) aggregate.finish_sample();
  for (auto _ : state)
    benchmark::DoNotOptimize(context.stop_satisfied(aggregate));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * n);
}
BENCHMARK(BM_StopCheck)->Arg(1 << 14)->Arg(1 << 18);

}  // namespace

BENCHMARK_MAIN();
