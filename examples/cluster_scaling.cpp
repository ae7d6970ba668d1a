// Demonstrates the library's cluster-facing API: bind a graph to a
// simulated cluster shape through api::Session (which owns the runtime and
// its per-rank communicators - no direct mpisim plumbing here), run
// betweenness queries across rank counts, and report scaling plus the
// per-collective communication-volume breakdown (mpisim::CommVolume) under
// the chosen network preset.
//
//   ./cluster_scaling [scale=13] [eps=0.005] [latency_us=2]
//                     [rpn=1] [substrate=mpisim|ncclsim]
//
// The closing summary is computed from the rows just measured: where the
// speedup peaked, how much of the widest run went to the sequential
// phases, and which collective carried the aggregation bytes.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <utility>
#include <vector>

#include "api/session.hpp"
#include "gen/hyperbolic.hpp"
#include "graph/components.hpp"
#include "support/options.hpp"

int main(int argc, char** argv) {
  using namespace distbc;
  const Options options(argc, argv);
  options.describe("scale", "log2 vertices of the hyperbolic proxy");
  options.describe("latency_us", "inter-node latency (us)");
  options.describe("eps", "betweenness epsilon");
  options.describe("rpn",
                   "simulated ranks per node (>1 enables the hierarchical "
                   "path)");
  options.describe("substrate",
                   "network preset the collectives are charged on "
                   "(mpisim|ncclsim)");
  options.finish("Rank-scaling sweep on a simulated cluster.");

  gen::HyperbolicParams gen_params;
  gen_params.num_vertices =
      1u << static_cast<std::uint32_t>(options.get_u64("scale", 13));
  gen_params.average_degree = 30.0;
  const auto graph = std::make_shared<const graph::Graph>(
      graph::largest_component(gen::hyperbolic(gen_params, 21)));
  const std::string substrate = options.get_string("substrate", "mpisim");
  api::Config base_config;
  const api::Status substrate_status =
      base_config.set("comm_substrate", substrate);
  if (!substrate_status.ok) {
    std::fprintf(stderr, "%s\n", substrate_status.message.c_str());
    return 2;
  }
  const auto ranks_per_node =
      static_cast<int>(options.get_u64("rpn", 1));
  std::printf("web proxy: %u vertices, %llu edges, rpn=%d, substrate=%s\n\n",
              graph->num_vertices(),
              static_cast<unsigned long long>(graph->num_edges()),
              ranks_per_node, substrate.c_str());

  mpisim::NetworkModel network;
  network.remote_latency_s = options.get_double("latency_us", 2.0) * 1e-6;

  std::printf("%-8s %-10s %-10s %-8s %-9s %-12s %-12s %-12s\n", "ranks",
              "total(s)", "sample(s)", "epochs", "speedup", "reduce(B)",
              "merge(B)", "bcast(B)");
  struct Row {
    int ranks;
    double speedup;
    double sequential_share;  // diameter + calibration over total
    mpisim::CommVolume volume;
  };
  std::vector<Row> rows;
  double base_time = 0.0;
  for (const int ranks : {1, 2, 4, 8, 16}) {
    api::Config config = base_config;
    config.ranks = ranks;
    config.ranks_per_node = std::clamp(ranks_per_node, 1, ranks);
    config.network = network;
    config.seed = 5;
    config.hierarchical = config.ranks_per_node > 1;

    api::Session session(graph, config);
    api::BetweennessQuery query;
    query.epsilon = options.get_double("eps", 0.005);
    const api::Result result = session.run(query);
    if (!result.status.ok) {
      std::fprintf(stderr, "query failed: %s\n", result.status.message.c_str());
      return 1;
    }

    if (ranks == 1) base_time = result.total_seconds;
    const mpisim::CommVolume& volume = result.comm_volume;
    rows.push_back({ranks, base_time / result.total_seconds,
                    (result.phases.seconds(Phase::kDiameter) +
                     result.phases.seconds(Phase::kCalibration)) /
                        result.total_seconds,
                    volume});
    std::printf("%-8d %-10.2f %-10.2f %-8llu %-9.2f %-12llu %-12llu %-12llu\n",
                ranks, result.total_seconds,
                result.phases.seconds(Phase::kSampling),
                static_cast<unsigned long long>(result.epochs),
                base_time / result.total_seconds,
                static_cast<unsigned long long>(volume.reduce_bytes),
                static_cast<unsigned long long>(volume.reduce_merge_bytes),
                static_cast<unsigned long long>(volume.bcast_bytes));
  }

  // Conclusions from the rows above, not from expectations.
  const auto best = std::max_element(
      rows.begin(), rows.end(),
      [](const Row& a, const Row& b) { return a.speedup < b.speedup; });
  std::printf("\nMeasured: peak speedup %.2fx at P=%d (parallel efficiency "
              "%.0f%%).\n",
              best->speedup, best->ranks,
              100.0 * best->speedup / best->ranks);
  const Row& widest = rows.back();
  if (best->ranks < widest.ranks) {
    std::printf("Adding ranks past P=%d did not pay: P=%d reached %.2fx; "
                "diameter + calibration\n(sequential phases) took %.0f%% of "
                "its query time vs %.0f%% at P=1.\n",
                best->ranks, widest.ranks, widest.speedup,
                100.0 * widest.sequential_share,
                100.0 * rows.front().sequential_share);
  } else {
    std::printf("Speedup still grew at P=%d; diameter + calibration took "
                "%.0f%% of its query time.\n",
                widest.ranks, 100.0 * widest.sequential_share);
  }
  std::printf("At P=%d aggregation moved %llu B as merged wire images and "
              "%llu B as elementwise reductions (sample counts).\n",
              widest.ranks,
              static_cast<unsigned long long>(widest.volume.reduce_merge_bytes),
              static_cast<unsigned long long>(widest.volume.reduce_bytes));
  return 0;
}
