// A centrality service in miniature: ONE api::Session pinned to a
// (graph, cluster shape), a batch of mixed typed queries running against
// it, and the per-query reuse savings the session-oriented API exists for:
//   * repeated betweenness queries at the same (eps, delta) skip the
//     diameter + calibration phases entirely (cached KadabraWarmState);
//   * repeated mean-distance queries skip the range probe.
//
//   ./service_batch [scale=11] [ranks=4] [threads=2] [repeat=3]
#include <cstdio>

#include "api/session.hpp"
#include "gen/rmat.hpp"
#include "graph/components.hpp"
#include "support/options.hpp"

int main(int argc, char** argv) {
  using namespace distbc;
  const Options options(argc, argv);
  options.describe("scale", "log2 vertices of the service graph");
  options.describe("ranks", "simulated MPI ranks");
  options.describe("threads", "sampling threads per rank");
  options.describe("repeat", "repetitions of the betweenness query");
  options.finish("One session, a batch of mixed queries, reuse savings.");

  gen::RmatParams gen_params;
  gen_params.scale =
      static_cast<std::uint32_t>(options.get_u64("scale", 11));
  gen_params.edge_factor = 16.0;
  const graph::Graph graph =
      graph::largest_component(gen::rmat(gen_params, 77));
  std::printf("service graph: %u vertices, %llu edges\n",
              graph.num_vertices(),
              static_cast<unsigned long long>(graph.num_edges()));

  api::Config config = api::Config::from_env();
  config.ranks = static_cast<int>(options.get_u64("ranks", 4));
  config.threads = static_cast<int>(options.get_u64("threads", 2));
  api::Session session(graph, config);
  if (!session.status().ok) {
    std::fprintf(stderr, "session: %s\n", session.status().message.c_str());
    return 1;
  }
  std::printf("session: %d ranks x %d threads\n\n", config.ranks,
              config.threads);

  // The mixed batch a service might see: repeated betweenness traffic at
  // one accuracy, a top-k request at the same accuracy, a closeness
  // ranking, and two mean-distance probes.
  std::vector<api::Query> batch;
  const auto repeat = options.get_u64("repeat", 3);
  for (std::uint64_t i = 0; i < repeat; ++i)
    batch.push_back(api::BetweennessQuery{.epsilon = 0.1});
  batch.push_back(api::BetweennessQuery{.epsilon = 0.1, .top_k = 10});
  batch.push_back(api::ClosenessRankQuery{.epsilon = 0.1, .top_k = 10});
  batch.push_back(api::MeanDistanceQuery{.epsilon = 0.25});
  batch.push_back(api::MeanDistanceQuery{.epsilon = 0.2});

  std::printf("%-4s %-14s %9s %7s %9s %11s %11s\n", "#", "algorithm",
              "samples", "epochs", "total s", "diam+cal s", "calibration");
  const std::vector<api::Result> results = session.run_batch(batch);
  double saved_seconds = 0.0;
  double first_prepare_seconds = 0.0;
  for (std::size_t i = 0; i < results.size(); ++i) {
    const api::Result& result = results[i];
    if (!result.status.ok) {
      std::printf("%-4zu FAILED: %s\n", i, result.status.message.c_str());
      continue;
    }
    const double prepare_seconds =
        result.phases.seconds(Phase::kDiameter) +
        result.phases.seconds(Phase::kCalibration);
    if (result.algorithm == "kadabra") {
      if (result.calibration_reused) {
        saved_seconds += first_prepare_seconds;
      } else {
        first_prepare_seconds = prepare_seconds;
      }
    }
    std::printf("%-4zu %-14s %9llu %7llu %9.3f %11.4f %11s\n", i,
                result.algorithm.c_str(),
                static_cast<unsigned long long>(result.samples),
                static_cast<unsigned long long>(result.epochs),
                result.total_seconds, prepare_seconds,
                result.calibration_reused ? "reused" : "computed");
  }
  std::printf("\nreuse savings: ~%.4f s of diameter + calibration skipped "
              "across the batch\n(every 'reused' betweenness query ran zero "
              "calibration epochs - its kDiameter\nand kCalibration phase "
              "stats are exactly zero).\n",
              saved_seconds);
  return 0;
}
