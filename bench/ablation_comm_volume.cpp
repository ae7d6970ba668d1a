// Ablation for the wire images: on a large-V / short-epoch shape - the
// regime data-sized images exist for - run KADABRA under every §IV-F
// aggregation strategy x §IV-E hierarchy and compare the modeled
// aggregation bytes with the paper's dense layout, which ships the flat
// |V| + 1 word frame from every non-root rank once per epoch and once for
// calibration: (epochs + 1) x (P - 1) frames, plus the one-word
// samples_attempted reduce. Acceptance:
//   * the images move >= 5x fewer aggregation bytes than that layout,
//   * deterministic-mode scores are bitwise identical across every
//     strategy x hierarchy combination.
// The --json object (BENCH_comm_volume.json in CI) carries the
// per-collective byte breakdown of every configuration.
#include <string>

#include "bench_common.hpp"
#include "gen/erdos_renyi.hpp"
#include "graph/components.hpp"

int main(int argc, char** argv) {
  using namespace distbc;
  bench::BenchConfig config(argc, argv);
  config.options.describe("vertices", "graph size (large V is the point)");
  config.options.describe("eps", "betweenness epsilon");
  config.options.describe("n0", "fixed total epoch length (short epochs)");
  config.finish("Wire images: data-sized aggregation vs the dense layout.");
  bench::print_preamble(
      "Ablation - wire images vs the paper's dense frame layout",
      "frame layer over paper §III-B/§IV-E/F; bytes ~ samples, not |V|",
      config);
  bench::JsonReport json("ablation_comm_volume", config);

  const auto vertices = static_cast<std::uint32_t>(
      config.options.get_u64("vertices", 40000));
  const double eps = config.options.get_double("eps", 0.1);
  const auto n0 = config.options.get_u64("n0", 16);
  const graph::Graph graph = graph::largest_component(
      gen::erdos_renyi(vertices, 3 * vertices, config.seed));
  std::printf("instance: Erdos-Renyi |V|=%u |E|=%llu, eps=%.3g, n0=%llu\n\n",
              graph.num_vertices(),
              static_cast<unsigned long long>(graph.num_edges()),
              eps, static_cast<unsigned long long>(n0));
  json.param("vertices", static_cast<double>(graph.num_vertices()));
  json.param("n0", static_cast<double>(n0));

  constexpr int kRanks = 4;
  struct Strategy {
    const char* name;
    bc::Aggregation aggregation;
  };
  const Strategy strategies[] = {
      {"ibarrier+reduce", bc::Aggregation::kIbarrierReduce},
      {"ireduce", bc::Aggregation::kIreduce},
      {"blocking", bc::Aggregation::kBlocking}};

  const auto run = [&](const Strategy& strategy, bool hierarchical) {
    bc::KadabraOptions options;
    options.params.epsilon = eps;
    options.params.seed = config.seed;
    // Phase 1 stops iFUB once its bracket fits one diameter bucket: at the
    // default |V| (ER, 39,900 vertices) that is 7 BFS, ~18 ms on one core
    // of a Xeon host, for VD 17 where the 2-approximation gave 19.
    options.engine.threads_per_rank = 1;
    // Deterministic mode pins the sample set, so every configuration
    // aggregates the same frames and byte counts are comparable.
    options.engine.deterministic = true;
    options.engine.virtual_streams = 4;
    options.engine.epoch_base = n0;
    options.engine.epoch_exponent = 0.0;  // n0 fixed: short epochs
    options.engine.aggregation = strategy.aggregation;
    options.engine.hierarchical = hierarchical;
    return bc::kadabra_mpi(graph, options, kRanks,
                           hierarchical ? 2 : 1,
                           mpisim::NetworkModel::disabled());
  };

  TablePrinter table({"strategy", "hier", "epochs", "agg bytes", "reduce",
                      "merge", "window"});
  bool bitwise_identical = true;
  const bc::BcResult baseline = run(strategies[0], false);

  for (const bool hierarchical : {false, true}) {
    for (const Strategy& strategy : strategies) {
      const bc::BcResult result = run(strategy, hierarchical);
      const mpisim::CommVolume& volume = result.comm_volume;

      // Bitwise equality against the baseline configuration.
      if (result.samples != baseline.samples ||
          result.scores.size() != baseline.scores.size())
        bitwise_identical = false;
      for (std::size_t v = 0; v < result.scores.size(); ++v)
        if (result.scores[v] != baseline.scores[v]) {
          bitwise_identical = false;
          break;
        }

      table.add_row(
          {strategy.name, hierarchical ? "on" : "off",
           TablePrinter::fmt_int(static_cast<long long>(result.epochs)),
           TablePrinter::fmt_int(
               static_cast<long long>(volume.aggregation_bytes())),
           TablePrinter::fmt_int(static_cast<long long>(volume.reduce_bytes)),
           TablePrinter::fmt_int(
               static_cast<long long>(volume.reduce_merge_bytes)),
           TablePrinter::fmt_int(static_cast<long long>(volume.p2p_bytes))});
      json.begin_row();
      json.field("strategy", strategy.name);
      json.field("hierarchical", hierarchical ? 1.0 : 0.0);
      json.field("epochs", static_cast<double>(result.epochs));
      json.field("samples", static_cast<double>(result.samples));
      bench::add_comm_volume_fields(json, volume);
    }
  }
  table.print();

  // The paper layout's cost for the baseline's epoch count.
  constexpr std::uint64_t kWord = sizeof(std::uint64_t);
  const std::uint64_t frame_bytes =
      (static_cast<std::uint64_t>(graph.num_vertices()) + 1) * kWord;
  const std::uint64_t dense_bytes =
      (baseline.epochs + 1) * (kRanks - 1) * frame_bytes +
      (kRanks - 1) * kWord;
  const std::uint64_t image_bytes =
      baseline.comm_volume.aggregation_bytes();
  const double ratio = image_bytes > 0
                           ? static_cast<double>(dense_bytes) /
                                 static_cast<double>(image_bytes)
                           : 0.0;
  std::printf("\ndense layout / image aggregation bytes (ibarrier+reduce, "
              "flat): %llu / %llu = %.1fx\n",
              static_cast<unsigned long long>(dense_bytes),
              static_cast<unsigned long long>(image_bytes), ratio);
  const bool sparse_wins_5x = ratio >= 5.0;
  std::printf("check: images move >= 5x fewer aggregation bytes: %s\n",
              sparse_wins_5x ? "PASS" : "FAIL");
  std::printf("check: bitwise-identical deterministic results: %s\n",
              bitwise_identical ? "PASS" : "FAIL");
  json.summary("dense_bytes", static_cast<double>(dense_bytes));
  json.summary("auto_bytes", static_cast<double>(image_bytes));
  json.summary("dense_over_sparse", ratio);
  json.summary("sparse_wins_5x", sparse_wins_5x ? 1.0 : 0.0);
  json.summary("bitwise_identical", bitwise_identical ? 1.0 : 0.0);
  json.write();
  return sparse_wins_5x && bitwise_identical ? 0 : 1;
}
