// Reproduces Figure 3b: sampling throughput normalized by machine size -
// samples / (ADS time * P) - across the node sweep. A flat curve means the
// adaptive sampling phase scales linearly: almost all communication is
// hidden behind sampling.
//
// Second section: the traversal kernel alone. One thread samples a
// Barabasi-Albert proxy (|V| = 200k, degree 8 by default) through
// bc::PathSampler; every rep replays the same stream, so every rep's frame
// must be bitwise identical, and its recorded-count sum is the
// deterministic counter the CI regression gate keys on.
//
// --json / out= emit a machine-readable snapshot: wall-clock rates (named
// *_rate / *speedup*, skipped by ci/compare_bench.py) plus deterministic
// counters (recorded-count sums, tau accounting, the bitwise check) that
// are machine independent and gated against bench/baselines/.
#include "bench_common.hpp"

#include "bc/sampler.hpp"
#include "epoch/state_frame.hpp"
#include "gen/barabasi_albert.hpp"
#include "support/timer.hpp"

#include <algorithm>

namespace {

double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return values[values.size() / 2];
}

}  // namespace

int main(int argc, char** argv) {
  using namespace distbc;
  bench::BenchConfig config(argc, argv);
  const std::uint64_t batch_vertices = config.options.get_u64(
      "batch_n", 200000, "BA vertices of the kernel section");
  const std::uint64_t batch_samples = config.options.get_u64(
      "batch_samples", 4000, "samples per rep in the kernel section");
  const std::uint64_t batch_reps = config.options.get_u64(
      "batch_reps", 5, "repetitions in the kernel section (median taken)");
  config.finish("Figure 3b: sampling rate.");
  bench::print_preamble(
      "Figure 3b - samples/(time * P) during adaptive sampling",
      "paper Fig. 3b (flat curve = linear sampling scalability)", config);
  bench::JsonReport json("fig3b_sampling_rate", config);

  const auto ranks = bench::rank_sweep(config);
  std::vector<std::vector<double>> rates(ranks.size());

  TablePrinter table({"instance", "P=1", "P=2", "P=4", "P=8", "P=16"});
  for (const auto& spec : config.suite()) {
    const auto graph = spec.build(config.scale, config.seed);
    std::vector<std::string> row{spec.name};
    for (std::size_t i = 0; i < ranks.size(); ++i) {
      const bc::KadabraOptions options =
          bench::bench_mpi_options(spec, config);
      const bc::BcResult result = bc::kadabra_mpi(
          graph, options, ranks[i], /*ranks_per_node=*/1,
          bench::bench_network(config));
      const double rate =
          result.adaptive_seconds > 0
              ? static_cast<double>(result.samples_attempted) /
                    (result.adaptive_seconds * ranks[i])
              : 0.0;
      rates[i].push_back(rate);
      row.push_back(TablePrinter::fmt(rate, 0));
      json.begin_row();
      json.field("section", "rank_sweep");
      json.field("instance", spec.name);
      json.field("ranks", static_cast<double>(ranks[i]));
      json.field("samples_per_sec_per_rank_rate", rate);
    }
    while (row.size() < 6) row.push_back("-");
    table.add_row(row);
  }
  table.print();

  std::printf("\nGeometric-mean samples/(s * P):\n");
  TablePrinter summary({"# compute nodes", "samples/(s*P)"});
  for (std::size_t i = 0; i < ranks.size(); ++i) {
    const double geomean = bench::geometric_mean(rates[i]);
    summary.add_row({std::to_string(ranks[i]), TablePrinter::fmt(geomean, 0)});
    json.summary("p" + std::to_string(ranks[i]) + "_geomean_rate", geomean);
  }
  summary.print();
  std::printf("\nPaper shape: the normalized rate stays flat across P "
              "(600-1000 samples/(s*node)\non their hardware; absolute "
              "values differ on this substrate).\n");

  // --- Traversal kernel (graph::BidirectionalBfs via bc::PathSampler) -----
  std::printf("\n=== Traversal kernel - single-thread sampling rate ===\n"
              "BA graph: %llu vertices, degree 8, seed %llu; %llu samples "
              "per rep,\nmedian of %llu reps.\n\n",
              static_cast<unsigned long long>(batch_vertices),
              static_cast<unsigned long long>(config.seed),
              static_cast<unsigned long long>(batch_samples),
              static_cast<unsigned long long>(batch_reps));
  const graph::Graph ba = gen::barabasi_albert(
      static_cast<graph::Vertex>(batch_vertices), 8, config.seed);
  const graph::Vertex n = ba.num_vertices();

  // Every rep re-creates the sampler on the same stream, so the sample set
  // is fixed and each rep's frame must equal the first bitwise.
  std::vector<double> times;
  epoch::StateFrame first(n);
  epoch::StateFrame frame(n);
  bool reps_identical = true;
  for (std::uint64_t rep = 0; rep < batch_reps; ++rep) {
    frame.clear();
    bc::PathSampler sampler(ba, Rng(config.seed).split(0));
    WallTimer timer;
    for (std::uint64_t i = 0; i < batch_samples; ++i) sampler.sample(frame);
    times.push_back(timer.elapsed_s());
    if (rep == 0) first = frame;
    for (std::size_t i = 0; i < frame.raw().size(); ++i)
      reps_identical &= frame.raw()[i] == first.raw()[i];
  }
  const double rate = static_cast<double>(batch_samples) / median(times);
  const bool tau_ok = frame.tau() == batch_samples;

  TablePrinter kernel_table({"sampler", "samples/s", "count_sum"});
  kernel_table.add_row({"PathSampler", TablePrinter::fmt(rate, 0),
                        std::to_string(frame.count_sum())});
  kernel_table.print();
  std::printf("\nreps bitwise identical: %s; tau accounting: %s\n",
              reps_identical ? "YES" : "NO", tau_ok ? "exact" : "BROKEN");
  json.begin_row();
  json.field("section", "kernel");
  json.field("samples_per_sec_rate", rate);
  json.field("count_sum", static_cast<double>(frame.count_sum()));

  json.summary("kernel_rate", rate);
  json.summary("kernel_samples", static_cast<double>(batch_samples));
  json.summary("kernel_count_sum", static_cast<double>(frame.count_sum()));
  json.summary("kernel_reps_identical", reps_identical ? 1.0 : 0.0);
  json.summary("kernel_tau_ok", tau_ok ? 1.0 : 0.0);
  json.write();
  return 0;
}
