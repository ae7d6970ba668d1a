// Reproduces Figure 2a: overall speedup of the epoch-based MPI algorithm
// over the state-of-the-art shared-memory algorithm (Ref. [24]), as a
// function of the number of compute nodes.
//
// Substitution note: the paper's "one compute node" is a 24-core machine;
// here one simulated node is one rank with one sampler thread and the
// shared-memory baseline runs single-threaded, so the speedup axis has the
// same meaning (resources grow linearly with P, baseline holds one node's
// worth). Expected shape: near-linear speedup through P = 8, flattening at
// 16 as the sequential diameter/calibration phases gain weight (Amdahl).
//
// Closes with a computed verdict on the paper's 7.4x at P = 16
// (bench::report_verdict); --json / out= emit the rows and the verdict.
#include <cstdio>

#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace distbc;
  bench::BenchConfig config(argc, argv);
  config.finish("Figure 2a: epoch-based MPI speedup over shared memory.");
  bench::print_preamble("Figure 2a - overall speedup vs shared memory",
                        "paper Fig. 2a (geom. mean over the Table I suite)",
                        config);
  bench::JsonReport json("fig2a_overall_speedup", config);

  const auto ranks = bench::rank_sweep(config);
  std::vector<std::vector<double>> speedups(ranks.size());

  std::vector<std::string> header{"instance", "baseline shm (s)"};
  for (const int p : ranks) header.push_back("P=" + std::to_string(p));
  TablePrinter table(header);
  for (const auto& spec : config.suite()) {
    const auto graph = spec.build(config.scale, config.seed);
    const bc::KadabraOptions shm = bench::bench_shm_options(spec, config);
    const bc::BcResult baseline = kadabra_shm(graph, shm);

    std::vector<std::string> row{spec.name,
                                 TablePrinter::fmt(baseline.total_seconds, 4)};
    for (std::size_t i = 0; i < ranks.size(); ++i) {
      const bc::KadabraOptions mpi = bench::bench_mpi_options(spec, config);
      const bc::BcResult result = bc::kadabra_mpi(
          graph, mpi, ranks[i], /*ranks_per_node=*/1, bench::bench_network(config));
      const double speedup = baseline.total_seconds / result.total_seconds;
      speedups[i].push_back(speedup);
      row.push_back(TablePrinter::fmt_ratio(speedup));
      json.begin_row();
      json.field("instance", spec.name);
      json.field("ranks", static_cast<double>(ranks[i]));
      json.field("oversubscribed",
                 bench::oversubscribed(ranks[i]) ? 1.0 : 0.0);
      json.field("baseline_seconds", baseline.total_seconds);
      json.field("seconds", result.total_seconds);
      json.field("speedup", speedup);
    }
    table.add_row(row);
  }
  table.print();

  std::printf("\nGeometric-mean overall speedup:\n");
  TablePrinter summary({"# compute nodes", "speedup", "oversubscribed"});
  // `measured` lists the geomean speedup per P, marking each P the host
  // cannot run on dedicated cores.
  std::string measured;
  double top_speedup = 0.0;
  for (std::size_t i = 0; i < ranks.size(); ++i) {
    const double mean = bench::geometric_mean(speedups[i]);
    const bool oversubscribed = bench::oversubscribed(ranks[i]);
    summary.add_row({std::to_string(ranks[i]), TablePrinter::fmt_ratio(mean),
                     oversubscribed ? "yes" : "no"});
    json.summary("speedup_p" + std::to_string(ranks[i]), mean);
    top_speedup = mean;
    char part[96];
    std::snprintf(part, sizeof(part), "%sP=%d %.2fx%s",
                  measured.empty() ? "" : ", ", ranks[i], mean,
                  oversubscribed ? " (oversubscribed)" : "");
    measured += part;
  }
  summary.print();

  // The paper's 7.4x at P = 16 is 7.4 / 16 = 46% parallel efficiency over
  // the one-node shared-memory baseline; the claim holds when the largest
  // P swept reaches that efficiency.
  constexpr double kPaperEfficiency = 7.4 / 16.0;
  const int top = ranks.back();
  char tail[96];
  std::snprintf(tail, sizeof(tail), "; %.2fx needed at P=%d",
                kPaperEfficiency * top, top);
  bench::report_verdict(
      json, "Fig. 2a",
      "at the largest P, the speedup over one shared-memory node reaches "
      "the paper's parallel efficiency (7.4x at P=16, 46% of linear)",
      "geometric-mean speedup " + measured + tail, bench::kModeledClock,
      top > 1 && top_speedup >= kPaperEfficiency * top);
  json.write();
  return 0;
}
