// Reproduces Figure 3b: sampling throughput normalized by machine size -
// samples / (ADS time * P) - across the node sweep. A flat curve means the
// adaptive sampling phase scales linearly: almost all communication is
// hidden behind sampling. The section closes with a computed verdict on
// that shape (bench::report_verdict), marking oversubscribed P.
//
// Second section: the traversal kernel alone. One thread samples a
// Barabasi-Albert proxy (|V| = 200k, degree 8 by default) through
// bc::PathSampler; every rep replays the same stream, so every rep's frame
// must be bitwise identical, and its recorded-count sum is the
// deterministic counter the CI regression gate keys on.
//
// Third section: the closeness sampler's BFS on the service graphs
// (quick-social and quick-web at scale 1, seeds 1 and 2, as the suite
// builds them). The same sources feed adaptive::credit_source
// (graph::DirectionOptimizingBfs) and a top-down graph::bfs reference;
// the two closeness frames must match bitwise, and the kernel's
// adjacency entries read per source are a deterministic counter.
//
// --json / out= emit a machine-readable snapshot: wall-clock rates (named
// *_rate / *speedup*, skipped by ci/compare_bench.py) plus deterministic
// counters (recorded-count sums, tau accounting, the bitwise check) that
// are machine independent and gated against bench/baselines/.
#include "bench_common.hpp"

#include "adaptive/closeness.hpp"
#include "bc/sampler.hpp"
#include "epoch/state_frame.hpp"
#include "gen/barabasi_albert.hpp"
#include "graph/bfs.hpp"
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
  TablePrinter summary({"# compute nodes", "samples/(s*P)", "vs P=1",
                        "oversubscribed"});
  // "Flat" is read as every P keeping at least 3/4 of the first P's
  // normalized rate (the paper's curve spans 600-1000 samples/(s*node)).
  bool flat = ranks.size() > 1;
  std::string measured;
  const double first_rate = bench::geometric_mean(rates.front());
  for (std::size_t i = 0; i < ranks.size(); ++i) {
    const double geomean = bench::geometric_mean(rates[i]);
    const double ratio = first_rate > 0 ? geomean / first_rate : 0.0;
    const bool oversubscribed = bench::oversubscribed(ranks[i]);
    summary.add_row({std::to_string(ranks[i]), TablePrinter::fmt(geomean, 0),
                     TablePrinter::fmt_ratio(ratio),
                     oversubscribed ? "yes" : "no"});
    json.summary("p" + std::to_string(ranks[i]) + "_geomean_rate", geomean);
    if (i == 0) continue;
    flat = flat && ratio >= 0.75;
    char part[96];
    std::snprintf(part, sizeof(part), "%sP=%d %.2fx%s",
                  measured.empty() ? "" : ", ", ranks[i], ratio,
                  oversubscribed ? " (oversubscribed)" : "");
    measured += part;
  }
  summary.print();
  bench::report_verdict(
      json, "Fig. 3b",
      "the normalized rate samples/(s*P) stays flat across P (within 3/4 "
      "of the smallest P's)",
      "geometric-mean rate relative to P=" + std::to_string(ranks.front()) +
          ": " + (measured.empty() ? std::string("one P only") : measured),
      flat);

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

  // --- Closeness sampler BFS (graph::DirectionOptimizingBfs) -------------
  constexpr std::uint64_t kClosenessSources = 500;
  std::printf("\n=== Closeness sampler BFS - direction-optimizing vs "
              "top-down ===\n%llu sources per graph, single thread.\n\n",
              static_cast<unsigned long long>(kClosenessSources));
  TablePrinter closeness_table({"graph", "arcs/source", "top-down arcs",
                                "bottom-up levels", "us/source",
                                "top-down us"});
  bool frames_identical = true;
  const std::pair<const char*, std::uint64_t> service_graphs[] = {
      {"quick-social", 1}, {"quick-web", 2}};
  for (const auto& [name, graph_seed] : service_graphs) {
    const graph::Graph g =
        gen::instance_by_name(name).build(1.0, graph_seed);
    const graph::Vertex vertices = g.num_vertices();
    Rng rng(config.seed);
    std::vector<graph::Vertex> sources(kClosenessSources);
    for (graph::Vertex& source : sources)
      source = static_cast<graph::Vertex>(rng.next_bounded(vertices));

    epoch::StateFrame reference(adaptive::closeness_words(vertices));
    graph::BfsWorkspace ws(vertices);
    std::uint64_t top_down_arcs = 0;
    WallTimer top_down_timer;
    for (const graph::Vertex source : sources) {
      graph::bfs(g, source, ws);
      for (const graph::Vertex v : ws.queue()) {
        top_down_arcs += g.degree(v);
        if (v != source)
          adaptive::add_credit(reference, std::span(&v, 1),
                               1.0 / static_cast<double>(ws.dist(v)));
      }
      reference.finish_sample();
    }
    const double top_down_s = top_down_timer.elapsed_s();

    epoch::StateFrame closeness(adaptive::closeness_words(vertices));
    graph::DirectionOptimizingBfs bfs(vertices);
    WallTimer kernel_timer;
    for (const graph::Vertex source : sources)
      adaptive::credit_source(g, source, bfs, closeness);
    const double kernel_s = kernel_timer.elapsed_s();
    for (std::size_t i = 0; i < closeness.raw().size(); ++i)
      frames_identical &= closeness.raw()[i] == reference.raw()[i];

    const auto per_source = [&](double total) {
      return total / static_cast<double>(kClosenessSources);
    };
    const double arcs = per_source(static_cast<double>(bfs.arcs_examined()));
    const double reference_arcs =
        per_source(static_cast<double>(top_down_arcs));
    const double bottom_up =
        per_source(static_cast<double>(bfs.bottom_up_levels()));
    closeness_table.add_row({name, TablePrinter::fmt(arcs, 0),
                             TablePrinter::fmt(reference_arcs, 0),
                             TablePrinter::fmt(bottom_up, 2),
                             TablePrinter::fmt(per_source(kernel_s) * 1e6, 1),
                             TablePrinter::fmt(per_source(top_down_s) * 1e6,
                                               1)});
    std::string key = std::string("closeness_") + name;
    std::replace(key.begin(), key.end(), '-', '_');
    json.begin_row();
    json.field("section", "closeness");
    json.field("instance", name);
    json.field("arcs_per_source", arcs);
    json.field("top_down_arcs_per_source", reference_arcs);
    json.field("bottom_up_levels_per_source", bottom_up);
    json.field("speedup", top_down_s / kernel_s);
    json.summary(key + "_arcs_per_source", arcs);
    json.summary(key + "_top_down_arcs_per_source", reference_arcs);
    json.summary(key + "_speedup", top_down_s / kernel_s);
  }
  closeness_table.print();
  std::printf("\ncloseness frames bitwise identical to top-down: %s\n",
              frames_identical ? "YES" : "NO");
  json.summary("closeness_frames_identical", frames_identical ? 1.0 : 0.0);
  json.write();
  return 0;
}
