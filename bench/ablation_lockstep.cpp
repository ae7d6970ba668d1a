// Ablation for paper §III-B: "simple parallelization techniques - such as
// taking a fixed number of samples before each check of the stopping
// condition - fail to overlap computation and aggregation and are known to
// not scale well". Both columns run the same KADABRA engine: the epoch
// column free-running with Ibarrier + Reduce, the lockstep column in
// deterministic mode with blocking aggregation (every stream takes a fixed
// share per round, nothing is sampled while a collective is in flight, and
// every round blocks on the reduction before the stop check).
#include <string>

#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace distbc;
  bench::BenchConfig config(argc, argv);
  config.options.describe("instance", "proxy instance to run");
  config.finish("SIII-B ablation: lockstep vs epoch-based.");
  bench::print_preamble("Ablation - lockstep vs epoch-based parallelization",
                        "paper §III-B", config);
  bench::JsonReport json("ablation_lockstep", config);

  const auto& spec = gen::instance_by_name(
      config.options.get_string("instance", "wikipedia-proxy"));
  json.param("instance", spec.name);
  const auto graph = spec.build(config.scale, config.seed);
  std::printf("instance=%s |V|=%u\n\n", spec.name.c_str(),
              graph.num_vertices());

  TablePrinter table({"P", "epoch ADS (s)", "lockstep ADS (s)", "epoch adv.",
                      "epoch rate", "lockstep rate", "oversubscribed"});
  // The claim holds when the lockstep per-rank rate falls below the epoch
  // driver's at every P > 1 (at P = 1 there is nothing to synchronize);
  // `measured` collects that ratio per P.
  bool holds = true;
  std::string measured;
  for (const int p : {1, 4, 16}) {
    // Synchronization cost is the object of study: finer rounds and a
    // slower fabric keep it visible above the sampling work.
    bc::KadabraOptions epoch_options = bench::bench_mpi_options(spec, config);
    epoch_options.engine.epoch_base = config.options.get_u64("n0base", 20);
    const bc::BcResult epoch_result = bc::kadabra_mpi(
        graph, epoch_options, p, 1, bench::bench_network(config, 2000.0));

    bc::KadabraOptions lockstep_options = epoch_options;
    lockstep_options.engine.deterministic = true;
    lockstep_options.engine.aggregation = bc::Aggregation::kBlocking;
    const bc::BcResult lockstep_result = bc::kadabra_mpi(
        graph, lockstep_options, p, 1, bench::bench_network(config, 2000.0));

    auto rate = [p](const bc::BcResult& result) {
      return result.adaptive_seconds > 0
                 ? static_cast<double>(result.samples_attempted) /
                       (result.adaptive_seconds * p)
                 : 0.0;
    };
    const double epoch_rate = rate(epoch_result);
    const double lockstep_rate = rate(lockstep_result);
    const bool oversubscribed = bench::oversubscribed(p);
    table.add_row(
        {std::to_string(p),
         TablePrinter::fmt(epoch_result.adaptive_seconds, 3),
         TablePrinter::fmt(lockstep_result.adaptive_seconds, 3),
         TablePrinter::fmt_ratio(lockstep_result.adaptive_seconds /
                                 epoch_result.adaptive_seconds),
         TablePrinter::fmt(epoch_rate, 0),
         TablePrinter::fmt(lockstep_rate, 0),
         oversubscribed ? "yes" : "no"});
    json.begin_row();
    json.field("ranks", static_cast<double>(p));
    json.field("oversubscribed", oversubscribed ? 1.0 : 0.0);
    json.field("epoch_adaptive_seconds", epoch_result.adaptive_seconds);
    json.field("lockstep_adaptive_seconds", lockstep_result.adaptive_seconds);
    json.field("epoch_epochs", static_cast<double>(epoch_result.epochs));
    json.field("lockstep_epochs", static_cast<double>(lockstep_result.epochs));
    json.field("epoch_samples_per_rank_second", epoch_rate);
    json.field("lockstep_samples_per_rank_second", lockstep_rate);
    if (p == 1) continue;
    const double ratio = epoch_rate > 0 ? lockstep_rate / epoch_rate : 0.0;
    holds = holds && ratio < 1.0;
    char part[96];
    std::snprintf(part, sizeof(part), "%sP=%d %.2fx%s",
                  measured.empty() ? "" : ", ", p, ratio,
                  oversubscribed ? " (oversubscribed)" : "");
    measured += part;
  }
  table.print();

  bench::report_verdict(
      json, "SIII-B",
      "fixed-share rounds with a blocking stop check scale worse than the "
      "epoch driver",
      "lockstep per-rank rate over epoch's at " + measured,
      bench::kModeledClock, holds);
  json.write();
  return 0;
}
