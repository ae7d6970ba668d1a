// Ablation for paper §IV-F: the aggregation strategy. The paper found that
// MPI_Ireduce progresses poorly, that a non-blocking barrier followed by a
// blocking reduce is considerably faster, and that a fully blocking
// approach is "again detrimental". This bench compares all three under the
// same interconnect model.
#include <string>
#include <vector>

#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace distbc;
  bench::BenchConfig config(argc, argv);
  config.options.describe("instance", "proxy instance to run");
  config.finish("SIV-F ablation: aggregation strategies.");
  bench::print_preamble("Ablation - aggregation strategy",
                        "paper §IV-F (Ibarrier+Reduce vs Ireduce vs "
                        "blocking)",
                        config);
  bench::JsonReport json("ablation_reduce_strategy", config);

  const auto& spec = gen::instance_by_name(
      config.options.get_string("instance", "twitter-proxy"));
  json.param("instance", spec.name);
  const auto graph = spec.build(config.scale, config.seed);
  std::printf("instance=%s |V|=%u\n\n", spec.name.c_str(),
              graph.num_vertices());

  struct Strategy {
    const char* name;
    bc::Aggregation aggregation;
  };
  const Strategy strategies[] = {
      {"ibarrier+reduce", bc::Aggregation::kIbarrierReduce},
      {"ireduce", bc::Aggregation::kIreduce},
      {"blocking", bc::Aggregation::kBlocking}};

  TablePrinter table({"strategy", "P", "epochs", "ADS (s)", "ibarrier (s)",
                      "reduce (s)", "samples/(s*P)", "oversubscribed"});
  // The claim holds when Ibarrier + Reduce finishes the adaptive phase
  // first at every P; `measured` collects the other two's ADS over it.
  bool holds = true;
  std::string measured;
  for (const int p : {4, 16}) {
    const bool oversubscribed = bench::oversubscribed(p);
    std::vector<double> ads;  // in `strategies` order
    for (const Strategy& strategy : strategies) {
      bc::KadabraOptions options = bench::bench_mpi_options(spec, config);
      options.engine.aggregation = strategy.aggregation;
      // Shorter epochs than the shared bench default: the per-epoch
      // aggregation is the object of study here, so give it weight.
      options.engine.epoch_base = config.options.get_u64("n0base", 20);
      const bc::BcResult result = bc::kadabra_mpi(
          graph, options, p, 1, bench::bench_network(config, 500.0));
      const double rate =
          result.adaptive_seconds > 0
              ? static_cast<double>(result.samples_attempted) /
                    (result.adaptive_seconds * p)
              : 0.0;
      table.add_row(
          {strategy.name, std::to_string(p),
           TablePrinter::fmt_int(static_cast<long long>(result.epochs)),
           TablePrinter::fmt(result.adaptive_seconds, 3),
           TablePrinter::fmt(result.phases.seconds(Phase::kBarrier), 3),
           TablePrinter::fmt(result.phases.seconds(Phase::kReduction), 3),
           TablePrinter::fmt(rate, 0), oversubscribed ? "yes" : "no"});
      ads.push_back(result.adaptive_seconds);
      json.begin_row();
      json.field("strategy", strategy.name);
      json.field("ranks", static_cast<double>(p));
      json.field("oversubscribed", oversubscribed ? 1.0 : 0.0);
      json.field("epochs", static_cast<double>(result.epochs));
      json.field("adaptive_seconds", result.adaptive_seconds);
      json.field("samples_per_rank_second", rate);
    }
    holds = holds && ads[0] < ads[1] && ads[0] < ads[2];
    char part[128];
    std::snprintf(part, sizeof(part), "%sP=%d ireduce %.2fx, blocking %.2fx%s",
                  measured.empty() ? "" : "; ", p, ads[1] / ads[0],
                  ads[2] / ads[0], oversubscribed ? " (oversubscribed)" : "");
    measured += part;
  }
  table.print();

  bench::report_verdict(
      json, "SIV-F",
      "Ibarrier + blocking Reduce beats Ireduce, and fully blocking is "
      "again detrimental",
      "ADS over ibarrier+reduce's: " + measured, holds);
  json.write();
  return 0;
}
