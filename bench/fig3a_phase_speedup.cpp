// Reproduces Figure 3a: per-phase speedup of the MPI algorithm over the
// shared-memory baseline - adaptive sampling (ADS) and calibration
// separately.
//
// Expected shape: ADS scales nearly linearly to P = 16 (the paper reports
// 16.1x); calibration scales well at first (its sampling part is pleasingly
// parallel) but flattens earlier because its per-vertex optimization is
// sequential at rank 0.
//
// Closes with a computed verdict on that shape (bench::report_verdict);
// --json / out= emit the rows and the verdict.
#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace distbc;
  bench::BenchConfig config(argc, argv);
  config.finish("Figure 3a: per-phase speedup.");
  bench::print_preamble("Figure 3a - per-phase speedup (ADS, calibration)",
                        "paper Fig. 3a", config);
  bench::JsonReport json("fig3a_phase_speedup", config);

  const auto ranks = bench::rank_sweep(config);
  std::vector<std::vector<double>> ads_speedups(ranks.size());
  std::vector<std::vector<double>> calib_speedups(ranks.size());

  for (const auto& spec : config.suite()) {
    const auto graph = spec.build(config.scale, config.seed);
    const bc::KadabraOptions shm = bench::bench_shm_options(spec, config);
    const bc::BcResult baseline = kadabra_shm(graph, shm);
    const double base_ads = baseline.adaptive_seconds;
    const double base_calib = baseline.phases.seconds(Phase::kCalibration);

    for (std::size_t i = 0; i < ranks.size(); ++i) {
      const bc::KadabraOptions mpi = bench::bench_mpi_options(spec, config);
      const bc::BcResult result = bc::kadabra_mpi(
          graph, mpi, ranks[i], /*ranks_per_node=*/1, bench::bench_network(config));
      if (result.adaptive_seconds > 0)
        ads_speedups[i].push_back(base_ads / result.adaptive_seconds);
      const double calib = result.phases.seconds(Phase::kCalibration);
      if (calib > 0) calib_speedups[i].push_back(base_calib / calib);
    }
  }

  TablePrinter table(
      {"# compute nodes", "ADS speedup", "calib. speedup", "oversubscribed"});
  // `measured` lists the ADS speedup per P > 1, marking each P the host
  // cannot run on dedicated cores.
  std::string measured;
  double ads_top = 0.0;
  double calib_top = 0.0;
  for (std::size_t i = 0; i < ranks.size(); ++i) {
    const double ads = bench::geometric_mean(ads_speedups[i]);
    const double calib = bench::geometric_mean(calib_speedups[i]);
    const bool oversubscribed = bench::oversubscribed(ranks[i]);
    table.add_row({std::to_string(ranks[i]), TablePrinter::fmt_ratio(ads),
                   TablePrinter::fmt_ratio(calib),
                   oversubscribed ? "yes" : "no"});
    json.begin_row();
    json.field("ranks", static_cast<double>(ranks[i]));
    json.field("oversubscribed", oversubscribed ? 1.0 : 0.0);
    json.field("ads_speedup", ads);
    json.field("calibration_speedup", calib);
    ads_top = ads;
    calib_top = calib;
    if (ranks[i] == 1) continue;
    char part[96];
    std::snprintf(part, sizeof(part), "%sP=%d %.2fx%s",
                  measured.empty() ? "" : ", ", ranks[i], ads,
                  oversubscribed ? " (oversubscribed)" : "");
    measured += part;
  }
  table.print();

  // The paper's 16.1x at P = 16 is near-linear; "near" is read as at least
  // half of linear at the largest P swept.
  const int top = ranks.back();
  char tail[96];
  std::snprintf(tail, sizeof(tail), "; calibration %.2fx at P=%d", calib_top,
                top);
  bench::report_verdict(
      json, "Fig. 3a",
      "ADS speeds up at least half-linearly (16.1x at P=16 in the paper) "
      "and calibration lags it",
      "ADS speedup over shared memory " +
          (measured.empty() ? std::string("P=1 only") : measured) + tail,
      top > 1 && ads_top >= 0.5 * top && calib_top <= ads_top);
  json.write();
  return 0;
}
