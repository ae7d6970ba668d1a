// Reproduces Table II: per-instance statistics of the epoch-based MPI
// algorithm on 16 compute nodes - epochs, samples at termination, seconds
// spent in the non-blocking IBARRIER, communication volume per epoch, and
// adaptive-sampling time.
#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace distbc;
  bench::BenchConfig config(argc, argv);
  config.finish("Table II: per-instance statistics.");
  bench::print_preamble("Table II - per-instance statistics at P=16",
                        "paper Table II", config);

  const int p = static_cast<int>(config.options.get_u64("ranks", 16));
  TablePrinter table({"instance", "Ep.", "Samples", "B (s)", "Com./ep.",
                      "ADS time (s)"});
  for (const auto& spec : config.suite()) {
    const auto graph = spec.build(config.scale, config.seed);
    const bc::KadabraOptions options =
        bench::bench_mpi_options(spec, config);
    const bc::BcResult result = bc::kadabra_mpi(
        graph, options, p, /*ranks_per_node=*/1, bench::bench_network(config));
    const double volume_per_epoch =
        result.epochs > 0
            ? static_cast<double>(result.comm_volume.total()) / result.epochs
            : 0.0;
    table.add_row({spec.name, TablePrinter::fmt_int(
                                  static_cast<long long>(result.epochs)),
                   TablePrinter::fmt_int(
                       static_cast<long long>(result.samples)),
                   TablePrinter::fmt(result.phases.seconds(Phase::kBarrier),
                                     3),
                   TablePrinter::fmt_bytes(volume_per_epoch),
                   TablePrinter::fmt(result.adaptive_seconds, 2)});
  }
  table.print();
  std::printf(
      "\nPaper shape: road instances need the most samples/epochs but the "
      "least\ncommunication per epoch (small |V|); the largest instances "
      "finish in a\nhandful of epochs with the largest per-epoch volumes.\n");
  return 0;
}
