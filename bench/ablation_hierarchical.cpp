// Ablation for paper §IV-E: launching multiple ranks per node ("one MPI
// process per NUMA socket") with node-local shared-memory pre-aggregation
// via an RMA window, so that only node leaders join the global reduction.
//
// On the paper's hardware the win is NUMA locality of the graph (20-30%);
// that part cannot be reproduced in one address space (DESIGN.md
// substitution #4). What *is* reproduced: the communication structure -
// hierarchical aggregation shrinks the global reduction from P to
// P/ranks_per_node participants at the cost of a local window pass. The
// closing verdict compares each hierarchical row's reduction seconds and
// merge-reduction bytes per epoch against the flat ranks/node = 1 row.
#include <string>

#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace distbc;
  bench::BenchConfig config(argc, argv);
  config.options.describe("instance", "proxy instance to run");
  config.finish("SIV-E ablation: hierarchical pre-reduction.");
  bench::print_preamble("Ablation - hierarchical (per-node) aggregation",
                        "paper §IV-E", config);
  bench::JsonReport json("ablation_hierarchical", config);

  const auto& spec = gen::instance_by_name(
      config.options.get_string("instance", "orkut-proxy"));
  json.param("instance", spec.name);
  const auto graph = spec.build(config.scale, config.seed);
  const int p = static_cast<int>(config.options.get_u64("ranks", 16));
  const bool oversubscribed = bench::oversubscribed(p);
  json.param("ranks", static_cast<double>(p));
  std::printf("instance=%s |V|=%u P=%d%s\n\n", spec.name.c_str(),
              graph.num_vertices(), p,
              oversubscribed ? " (oversubscribed)" : "");

  TablePrinter table({"ranks/node", "hierarchical", "epochs", "ADS (s)",
                      "reduce (s)", "merge B/epoch", "comm volume"});
  struct Shape {
    int ranks_per_node;
    bool hierarchical;
  };
  const Shape shapes[] = {{1, false}, {2, false}, {2, true}, {4, true}};
  // The flat row (shapes[0]) is the reference: the claim holds when every
  // hierarchical row spends less reduction time and moves fewer
  // merge-reduction bytes per epoch than it.
  double flat_reduce_s = 0.0;
  double flat_merge_per_epoch = 0.0;
  bool holds = true;
  std::string measured;
  for (const Shape& shape : shapes) {
    bc::KadabraOptions options = bench::bench_mpi_options(spec, config);
    options.engine.hierarchical = shape.hierarchical;
    const bc::BcResult result = bc::kadabra_mpi(
        graph, options, p, shape.ranks_per_node, bench::bench_network(config));
    const double reduce_s = result.phases.seconds(Phase::kReduction);
    const double merge_per_epoch =
        result.epochs > 0
            ? static_cast<double>(result.comm_volume.reduce_merge_bytes) /
                  static_cast<double>(result.epochs)
            : 0.0;
    table.add_row(
        {std::to_string(shape.ranks_per_node),
         shape.hierarchical ? "yes" : "no",
         TablePrinter::fmt_int(static_cast<long long>(result.epochs)),
         TablePrinter::fmt(result.adaptive_seconds, 3),
         TablePrinter::fmt(reduce_s, 3),
         TablePrinter::fmt_bytes(merge_per_epoch),
         TablePrinter::fmt_bytes(
             static_cast<double>(result.comm_volume.total()))});
    json.begin_row();
    json.field("ranks_per_node", static_cast<double>(shape.ranks_per_node));
    json.field("hierarchical", shape.hierarchical ? 1.0 : 0.0);
    json.field("epochs", static_cast<double>(result.epochs));
    json.field("adaptive_seconds", result.adaptive_seconds);
    json.field("reduction_seconds", reduce_s);
    json.field("reduce_merge_bytes_per_epoch", merge_per_epoch);
    bench::add_comm_volume_fields(json, result.comm_volume);

    if (shape.ranks_per_node == 1) {
      flat_reduce_s = reduce_s;
      flat_merge_per_epoch = merge_per_epoch;
      continue;
    }
    if (!shape.hierarchical) continue;
    holds = holds && reduce_s < flat_reduce_s &&
            merge_per_epoch < flat_merge_per_epoch;
    char part[128];
    std::snprintf(part, sizeof(part), "%srpn=%d reduce %.2fx, merge B %.2fx",
                  measured.empty() ? "" : "; ", shape.ranks_per_node,
                  flat_reduce_s > 0 ? reduce_s / flat_reduce_s : 0.0,
                  flat_merge_per_epoch > 0
                      ? merge_per_epoch / flat_merge_per_epoch
                      : 0.0);
    measured += part;
  }
  table.print();

  bench::report_verdict(
      json, "SIV-E",
      "node-local pre-reduction shrinks the global reduction: less "
      "reduction time and fewer merge-reduction bytes per epoch than "
      "ranks/node = 1",
      "hierarchical over flat at P=" + std::to_string(p) +
          (oversubscribed ? " (oversubscribed): " : ": ") + measured,
      holds);
  json.write();
  return 0;
}
