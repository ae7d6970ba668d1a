// Ablation for tree-merge image reductions: under a flat merge reduction
// every per-rank delta image lands at the root whole, so root ingest grows
// as O(P x nnz); the tree merge combines images at interior ranks (with
// mid-tree densification), so the root ingests only its direct children's
// merged images. On a hub-heavy graph (Barabasi-Albert) per-rank deltas
// overlap strongly and the merged unions shrink well below the sum of
// their parts. Acceptance:
//   * root-ingest bytes under tree merge strictly below the rooted flat
//     merge (radix = P: every rank a direct child of the root, the shape
//     a decentralized flat merge replaced) for P >= 16 (any radix). The
//     radix-0 "flat" arm itself is the symmetric allreduce_merge: no rank
//     is a root during adaptive epochs, so its residual ingest is the
//     calibration phase's rooted reduction only,
//   * deterministic-mode scores bitwise identical across flat/tree at
//     every P,
//   * tree root ingest bounded by radix x the densify-capped image - the
//     O(radix) cap that replaces flat's O(P x nnz) growth. (Total moved
//     bytes legitimately rise with tree depth - pairs cross one hop per
//     level - which is the latency-for-ingest tradeoff the per-hop
//     alpha-beta charge prices.)
// A second section prices completion deadlines on the interconnect model
// at P = 16 across four arms - flat merge, single-level radix-2 tree, the
// two-level composition (node pre-reduce + leader tree), and the same
// two-level path aggregated non-blocking so interior combines overlap the
// caller's sampling. Acceptance: the overlapped two-level arm's analytic
// critical path (modeled_s) strictly undercuts the single-level tree's.
// The --json object (BENCH_tree_merge.json in CI) carries root-ingest,
// per-collective bytes, and the modeled-seconds anchors for every
// configuration and feeds the CI bench-regression gate.
#include <algorithm>
#include <string>
#include <string_view>

#include "bench_common.hpp"
#include "gen/barabasi_albert.hpp"
#include "graph/components.hpp"

int main(int argc, char** argv) {
  using namespace distbc;
  bench::BenchConfig config(argc, argv);
  config.options.describe("vertices", "graph size (hub overlap is the point)");
  config.options.describe("eps", "betweenness epsilon");
  config.options.describe("n0", "per-stream epoch share (n0 = share x P)");
  config.options.describe("modeled_n0",
                          "per-stream epoch share of the modeled-s section");
  config.options.describe("modeled_eps",
                          "betweenness epsilon of the modeled-s section");
  config.finish("Tree-merge image reductions: root ingest vs P.");
  bench::print_preamble(
      "Ablation - tree merge (flat | radix 2 | radix 4)",
      "§IV-E hierarchy generalized to the reduction tree; root ingest "
      "O(log P)",
      config);
  bench::JsonReport json("ablation_tree_merge", config);

  const auto vertices = static_cast<std::uint32_t>(
      config.options.get_u64("vertices", 2000));
  const double eps = config.options.get_double("eps", 0.1);
  const auto n0_share = config.options.get_u64("n0", 16);
  const graph::Graph graph = graph::largest_component(
      gen::barabasi_albert(vertices, 3, config.seed));
  std::printf("instance: Barabasi-Albert |V|=%u |E|=%llu, eps=%.3g\n\n",
              graph.num_vertices(),
              static_cast<unsigned long long>(graph.num_edges()), eps);
  json.param("vertices", static_cast<double>(graph.num_vertices()));
  json.param("n0_share", static_cast<double>(n0_share));

  const std::vector<int> rank_counts =
      config.options.has("ranks")
          ? std::vector<int>{static_cast<int>(
                config.options.get_u64("ranks", 16))}
          : std::vector<int>{4, 16};
  const int radixes[] = {0, 2, 4};  // 0 = flat

  const auto run = [&](int ranks, int radix) {
    bc::KadabraOptions options;
    options.params.epsilon = eps;
    options.params.seed = config.seed;
    options.engine.threads_per_rank = 1;
    // Deterministic mode pins the sample set: every configuration
    // aggregates the same frames, so byte counts are comparable and
    // scores must be bitwise identical.
    options.engine.deterministic = true;
    options.engine.virtual_streams = static_cast<std::uint64_t>(ranks);
    options.engine.epoch_base = n0_share * static_cast<std::uint64_t>(ranks);
    options.engine.epoch_exponent = 0.0;
    options.engine.tree_radix = radix;
    return bc::kadabra_mpi(graph, options, ranks, /*ranks_per_node=*/1,
                           mpisim::NetworkModel::disabled());
  };

  TablePrinter table({"P", "mode", "epochs", "agg bytes", "merge bytes",
                      "root ingest"});
  bool bitwise_identical = true;
  bool tree_cuts_ingest = true;
  bool ingest_bounded = true;
  // A merged image never exceeds its densify cap (threshold 1.0: the dense
  // image), so the root ingests at most radix such images per epoch.
  const std::uint64_t dense_image_bytes =
      (static_cast<std::uint64_t>(graph.num_vertices()) + 2) *
      sizeof(std::uint64_t);
  std::uint64_t rooted_ingest_pmax = 0;
  std::uint64_t flat_ingest_pmax = 0;
  std::uint64_t tree2_ingest_pmax = 0;
  const int p_max = *std::max_element(rank_counts.begin(), rank_counts.end());

  for (const int ranks : rank_counts) {
    // Per-P baseline: the flat merge. Virtual streams scale with P, so
    // identity is checked within one cluster shape.
    const bc::BcResult baseline = run(ranks, 0);
    // The rooted reference: radix = P puts every rank directly under the
    // root - the flat *rooted* reduction a decentralized merge replaced,
    // and the O(P x nnz) ingest the tree arms are measured against.
    const bc::BcResult rooted = run(ranks, ranks);
    const std::uint64_t rooted_ingest =
        rooted.comm_volume.root_ingest_bytes;
    if (ranks == p_max) rooted_ingest_pmax = rooted_ingest;
    table.add_row(
        {TablePrinter::fmt_int(ranks), "rooted",
         TablePrinter::fmt_int(static_cast<long long>(rooted.epochs)),
         TablePrinter::fmt_int(
             static_cast<long long>(rooted.comm_volume.aggregation_bytes())),
         TablePrinter::fmt_int(
             static_cast<long long>(rooted.comm_volume.reduce_merge_bytes)),
         TablePrinter::fmt_int(
             static_cast<long long>(rooted_ingest))});
    json.begin_row();
    json.field("ranks", static_cast<double>(ranks));
    json.field("tree_radix", static_cast<double>(ranks));
    json.field("mode", "rooted");
    json.field("epochs", static_cast<double>(rooted.epochs));
    json.field("samples", static_cast<double>(rooted.samples));
    bench::add_comm_volume_fields(json, rooted.comm_volume);
    for (std::size_t v = 0; v < rooted.scores.size(); ++v)
      if (rooted.scores.size() != baseline.scores.size() ||
          rooted.scores[v] != baseline.scores[v]) {
        bitwise_identical = false;
        break;
      }

    for (const int radix : radixes) {
      const bc::BcResult result = run(ranks, radix);
      const mpisim::CommVolume& volume = result.comm_volume;
      if (radix == 0 && ranks == p_max)
        flat_ingest_pmax = volume.root_ingest_bytes;
      if (radix != 0) {
        // The acceptance check: interior merging must strictly shrink what
        // the root ingests on large P (every image shares at least the tau
        // pair, and hub overlap shrinks unions further), and ingest stays
        // under the O(radix) densify cap per epoch.
        if (ranks >= 16 && volume.root_ingest_bytes >= rooted_ingest)
          tree_cuts_ingest = false;
        if (volume.root_ingest_bytes > static_cast<std::uint64_t>(radix) *
                                           dense_image_bytes * result.epochs)
          ingest_bounded = false;
        if (ranks == p_max && radix == 2)
          tree2_ingest_pmax = volume.root_ingest_bytes;
      }

      if (result.samples != baseline.samples ||
          result.scores.size() != baseline.scores.size())
        bitwise_identical = false;
      for (std::size_t v = 0; v < result.scores.size(); ++v)
        if (result.scores[v] != baseline.scores[v]) {
          bitwise_identical = false;
          break;
        }

      const std::string mode =
          radix == 0 ? "flat" : "tree r=" + std::to_string(radix);
      table.add_row(
          {TablePrinter::fmt_int(ranks), mode,
           TablePrinter::fmt_int(static_cast<long long>(result.epochs)),
           TablePrinter::fmt_int(
               static_cast<long long>(volume.aggregation_bytes())),
           TablePrinter::fmt_int(
               static_cast<long long>(volume.reduce_merge_bytes)),
           TablePrinter::fmt_int(
               static_cast<long long>(volume.root_ingest_bytes))});
      json.begin_row();
      json.field("ranks", static_cast<double>(ranks));
      json.field("tree_radix", static_cast<double>(radix));
      json.field("mode", mode);
      json.field("epochs", static_cast<double>(result.epochs));
      json.field("samples", static_cast<double>(result.samples));
      bench::add_comm_volume_fields(json, volume);
    }
  }
  table.print();

  // --- Modeled critical path: the two-level overlapped merge at P = 16 ----
  // The byte section shows what interior merging does to root ingest; this
  // one prices completion deadlines on the interconnect model (enabled
  // here, unlike above: modeled_s is the metric). Deterministic mode pins
  // the sample set, so modeled_s is an analytic, machine-independent
  // anchor and scores must stay bitwise identical across the arms.
  const int modeled_ranks = 16;
  const int modeled_rpn = 4;
  // Heavier epochs than the byte section: interior combines are priced at
  // combine_bandwidth_bps, so the latency-vs-combine tradeoff the arms
  // differ on only shows once per-hop images carry real payload (small
  // images are pure latency, where a deeper tree and the non-blocking
  // progression stretch both lose).
  const std::uint64_t modeled_n0_share =
      config.options.get_u64("modeled_n0", n0_share * 256);
  // Tighter epsilon than the byte section for the same reason: the sample
  // budget grows ~1/eps^2, and with it the per-epoch delta images.
  const double modeled_eps = config.options.get_double("modeled_eps", 0.01);
  const mpisim::NetworkModel network = bench::bench_network(config);
  struct Arm {
    const char* name;
    bool hierarchical;
    int tree_radix;
    int leader_radix;
    engine::Aggregation aggregation;
  };
  const Arm arms[] = {
      {"flat", false, 0, 0, engine::Aggregation::kIbarrierReduce},
      {"tree", false, 2, 0, engine::Aggregation::kIbarrierReduce},
      {"two_level", true, 0, 2, engine::Aggregation::kIbarrierReduce},
      {"two_level_overlap", true, 0, 2, engine::Aggregation::kIreduce},
  };
  TablePrinter modeled_table(
      {"P", "arm", "modeled_s", "overlapped_s", "root ingest"});
  double modeled_tree_s = 0.0;
  double modeled_two_level_overlap_s = 0.0;
  std::vector<double> flat_scores;
  for (const Arm& arm : arms) {
    bc::KadabraOptions options;
    options.params.epsilon = modeled_eps;
    options.params.seed = config.seed;
    options.engine.threads_per_rank = 1;
    options.engine.deterministic = true;
    options.engine.virtual_streams =
        static_cast<std::uint64_t>(modeled_ranks);
    options.engine.epoch_base =
        modeled_n0_share * static_cast<std::uint64_t>(modeled_ranks);
    options.engine.epoch_exponent = 0.0;
    options.engine.aggregation = arm.aggregation;
    options.engine.hierarchical = arm.hierarchical;
    options.engine.tree_radix = arm.tree_radix;
    options.engine.leader_radix = arm.leader_radix;
    const bc::BcResult result =
        bc::kadabra_mpi(graph, options, modeled_ranks, modeled_rpn, network);
    const mpisim::CommVolume& volume = result.comm_volume;
    const double modeled_s = volume.modeled_seconds();
    if (std::string_view(arm.name) == "tree") modeled_tree_s = modeled_s;
    if (std::string_view(arm.name) == "two_level_overlap")
      modeled_two_level_overlap_s = modeled_s;
    if (flat_scores.empty()) {
      flat_scores = result.scores;
    } else {
      if (result.scores.size() != flat_scores.size())
        bitwise_identical = false;
      for (std::size_t v = 0; v < result.scores.size(); ++v)
        if (result.scores[v] != flat_scores[v]) {
          bitwise_identical = false;
          break;
        }
    }
    modeled_table.add_row(
        {TablePrinter::fmt_int(modeled_ranks), arm.name,
         TablePrinter::fmt(modeled_s, 6),
         TablePrinter::fmt(
             static_cast<double>(volume.overlapped_combine_ns) * 1e-9, 6),
         TablePrinter::fmt_int(
             static_cast<long long>(volume.root_ingest_bytes))});
    json.begin_row();
    json.field("ranks", static_cast<double>(modeled_ranks));
    json.field("ranks_per_node", static_cast<double>(modeled_rpn));
    json.field("arm", arm.name);
    json.field("epochs", static_cast<double>(result.epochs));
    json.field("samples", static_cast<double>(result.samples));
    bench::add_comm_volume_fields(json, volume);
  }
  std::printf("\nmodeled critical path at P=%d (%d ranks/node):\n",
              modeled_ranks, modeled_rpn);
  modeled_table.print();
  const bool overlap_cuts_modeled =
      modeled_two_level_overlap_s < modeled_tree_s;
  std::printf("check: two-level overlap cuts modeled_s vs single-level "
              "tree: %s (%.6fs vs %.6fs)\n",
              overlap_cuts_modeled ? "PASS" : "FAIL",
              modeled_two_level_overlap_s, modeled_tree_s);

  const double ingest_ratio =
      tree2_ingest_pmax > 0
          ? static_cast<double>(rooted_ingest_pmax) /
                static_cast<double>(tree2_ingest_pmax)
          : 0.0;
  std::printf("\nroot ingest at P=%d: rooted %llu vs tree r=2 %llu "
              "= %.2fx (decentralized flat: %llu, calibration only)\n",
              p_max,
              static_cast<unsigned long long>(rooted_ingest_pmax),
              static_cast<unsigned long long>(tree2_ingest_pmax),
              ingest_ratio,
              static_cast<unsigned long long>(flat_ingest_pmax));
  std::printf("check: tree merge cuts root ingest for P >= 16: %s\n",
              tree_cuts_ingest ? "PASS" : "FAIL");
  std::printf("check: tree root ingest bounded by radix x densify cap: %s\n",
              ingest_bounded ? "PASS" : "FAIL");
  std::printf("check: bitwise-identical deterministic results: %s\n",
              bitwise_identical ? "PASS" : "FAIL");
  json.summary("rooted_sparse_root_ingest",
               static_cast<double>(rooted_ingest_pmax));
  json.summary("flat_sparse_root_ingest",
               static_cast<double>(flat_ingest_pmax));
  json.summary("tree2_sparse_root_ingest",
               static_cast<double>(tree2_ingest_pmax));
  json.summary("rooted_over_tree_ingest", ingest_ratio);
  json.summary("tree_cuts_root_ingest", tree_cuts_ingest ? 1.0 : 0.0);
  json.summary("tree_ingest_bounded", ingest_bounded ? 1.0 : 0.0);
  json.summary("modeled_tree_s", modeled_tree_s);
  json.summary("modeled_two_level_overlap_s", modeled_two_level_overlap_s);
  json.summary("tree_over_two_level_overlap_modeled",
               modeled_two_level_overlap_s > 0.0
                   ? modeled_tree_s / modeled_two_level_overlap_s
                   : 0.0);
  json.summary("two_level_overlap_cuts_modeled_s",
               overlap_cuts_modeled ? 1.0 : 0.0);
  json.summary("bitwise_identical", bitwise_identical ? 1.0 : 0.0);
  json.write();
  return tree_cuts_ingest && ingest_bounded && bitwise_identical &&
                 overlap_cuts_modeled
             ? 0
             : 1;
}
