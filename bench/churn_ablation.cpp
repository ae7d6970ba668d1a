// Churn ablation - the dynamic-graphs headline: incremental betweenness
// (src/dynamic/ sample-ledger refresh) vs full recomputation under edge
// churn, on a Barabasi-Albert graph at churn rates of 0.01%, 0.1%, and 1%
// of the edges per batch.
//
// Every batch is generated deterministically (inserts are random absent
// edges; deletions recycle edges inserted by earlier batches, so the
// original graph's connectivity is preserved by construction) and the two
// modes replay the SAME batch sequence:
//
//   incremental  one engine survives all batches; per batch it classifies
//                its retained samples against the batch sketches, redraws
//                only the dirty ones, and re-runs the stop rule;
//   full         a fresh engine per graph version (diameter, calibration,
//                and every sample from scratch).
//
// The gated headline counters are deterministic (single-threaded engine,
// per-sample RNG streams): the dirty-sample fraction per churn rate, the
// fraction of full-mode sample draws the incremental path avoids, and the
// acceptance bool `dirty_fraction_bounded` (< 25% dirty at 0.1% churn),
// and per churn rate `churn_<rate>_scores_fnv48`, a 48-bit FNV-1a digest
// of the incremental engine's final score vector, so the gate pins the
// scores themselves and not only the counters.
// Wall clocks are reported as est_*_seconds and skipped by the gate: per
// churn rate the incremental total (build + refreshes), the build alone,
// the refresh seconds per batch, and the recompute seconds per graph
// version; each churn rate's rows end with refresh over recompute.
#include <bit>
#include <cstdint>
#include <cstdio>
#include <vector>

#include "bench_common.hpp"
#include "dynamic/edge_batch.hpp"
#include "dynamic/incremental_bc.hpp"
#include "dynamic/mutable_graph.hpp"
#include "gen/barabasi_albert.hpp"
#include "graph/components.hpp"
#include "support/random.hpp"
#include "support/timer.hpp"

namespace distbc {
namespace {

struct ChurnPoint {
  double fraction;  // of the edge count, per batch
  const char* tag;  // summary-field suffix ("0p01" = 0.01%)
};

/// FNV-1a over the scores' bit patterns, xor-folded to 48 bits so it
/// survives a JSON double exactly: a change in any score changes it, up
/// to hash collisions.
std::uint64_t scores_fnv48(const std::vector<double>& scores) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const double score : scores) {
    const auto bits = std::bit_cast<std::uint64_t>(score);
    for (int byte = 0; byte < 8; ++byte) {
      hash ^= (bits >> (8 * byte)) & 0xffU;
      hash *= 0x100000001b3ULL;
    }
  }
  return (hash >> 48) ^ (hash & 0xffffffffffffULL);
}

/// The deterministic batch sequence for one churn rate: `count` batches
/// against the evolving graph, `edges_per_batch` inserts each, deletions
/// recycling earlier inserts from the second batch on.
std::vector<dynamic::EdgeBatch> make_batches(
    const std::shared_ptr<const graph::Graph>& initial, int count,
    std::uint64_t edges_per_batch, Rng rng) {
  dynamic::MutableGraph sim(initial);
  std::vector<dynamic::Edge> recyclable;
  std::vector<dynamic::EdgeBatch> batches;
  for (int b = 0; b < count; ++b) {
    const graph::Graph& graph = *sim.snapshot();
    dynamic::EdgeBatch batch;
    std::vector<dynamic::Edge> added;
    while (added.size() < edges_per_batch) {
      auto [x, y] = rng.next_distinct_pair(graph.num_vertices());
      const dynamic::Edge edge{
          static_cast<graph::Vertex>(std::min(x, y)),
          static_cast<graph::Vertex>(std::max(x, y))};
      if (graph.has_edge(edge.u, edge.v)) continue;
      bool queued = false;
      for (const dynamic::Edge& seen : added) queued |= seen == edge;
      if (queued) continue;
      batch.insert(edge.u, edge.v);
      added.push_back(edge);
    }
    if (b > 0) {
      // Delete half a batch worth of earlier inserts: the original edges
      // never leave, so the graph stays connected with no retry loop.
      const std::size_t deletions =
          std::min<std::size_t>(recyclable.size(), (edges_per_batch + 1) / 2);
      for (std::size_t i = 0; i < deletions; ++i)
        batch.remove(recyclable[i].u, recyclable[i].v);
      recyclable.erase(recyclable.begin(),
                       recyclable.begin() + static_cast<long>(deletions));
    }
    recyclable.insert(recyclable.end(), added.begin(), added.end());
    const api::Status status = batch.validate(graph);
    if (!status.ok) {
      std::fprintf(stderr, "batch generation bug: %s\n",
                   status.message.c_str());
      std::exit(1);
    }
    sim.apply(batch);
    batches.push_back(std::move(batch));
  }
  return batches;
}

}  // namespace
}  // namespace distbc

int main(int argc, char** argv) {
  using namespace distbc;
  bench::BenchConfig config(argc, argv);
  const std::uint64_t vertices =
      config.options.get_u64("vertices", 3500, "Barabasi-Albert vertices");
  const std::uint64_t attach =
      config.options.get_u64("attach", 2, "edges per new vertex");
  const double epsilon =
      config.options.get_double("eps", 0.05, "KADABRA epsilon");
  const int batches = static_cast<int>(
      config.options.get_u64("batches", 5, "churn batches per rate"));
  const std::uint64_t sketch_cap = config.options.get_u64(
      "sketch_cap", 256, "scanned-set sketch size kept exact");
  config.finish(
      "Incremental betweenness vs full recompute under edge churn");
  bench::print_preamble("churn ablation (incremental vs full recompute)",
                        "dynamic-graphs extension (not in the paper)",
                        config);

  const auto initial =
      std::make_shared<const graph::Graph>(graph::largest_component(
          gen::barabasi_albert(static_cast<graph::Vertex>(vertices),
                               static_cast<std::uint32_t>(attach),
                               config.seed)));
  const std::uint64_t edges = initial->num_edges();
  std::printf("graph: barabasi_albert n=%llu attach=%llu -> %u vertices, "
              "%llu edges\n\n",
              static_cast<unsigned long long>(vertices),
              static_cast<unsigned long long>(attach),
              initial->num_vertices(),
              static_cast<unsigned long long>(edges));

  bc::KadabraParams params;
  params.epsilon = epsilon;
  params.delta = 0.1;
  params.seed = config.seed;
  dynamic::SketchParams sketch;
  sketch.exact_cap = static_cast<std::uint32_t>(sketch_cap);

  bench::JsonReport json("churn_ablation", config);
  json.param("vertices", static_cast<double>(initial->num_vertices()));
  json.param("edges", static_cast<double>(edges));
  json.param("eps", epsilon);
  json.param("batches", static_cast<double>(batches));
  json.param("sketch_cap", static_cast<double>(sketch_cap));

  const std::vector<ChurnPoint> points = {
      {0.0001, "0p01"}, {0.001, "0p10"}, {0.01, "1p00"}};
  std::printf("%8s %12s %8s %8s %10s %10s %12s %12s\n", "churn", "mode",
              "batches", "edges/b", "dirty", "retained", "draws",
              "est_seconds");

  double bounded_dirty_fraction = -1.0;
  for (const ChurnPoint& point : points) {
    const auto edges_per_batch = std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(point.fraction *
                                      static_cast<double>(edges) + 0.5));
    const std::vector<dynamic::EdgeBatch> sequence = make_batches(
        initial, batches, edges_per_batch,
        Rng(config.seed).split(static_cast<std::uint64_t>(
            point.fraction * 1e6)));

    // --- Incremental: one engine, refresh per batch --------------------
    // The build (the initial run()) is timed apart from the refreshes so
    // the per-batch cost is not hidden behind it.
    const WallTimer incremental_timer;
    dynamic::IncrementalBc engine(params, sketch);
    engine.run(initial);
    const double build_seconds = incremental_timer.elapsed_s();
    const std::uint64_t initial_draws = engine.next_stream();
    dynamic::MutableGraph mutable_graph(initial);
    const WallTimer refresh_timer;
    std::uint64_t dirty = 0, retained = 0, topup = 0, recalibrations = 0;
    for (const dynamic::EdgeBatch& batch : sequence) {
      mutable_graph.apply(batch);
      const std::uint32_t bound =
          batch.deletes().empty()
              ? 0
              : bc::kadabra_vertex_diameter(*mutable_graph.snapshot());
      const auto stats =
          engine.refresh(mutable_graph.snapshot(), batch, bound);
      dirty += stats.dirty;
      retained += stats.retained;
      topup += stats.topup;
      recalibrations += stats.recalibrated ? 1 : 0;
    }
    const double refresh_seconds_per_batch =
        refresh_timer.elapsed_s() / static_cast<double>(batches);
    const double incremental_seconds = incremental_timer.elapsed_s();
    // Fresh draws the churn cost: everything after the initial build.
    const std::uint64_t incremental_draws =
        engine.next_stream() - initial_draws;
    const double dirty_fraction =
        static_cast<double>(dirty) / static_cast<double>(dirty + retained);
    const std::uint64_t digest = scores_fnv48(engine.scores());

    // --- Full recompute: a fresh engine per graph version --------------
    const WallTimer full_timer;
    std::uint64_t full_draws = 0;
    {
      dynamic::MutableGraph replay(initial);
      for (const dynamic::EdgeBatch& batch : sequence) {
        replay.apply(batch);
        dynamic::IncrementalBc fresh(params, sketch);
        fresh.run(replay.snapshot());
        full_draws += fresh.next_stream();
      }
    }
    const double full_seconds = full_timer.elapsed_s();
    const double recompute_seconds_per_version =
        full_seconds / static_cast<double>(batches);
    const double draws_saved =
        1.0 - static_cast<double>(incremental_draws) /
                  static_cast<double>(full_draws);

    std::printf("%7.2f%% %12s %8d %8llu %10llu %10llu %12llu %12.3f\n",
                point.fraction * 100.0, "incremental", batches,
                static_cast<unsigned long long>(edges_per_batch),
                static_cast<unsigned long long>(dirty),
                static_cast<unsigned long long>(retained),
                static_cast<unsigned long long>(incremental_draws),
                incremental_seconds);
    std::printf("%7.2f%% %12s %8d %8llu %10s %10s %12llu %12.3f\n",
                point.fraction * 100.0, "full", batches,
                static_cast<unsigned long long>(edges_per_batch), "-", "-",
                static_cast<unsigned long long>(full_draws), full_seconds);
    std::printf("%9s build %.4f s, refresh %.6f s/batch vs recompute "
                "%.6f s/version: ratio %.4f\n",
                "", build_seconds, refresh_seconds_per_batch,
                recompute_seconds_per_version,
                refresh_seconds_per_batch / recompute_seconds_per_version);

    json.begin_row();
    json.field("churn_pct", point.fraction * 100.0);
    json.field("mode", "incremental");
    json.field("edges_per_batch", static_cast<double>(edges_per_batch));
    json.field("dirty", static_cast<double>(dirty));
    json.field("retained", static_cast<double>(retained));
    json.field("topup", static_cast<double>(topup));
    json.field("recalibrations", static_cast<double>(recalibrations));
    json.field("draws", static_cast<double>(incremental_draws));
    json.field("est_seconds", incremental_seconds);
    json.field_u64("scores_fnv48", digest);
    json.begin_row();
    json.field("churn_pct", point.fraction * 100.0);
    json.field("mode", "full");
    json.field("edges_per_batch", static_cast<double>(edges_per_batch));
    json.field("draws", static_cast<double>(full_draws));
    json.field("est_seconds", full_seconds);

    const std::string tag = point.tag;
    json.summary("churn_" + tag + "_dirty_fraction", dirty_fraction);
    json.summary("churn_" + tag + "_draws_saved_frac", draws_saved);
    json.summary_u64("churn_" + tag + "_scores_fnv48", digest);
    json.summary("est_churn_" + tag + "_incremental_seconds",
                 incremental_seconds);
    json.summary("est_churn_" + tag + "_full_seconds", full_seconds);
    json.summary("est_churn_" + tag + "_build_seconds", build_seconds);
    json.summary("est_churn_" + tag + "_refresh_seconds_per_batch",
                 refresh_seconds_per_batch);
    json.summary("est_churn_" + tag + "_recompute_seconds_per_version",
                 recompute_seconds_per_version);
    if (point.fraction == 0.001) bounded_dirty_fraction = dirty_fraction;
  }

  // The acceptance headline: at 0.1% churn the ledger invalidates fewer
  // than a quarter of the retained samples.
  json.summary("dirty_fraction_bounded",
               bounded_dirty_fraction >= 0.0 && bounded_dirty_fraction < 0.25
                   ? 1.0
                   : 0.0);
  std::printf("\ndirty fraction @ 0.1%% churn: %.4f (bound: < 0.25)\n",
              bounded_dirty_fraction);
  json.write();
  return 0;
}
