// Service-tier headline: multi-tenant query throughput over pooled
// sessions (src/service/). Replays one mixed trace - three graphs, three
// tenants, betweenness/closeness/mean-distance queries - two ways:
//
//   serial  : one api::Session per graph, queries in submission order -
//             the no-service baseline;
//   pooled  : service::Dispatcher over SessionPools (pool= replicas per
//             graph), trace submitted as a paused backlog and released at
//             once - weighted fair scheduling decides the order.
//
// The pool's win on this simulated-MPI substrate is overlap: ranks blocked
// in modeled collectives sleep on the real clock (latency_us= scales how
// long), and the pool runs other queries' sampling under those sleeps.
// Reported: QPS both ways, the pooled/serial speedup, and per-tenant
// latency percentiles + the fair scheduler's dispatch shares.
//
// --json / out= emit the snapshot ci/compare_bench.py gates: wall-clock
// fields are named *seconds/*per_sec/*speedup (skipped as machine-load
// dependent); the gated fields are deterministic - bitwise identity of
// pooled vs serial results, sample/epoch counters, warm-store save/load
// counts, the zero-recalibration restart check, and the fair-scheduler
// dispatch shares (exact under backlog).
#include "bench_common.hpp"

#include <algorithm>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "api/config.hpp"
#include "api/session.hpp"
#include "gen/erdos_renyi.hpp"
#include "gen/rmat.hpp"
#include "gen/road.hpp"
#include "graph/components.hpp"
#include "service/dispatcher.hpp"
#include "service/scheduler.hpp"
#include "service/session_pool.hpp"
#include "support/table.hpp"
#include "support/timer.hpp"

namespace {

using namespace distbc;

struct TraceEntry {
  std::string tenant;
  std::string graph_id;
  api::Query query;
};

struct Tenant {
  const char* name;
  double weight;
};

constexpr Tenant kTenants[] = {
    {"analytics", 2.0}, {"batch", 1.0}, {"alerts", 1.0}};

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto index = static_cast<std::size_t>(
      q * static_cast<double>(values.size() - 1) + 0.5);
  return values[std::min(index, values.size() - 1)];
}

bool results_identical(const api::Result& a, const api::Result& b) {
  if (a.scores.size() != b.scores.size()) return false;
  for (std::size_t v = 0; v < a.scores.size(); ++v)
    if (a.scores[v] != b.scores[v]) return false;
  return a.top_k == b.top_k && a.mean == b.mean && a.stddev == b.stddev &&
         a.samples == b.samples && a.algorithm == b.algorithm;
}

}  // namespace

int main(int argc, char** argv) {
  bench::BenchConfig config(argc, argv);
  const int pool_size = static_cast<int>(
      config.options.get_u64("pool", 2, "session replicas per graph"));
  const std::uint64_t rounds = config.options.get_u64(
      "rounds", 1, "trace repetitions per (graph, tenant)");
  config.finish("Service tier: multi-tenant QPS over pooled sessions.");
  bench::print_preamble(
      "service_throughput - multi-tenant QPS over pooled sessions",
      "service tier over the paper's KADABRA driver (not a paper figure)",
      config);
  bench::JsonReport json("service_throughput", config);

  // Blocked-in-collective ranks sleep on the real clock; a visible
  // inter-node latency is what gives the pool sleeps to overlap.
  mpisim::NetworkModel network;
  network.remote_latency_s =
      config.options.get_double("latency_us", 200.0) * 1e-6;
  network.dedicated_cores = false;

  // --- Bound graphs: three small proxies with distinct topology ----------
  gen::RmatParams rmat_params;
  rmat_params.scale = 8;
  rmat_params.edge_factor = 8.0;
  gen::RoadParams road_params;
  road_params.width = 24;
  road_params.height = 10;
  std::vector<std::pair<std::string, std::shared_ptr<const graph::Graph>>>
      graphs;
  graphs.emplace_back("social", std::make_shared<const graph::Graph>(
                                    graph::largest_component(
                                        gen::rmat(rmat_params, config.seed))));
  graphs.emplace_back(
      "random", std::make_shared<const graph::Graph>(graph::largest_component(
                    gen::erdos_renyi(220, 660, config.seed + 1))));
  graphs.emplace_back(
      "road", std::make_shared<const graph::Graph>(graph::largest_component(
                  gen::road(road_params, config.seed + 2))));

  api::Config base;
  base.ranks = 2;
  base.threads = 1;
  base.deterministic = true;
  base.virtual_streams = 4;
  base.epoch_base = bench::bench_epoch_base(config);
  base.epoch_exponent = 0.0;
  base.seed = config.seed;
  base.network = network;
  base.service_pool_size = pool_size;
  base.service_queue_capacity = 1024;

  // --- The trace: per (round, graph, tenant) one 4-query burst -----------
  std::vector<TraceEntry> trace;
  for (std::uint64_t round = 0; round < rounds; ++round) {
    for (const auto& [graph_id, graph] : graphs) {
      for (const Tenant& tenant : kTenants) {
        api::BetweennessQuery bc1;
        bc1.epsilon = 0.05;
        api::BetweennessQuery bc2;
        bc2.epsilon = 0.08;
        bc2.top_k = 5;
        api::ClosenessRankQuery closeness;
        closeness.epsilon = 0.1;
        api::MeanDistanceQuery mean;
        mean.epsilon = 0.2;
        trace.push_back({tenant.name, graph_id, api::Query(bc1)});
        trace.push_back({tenant.name, graph_id, api::Query(bc2)});
        trace.push_back({tenant.name, graph_id, api::Query(closeness)});
        trace.push_back({tenant.name, graph_id, api::Query(mean)});
      }
    }
  }
  json.param("pool", static_cast<double>(pool_size));
  json.param("latency_us", network.remote_latency_s * 1e6);
  json.param("rounds", static_cast<double>(rounds));
  json.param("trace_queries", static_cast<double>(trace.size()));

  // --- Serial arm: one session per graph, submission order ---------------
  std::map<std::string, std::unique_ptr<api::Session>> sessions;
  for (const auto& [graph_id, graph] : graphs)
    sessions.emplace(graph_id, std::make_unique<api::Session>(graph, base));
  const WallTimer serial_timer;
  std::vector<api::Result> serial_results;
  serial_results.reserve(trace.size());
  for (const TraceEntry& entry : trace)
    serial_results.push_back(sessions.at(entry.graph_id)->run(entry.query));
  const double serial_seconds = serial_timer.elapsed_s();

  // --- Pooled arm: paused backlog, released at once ----------------------
  service::Dispatcher dispatcher;
  for (const auto& [graph_id, graph] : graphs) {
    const api::Status bound = dispatcher.bind(graph_id, graph, base);
    if (!bound.ok) {
      std::fprintf(stderr, "bind(%s): %s\n", graph_id.c_str(),
                   bound.message.c_str());
      return 1;
    }
  }
  for (const Tenant& tenant : kTenants)
    dispatcher.set_tenant_weight(tenant.name, tenant.weight);

  dispatcher.pause();
  std::vector<service::Ticket> tickets;
  tickets.reserve(trace.size());
  for (const TraceEntry& entry : trace)
    tickets.push_back(
        dispatcher.submit({entry.tenant, entry.graph_id, entry.query}));
  const WallTimer pool_timer;
  dispatcher.resume();
  dispatcher.drain();
  const double pool_seconds = pool_timer.elapsed_s();

  // --- Verify: pooled answers bitwise equal the serial ones --------------
  bool identical = true;
  std::uint64_t bc_samples = 0;
  std::uint64_t bc_epochs = 0;
  std::map<std::string, std::vector<double>> tenant_latencies;
  for (std::size_t i = 0; i < trace.size(); ++i) {
    const service::Response& response = tickets[i].wait();
    if (!response.status.ok || !serial_results[i].status.ok ||
        !results_identical(response.result, serial_results[i]))
      identical = false;
    if (std::holds_alternative<api::BetweennessQuery>(trace[i].query)) {
      bc_samples += response.result.samples;
      bc_epochs += response.result.epochs;
    }
    tenant_latencies[response.tenant].push_back(response.queue_seconds +
                                                response.run_seconds);
  }
  const service::DispatcherStats dispatcher_stats = dispatcher.stats();

  // --- Fair-scheduler replay: exact dispatch shares under backlog --------
  service::FairScheduler scheduler;
  for (const Tenant& tenant : kTenants)
    scheduler.set_weight(tenant.name, tenant.weight);
  for (std::size_t i = 0; i < trace.size(); ++i)
    scheduler.push(trace[i].tenant, trace[i].graph_id, i);
  std::vector<std::string> dispatch_order;
  while (scheduler.pending() > 0) {
    for (const auto& [graph_id, graph] : graphs) {
      const auto handle = scheduler.pop(graph_id);
      if (handle.has_value())
        dispatch_order.push_back(trace[*handle].tenant);
    }
  }
  // Share of the weight-2 tenant in the first half of the dispatch order;
  // its fair share is 2/4 = 0.5, so the ratio's baseline sits near 1.
  const std::size_t half = dispatch_order.size() / 2;
  std::size_t analytics_first_half = 0;
  for (std::size_t i = 0; i < half; ++i)
    if (dispatch_order[i] == "analytics") ++analytics_first_half;
  const double fairness_share_ratio =
      half == 0 ? 0.0
                : (static_cast<double>(analytics_first_half) /
                   static_cast<double>(half)) /
                      0.5;

  // --- Restart arm: warm store -> zero recalibration ---------------------
  const std::string store_dir =
      (std::filesystem::temp_directory_path() / "distbc_service_bench_store")
          .string();
  std::filesystem::remove_all(store_dir);
  api::Config stored = base;
  stored.service_warm_store = store_dir;
  std::uint64_t store_saves = 0;
  std::uint64_t store_loaded = 0;
  bool restart_zero_calibration = true;
  for (const auto& [graph_id, graph] : graphs) {
    api::BetweennessQuery bc1;
    bc1.epsilon = 0.05;
    api::BetweennessQuery bc2;
    bc2.epsilon = 0.08;
    bc2.top_k = 5;
    {
      service::SessionPool cold(graph, stored);
      (void)cold.submit(api::Query(bc1));
      (void)cold.submit(api::Query(bc2));
      cold.drain();
      store_saves += cold.stats().store_saves;
    }  // simulated shutdown
    service::SessionPool warm(graph, stored);
    store_loaded += warm.stats().store_states_loaded;
    for (const api::Query& query :
         {api::Query(bc1), api::Query(bc2)}) {
      const service::Ticket ticket = warm.submit(query);
      warm.drain();
      const service::Response& response = ticket.wait();
      if (!response.status.ok || !response.result.calibration_reused ||
          response.result.phases.seconds(Phase::kDiameter) != 0.0 ||
          response.result.phases.seconds(Phase::kCalibration) != 0.0)
        restart_zero_calibration = false;
    }
  }
  std::filesystem::remove_all(store_dir);

  // --- Report ------------------------------------------------------------
  const double serial_qps =
      serial_seconds > 0 ? static_cast<double>(trace.size()) / serial_seconds
                         : 0.0;
  const double pool_qps =
      pool_seconds > 0 ? static_cast<double>(trace.size()) / pool_seconds
                       : 0.0;
  const double speedup = serial_seconds > 0 && pool_seconds > 0
                             ? serial_seconds / pool_seconds
                             : 0.0;

  TablePrinter arms({"arm", "queries", "seconds", "qps"});
  arms.add_row({"serial", std::to_string(trace.size()),
                TablePrinter::fmt(serial_seconds, 3),
                TablePrinter::fmt(serial_qps, 1)});
  arms.add_row({"pooled", std::to_string(trace.size()),
                TablePrinter::fmt(pool_seconds, 3),
                TablePrinter::fmt(pool_qps, 1)});
  arms.print();
  std::printf("\npooled/serial speedup: %.2fx (pool=%d)\n", speedup,
              pool_size);
  std::printf("pooled results bitwise identical to serial: %s\n",
              identical ? "yes" : "NO");
  std::printf("restart with warm store skips calibration: %s\n\n",
              restart_zero_calibration ? "yes" : "NO");

  TablePrinter tenants({"tenant", "weight", "queries", "p50 ms", "p95 ms"});
  for (const Tenant& tenant : kTenants) {
    std::vector<double>& latencies = tenant_latencies[tenant.name];
    tenants.add_row({tenant.name, TablePrinter::fmt(tenant.weight, 1),
                     std::to_string(latencies.size()),
                     TablePrinter::fmt(percentile(latencies, 0.5) * 1e3, 2),
                     TablePrinter::fmt(percentile(latencies, 0.95) * 1e3, 2)});
    json.begin_row();
    json.field("tenant", tenant.name);
    json.field("weight", tenant.weight);
    json.field("queries", static_cast<double>(latencies.size()));
    json.field("p50_latency_seconds", percentile(latencies, 0.5));
    json.field("p95_latency_seconds", percentile(latencies, 0.95));
  }
  tenants.print();
  std::printf("\nfair-scheduler first-half share ratio (analytics): %.3f\n",
              fairness_share_ratio);

  json.summary("queries_total", static_cast<double>(trace.size()));
  json.summary("queries_rejected",
               static_cast<double>(dispatcher_stats.rejected_queue_full +
                                   dispatcher_stats.rejected_unknown_graph));
  json.summary("pool_serial_identical", identical ? 1.0 : 0.0);
  json.summary("restart_zero_calibration_ok",
               restart_zero_calibration ? 1.0 : 0.0);
  json.summary("warm_store_saves", static_cast<double>(store_saves));
  json.summary("warm_store_states_loaded", static_cast<double>(store_loaded));
  json.summary("bc_samples_total", static_cast<double>(bc_samples));
  json.summary("bc_epochs_total", static_cast<double>(bc_epochs));
  json.summary("fairness_share_ratio", fairness_share_ratio);
  json.summary("serial_queries_per_sec", serial_qps);
  json.summary("pool_queries_per_sec", pool_qps);
  json.summary("pool_speedup", speedup);
  json.write();
  return identical && restart_zero_calibration ? 0 : 1;
}
