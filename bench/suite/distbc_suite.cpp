// distbc_suite - the wall-clock benchmark driver. One workload per process:
//
//   distbc_suite workload=<road|social|service|churn> seed=<n> seconds=<s>
//                [trace=<path>]
//
// Every workload builds its inputs from `seed`, sets up three times (the
// median is setup_s), measures its operations for `seconds` of timed work,
// reads peak RSS, and only then checks every answer against exact Brandes.
// The last stdout line is one JSON object: attempted/failed operation
// counts and the metrics by name (units live in BENCHMARK.json).
//
// With trace=<path> the run also records spans around its calls into the
// library (trace.hpp), runs the per-layer probes (kernel, diameter,
// connectivity, stop check, codec) on the workload's own inputs, and adds
// the per-layer metrics. Everything is measured from outside the library:
// the driver times its own calls into public functions and reads fields
// the public API already returns.
#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <deque>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "api/config.hpp"
#include "api/session.hpp"
#include "bc/brandes_parallel.hpp"
#include "bc/sampler.hpp"
#include "dynamic/edge_batch.hpp"
#include "epoch/frame_codec.hpp"
#include "epoch/state_frame.hpp"
#include "gen/barabasi_albert.hpp"
#include "gen/instances.hpp"
#include "graph/bidirectional_bfs.hpp"
#include "graph/components.hpp"
#include "graph/diameter.hpp"
#include "service/dispatcher.hpp"
#include "support/options.hpp"
#include "support/random.hpp"
#include "support/timer.hpp"
#include "trace.hpp"

namespace distbc::suite {
namespace {

constexpr std::size_t kSetups = 5;  // set-ups per run, at least ...
constexpr double kSetupSeconds = 2.0;  // ... and for at least this long
constexpr std::size_t kMinOps = 3;  // closed loops run at least this many
constexpr int kVerifyThreads = 4;   // exact Brandes reference threads
/// Generator seed of every workload's graphs (and churn's batch stream):
/// the inputs are a fixed dataset per workload, and the run's seed drives
/// the randomness the library consumes (Config::seed, so every sample set).
/// Seeding the graphs too made run-to-run spread a property of the graph
/// drawn: one road graph needs 8% more samples than the others, and
/// churn's exact-diameter cost switches between 1.6 ms and 48 ms regimes
/// along a batch trajectory.
constexpr std::uint64_t kInstanceSeed = 1;

// --- Statistics and reporting ----------------------------------------------

/// Linear-interpolation quantile (numpy's default) of `values`.
double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double position = q * static_cast<double>(values.size() - 1);
  const auto low = static_cast<std::size_t>(position);
  const std::size_t high = std::min(low + 1, values.size() - 1);
  const double frac = position - static_cast<double>(low);
  return values[low] + frac * (values[high] - values[low]);
}

double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

/// This process image's peak resident set (VmHWM). getrusage's ru_maxrss is
/// not used: Linux carries the parent's high-water mark across execve, so a
/// driver launched from a larger process would report the parent's peak.
double peak_rss_mb() {
  std::FILE* status = std::fopen("/proc/self/status", "r");
  if (status == nullptr) return -1.0;
  char line[256];
  double kib = -1.0;
  while (std::fgets(line, sizeof(line), status) != nullptr)
    if (std::sscanf(line, "VmHWM: %lf kB", &kib) == 1) break;
  std::fclose(status);
  return kib / 1024.0;
}

double max_abs_error(const std::vector<double>& estimate,
                     const std::vector<double>& exact) {
  if (estimate.size() != exact.size()) return INFINITY;
  double worst = 0.0;
  for (std::size_t v = 0; v < exact.size(); ++v)
    worst = std::max(worst, std::abs(estimate[v] - exact[v]));
  return worst;
}

class Report {
 public:
  void metric(const std::string& name, double value) {
    metrics_.emplace_back(name, value);
  }

  /// Counts one operation; `ok` false marks it failed.
  void op(bool ok) {
    ++attempted_;
    if (!ok) ++failed_;
  }

  /// Records one exactness check of an estimate against Brandes; true when
  /// max|b~ - b| <= epsilon.
  bool check(double error, double epsilon) {
    ++checks_;
    worst_ratio_ = std::max(worst_ratio_, error / epsilon);
    if (error <= epsilon) return true;
    ++check_failures_;
    return false;
  }
  [[nodiscard]] double worst_error_ratio() const { return worst_ratio_; }
  [[nodiscard]] double check_fail_frac() const {
    return checks_ == 0 ? 0.0
                        : static_cast<double>(check_failures_) /
                              static_cast<double>(checks_);
  }

  void print(const std::string& workload, std::uint64_t seed) const {
    std::printf("{\"workload\":\"%s\",\"seed\":%llu,\"compiler\":\"%s\","
                "\"attempted\":%llu,\"failed\":%llu,\"checks\":%llu,"
                "\"check_failures\":%llu,\"metrics\":{",
                workload.c_str(), static_cast<unsigned long long>(seed),
                "g++ " __VERSION__,
                static_cast<unsigned long long>(attempted_),
                static_cast<unsigned long long>(failed_),
                static_cast<unsigned long long>(checks_),
                static_cast<unsigned long long>(check_failures_));
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      const double value =
          std::isfinite(metrics_[i].second) ? metrics_[i].second : -1.0;
      std::printf("%s\"%s\":%.9g", i == 0 ? "" : ",",
                  metrics_[i].first.c_str(), value);
    }
    std::printf("}}\n");
  }

 private:
  std::vector<std::pair<std::string, double>> metrics_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::uint64_t checks_ = 0;
  std::uint64_t check_failures_ = 0;
  double worst_ratio_ = 0.0;
};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  std::string trace_path;
};

/// Builds the workload state at least kSetups times and for at least
/// kSetupSeconds (dropping the previous state before each build) and
/// returns the median build time; `state` keeps the last build. The time
/// floor matters for cheap set-ups: five 45 ms churn set-ups land inside
/// one burst of host contention, which swings them between 42 and 70 ms
/// for about a second at a time.
template <typename State, typename Build>
double timed_setups(State& state, Build&& build) {
  std::vector<double> seconds;
  const WallTimer total;
  while (seconds.size() < kSetups || total.elapsed_s() < kSetupSeconds) {
    state = State{};
    const WallTimer timer;
    state = build();
    seconds.push_back(timer.elapsed_s());
  }
  return median(seconds);
}

/// The end-to-end metrics every workload reports.
void report_end_to_end(Report& report, double setup_s,
                       const std::vector<double>& latencies, double ops_per_s,
                       const std::vector<double>& query_seconds, double rss) {
  report.metric("setup_s", setup_s);
  report.metric("latency_p50_s", quantile(latencies, 0.5));
  report.metric("ops_per_s", ops_per_s);
  report.metric("query_s", median(query_seconds));
  report.metric("peak_rss_mb", rss);
}

// --- Per-layer probes (traced pass only) ------------------------------------

/// Single-thread bc::PathSampler loop on `graph` - the kernel's rate and
/// the plain single-threaded baseline. Vertices touched per sample come
/// from a separate graph::BidirectionalBfs pass over fresh pairs.
void probe_kernel(const graph::Graph& graph, std::uint64_t seed,
                  Tracer& tracer, Report& report, double& kernel_ns) {
  const Span span(tracer, "probe.kernel", -1, 0);
  constexpr double kProbeSeconds = 0.3;
  constexpr int kChunk = 64;
  bc::PathSampler sampler(graph, Rng(seed).split(101));
  epoch::StateFrame frame(graph.num_vertices());
  const WallTimer timer;
  std::uint64_t samples = 0;
  while (samples < 256 || timer.elapsed_s() < kProbeSeconds) {
    for (int i = 0; i < kChunk; ++i) sampler.sample(frame);
    samples += kChunk;
  }
  kernel_ns = timer.elapsed_s() * 1e9 / static_cast<double>(samples);

  constexpr int kPairs = 1000;
  graph::BidirectionalBfs bfs(graph.num_vertices());
  Rng rng = Rng(seed).split(102);
  double touched = 0.0;
  for (int i = 0; i < kPairs; ++i) {
    const auto [s, t] = rng.next_distinct_pair(graph.num_vertices());
    (void)bfs.run(graph, static_cast<graph::Vertex>(s),
                  static_cast<graph::Vertex>(t));
    touched += static_cast<double>(bfs.last_touched());
  }
  report.metric("graph.kernel_ns_per_sample", kernel_ns);
  report.metric("graph.touched_per_sample", touched / kPairs);
}

/// Median wall time of `fn` over `reps` calls, each inside a span.
template <typename Fn>
double timed_median(Tracer& tracer, const char* name, int reps, Fn&& fn) {
  std::vector<double> seconds;
  for (int i = 0; i < reps; ++i) {
    const Span span(tracer, name, -1, static_cast<std::uint64_t>(i));
    const WallTimer timer;
    fn();
    seconds.push_back(timer.elapsed_s());
  }
  return median(seconds);
}

double probe_diameter(const graph::Graph& graph, Tracer& tracer) {
  return timed_median(tracer, "probe.diameter", 3, [&] {
    (void)graph::vertex_diameter(graph, /*exact=*/true);
  });
}

double probe_connectivity(const graph::Graph& graph, Tracer& tracer) {
  return timed_median(tracer, "probe.connectivity", 5,
                      [&] { (void)graph::is_connected(graph); });
}

/// The stop check and the wire codec on a frame rebuilt from a finished
/// query (counts = score x samples), with the context the query's session
/// calibrated.
void probe_stop_check_and_codec(const api::Session& session,
                                const api::Result& result, double epsilon,
                                Tracer& tracer, Report& report) {
  const auto n = static_cast<std::uint32_t>(result.scores.size());
  epoch::StateFrame frame(n);
  const std::span<std::uint64_t> raw = frame.raw();
  for (std::uint32_t v = 0; v < n; ++v)
    raw[v] = static_cast<std::uint64_t>(
        std::llround(result.scores[v] * static_cast<double>(result.samples)));
  raw[n] = result.samples;

  constexpr int kReps = 101;
  double stop_us = 0.0;
  for (const auto& warm : session.calibrations()) {
    if (warm->context.params.epsilon != epsilon) continue;
    stop_us = 1e6 * timed_median(tracer, "probe.stop_check", kReps, [&] {
                (void)warm->context.stop_satisfied(frame);
              });
  }
  std::vector<std::uint64_t> image;
  image.reserve(2 * raw.size() + 2);
  const double dense_us =
      1e6 * timed_median(tracer, "probe.encode", kReps, [&] {
        image.clear();
        epoch::append_dense_image(raw, image);
      });
  const double sparse_us =
      1e6 * timed_median(tracer, "probe.encode", kReps, [&] {
        image.clear();
        epoch::append_sparse_image_scan(raw, image);
      });
  report.metric("bc.stop_check_us", stop_us);
  report.metric("epoch.encode_us", dense_us);
  report.metric("epoch.encode_sparse_us", sparse_us);
}

/// Engine, comm and api layer metrics from the public fields of finished
/// queries: medians over `results`, whose Session::run wall times are
/// `walls`.
void report_engine(Report& report,
                   const std::vector<const api::Result*>& results,
                   const std::vector<double>& walls, int ranks,
                   double kernel_ns) {
  static constexpr std::array<std::pair<Phase, const char*>, 8> kPhases = {{
      {Phase::kDiameter, "engine.diameter_s"},
      {Phase::kCalibration, "engine.calibration_s"},
      {Phase::kSampling, "engine.sampling_s"},
      {Phase::kEpochTransition, "engine.transition_s"},
      {Phase::kBarrier, "engine.barrier_s"},
      {Phase::kReduction, "engine.reduction_s"},
      {Phase::kStopCheck, "engine.stop_check_s"},
      {Phase::kBroadcast, "engine.broadcast_s"},
  }};
  auto median_of = [&](auto&& field) {
    std::vector<double> values;
    for (std::size_t i = 0; i < results.size(); ++i)
      values.push_back(field(*results[i], walls[i]));
    return median(values);
  };
  for (const auto& [phase, name] : kPhases)
    report.metric(name, median_of([phase = phase](const api::Result& r,
                                                  double) {
                    return r.phases.seconds(phase);
                  }));
  const auto adaptive_s = [](const api::Result& r) {
    return r.total_seconds - r.phases.seconds(Phase::kDiameter) -
           r.phases.seconds(Phase::kCalibration);
  };
  const double samples_per_s = median_of([&](const api::Result& r, double) {
    return adaptive_s(r) > 0 ? static_cast<double>(r.samples) / adaptive_s(r)
                             : 0.0;
  });
  report.metric("engine.epochs", median_of([](const api::Result& r, double) {
                  return static_cast<double>(r.epochs);
                }));
  report.metric("engine.samples", median_of([](const api::Result& r, double) {
                  return static_cast<double>(r.samples);
                }));
  report.metric("engine.samples_per_s", samples_per_s);
  report.metric("engine.sampling_efficiency",
                samples_per_s * kernel_ns * 1e-9 / ranks);
  report.metric("engine.unattributed_s",
                median_of([](const api::Result& r, double wall) {
                  return wall - r.phases.total_s();
                }));
  report.metric("comm.aggregation_bytes",
                median_of([](const api::Result& r, double) {
                  return static_cast<double>(r.comm_volume.aggregation_bytes());
                }));
  report.metric("comm.bytes_per_epoch",
                median_of([](const api::Result& r, double) {
                  return r.epochs == 0
                             ? 0.0
                             : static_cast<double>(
                                   r.comm_volume.aggregation_bytes()) /
                                   static_cast<double>(r.epochs);
                }));
  report.metric("comm.modeled_s", median_of([](const api::Result& r, double) {
                  return r.comm_volume.modeled_seconds();
                }));
  report.metric("api.overhead_s",
                median_of([](const api::Result& r, double wall) {
                  return wall - r.total_seconds;
                }));
}

/// Layers a workload never enters report 0, so every traced run carries
/// the full per-layer metric set.
template <std::size_t N>
void report_absent(Report& report, const std::array<const char*, N>& names) {
  for (const char* name : names) report.metric(name, 0.0);
}

constexpr std::array<const char*, 8> kServiceLayer = {
    "service.latency_p99_s", "service.submit_us",
    "service.queue_s_p50",   "service.queue_s_p99",
    "service.run_s_p50",     "service.backlog_max",
    "service.calibration_reuse_frac", "service.gen_lag_s_max"};
constexpr std::array<const char*, 11> kDynamicLayer = {
    "dynamic.update_p99_s",
    "dynamic.apply_s_p50",      "dynamic.apply_s_p99",
    "dynamic.query_s_p50",      "dynamic.dirty_frac",
    "dynamic.topup_samples",    "dynamic.recalibrations",
    "dynamic.rebuilds",         "dynamic.applies",
    "dynamic.diameter_share",   "dynamic.full_query_s"};

void report_trace_overhead(Report& report, std::size_t loop_spans,
                           double loop_seconds) {
  report.metric("trace.overhead_frac",
                static_cast<double>(loop_spans) * Tracer::span_cost_s() /
                    loop_seconds);
}

// --- road / social: closed loop of cold queries -----------------------------

struct QueryWorkload {
  const char* instance;
  double epsilon;
};
constexpr double kInstanceScale = 0.25;
constexpr int kQueryRanks = 4;

void run_query_workload(const Args& args, const QueryWorkload& workload,
                        Tracer& tracer, Report& report) {
  const gen::InstanceSpec& spec = gen::instance_by_name(workload.instance);
  const auto config_for = [&](std::uint64_t rep) {
    api::Config config;
    config.ranks = kQueryRanks;
    config.seed = args.seed + rep;
    return config;
  };
  api::BetweennessQuery query;
  query.epsilon = workload.epsilon;
  query.delta = 0.1;

  // Set-up: the input graph plus one untimed warm-up query on a throwaway
  // session (the first query in a process pays one-time costs).
  std::shared_ptr<const graph::Graph> shared_graph;
  const double setup_s = timed_setups(shared_graph, [&] {
    auto built = std::make_shared<const graph::Graph>(
        spec.build(kInstanceScale, kInstanceSeed));
    api::Session warmup(built, config_for(1u << 20));
    (void)warmup.run(query);
    return built;
  });
  const graph::Graph& graph = *shared_graph;

  // Closed loop: each rep is a fresh Session and one cold query.
  std::vector<api::Result> results;
  std::vector<double> latencies, session_new, run_walls;
  std::unique_ptr<api::Session> last_session;
  std::size_t loop_spans = 0;
  double timed = 0.0;
  for (std::uint64_t rep = 0;
       results.size() < kMinOps || timed < args.seconds; ++rep) {
    std::unique_ptr<api::Session> session;
    const std::size_t spans_before = tracer.size();
    {
      const Span op(tracer, "op", -1, rep);
      const WallTimer timer;
      {
        const Span span(tracer, "api.session_new", op.id(), rep);
        session = std::make_unique<api::Session>(shared_graph,
                                                 config_for(rep));
      }
      session_new.push_back(timer.elapsed_s());
      const WallTimer run_timer;
      {
        const Span span(tracer, "api.run", op.id(), rep);
        results.push_back(session->run(query));
      }
      run_walls.push_back(run_timer.elapsed_s());
      latencies.push_back(timer.elapsed_s());
    }
    timed += latencies.back();
    loop_spans += tracer.size() - spans_before;
    last_session = std::move(session);  // teardown stays outside the op
  }
  const double rss = peak_rss_mb();

  // Exactness: every rep against one exact reference.
  std::vector<double> exact;
  {
    const Span span(tracer, "verify.brandes", -1, 0);
    exact = bc::brandes_parallel(graph, kVerifyThreads).scores;
  }
  for (const api::Result& result : results)
    report.op(result.status.ok &&
              report.check(max_abs_error(result.scores, exact),
                           query.epsilon));

  report_end_to_end(report, setup_s, latencies,
                    static_cast<double>(results.size()) / timed, run_walls,
                    rss);
  if (!tracer.enabled()) return;

  double kernel_ns = 0.0;
  probe_kernel(graph, args.seed, tracer, report, kernel_ns);
  report.metric("graph.diameter_s", probe_diameter(graph, tracer));
  report.metric("graph.connectivity_s", probe_connectivity(graph, tracer));
  probe_stop_check_and_codec(*last_session, results.back(), query.epsilon,
                             tracer, report);
  report.metric("bc.max_err_ratio", report.worst_error_ratio());
  report.metric("bc.check_fail_frac", report.check_fail_frac());
  std::vector<const api::Result*> views;
  for (const api::Result& result : results) views.push_back(&result);
  report_engine(report, views, run_walls, kQueryRanks, kernel_ns);
  report.metric("api.session_new_s", median(session_new));
  report_absent(report, kServiceLayer);
  report_absent(report, kDynamicLayer);
  report_trace_overhead(report, loop_spans, timed);
}

// --- service: open loop, then closed loop, over a Dispatcher ----------------

constexpr double kServiceRate = 40.0;       // open-loop requests per second
constexpr std::size_t kServiceOutstanding = 4;  // closed-loop in flight
constexpr double kServiceOpenShare = 0.75;  // of the run's seconds
constexpr std::array<const char*, 2> kServiceGraphs = {"quick-social",
                                                       "quick-web"};
struct Tenant {
  const char* name;
  double weight;
};
constexpr std::array<Tenant, 3> kTenants = {
    {{"analytics", 2.0}, {"batch", 1.0}, {"alerts", 1.0}}};

/// Request i of the fixed mix: the query type cycles fastest, then the
/// graph; tenants rotate independently.
service::Request service_request(std::size_t i) {
  api::Query query;
  switch (i % 4) {
    case 0: {
      api::BetweennessQuery q;
      q.epsilon = 0.02;
      query = q;
      break;
    }
    case 1: {
      api::BetweennessQuery q;
      q.epsilon = 0.03;
      q.top_k = 10;
      query = q;
      break;
    }
    case 2: {
      api::ClosenessRankQuery q;
      q.epsilon = 0.05;
      query = q;
      break;
    }
    default: {
      api::MeanDistanceQuery q;
      q.epsilon = 0.1;
      query = q;
      break;
    }
  }
  return {kTenants[i % kTenants.size()].name,
          kServiceGraphs[(i / 4) % kServiceGraphs.size()], std::move(query)};
}

struct ServiceState {
  std::vector<std::shared_ptr<const graph::Graph>> graphs;
  std::unique_ptr<service::Dispatcher> dispatcher;
  double bind_s = 0.0;  // median Dispatcher::bind (a 2-replica pool)
};

struct Sent {
  service::Ticket ticket;
  double due = 0.0;
  double submitted = 0.0;  // when submit() was called
  double done = -1.0;      // when the generator saw it complete
  bool open_loop = true;
  int span = -1;           // the request's "op" span, closed at `done`
};

void run_service_workload(const Args& args, Tracer& tracer, Report& report) {
  api::Config config;
  config.ranks = 1;
  config.service_pool_size = 2;
  config.seed = args.seed;

  ServiceState state;
  const double setup_s = timed_setups(state, [&] {
    ServiceState built;
    built.dispatcher = std::make_unique<service::Dispatcher>();
    std::vector<double> binds;
    for (std::size_t g = 0; g < kServiceGraphs.size(); ++g) {
      built.graphs.push_back(std::make_shared<const graph::Graph>(
          gen::instance_by_name(kServiceGraphs[g])
              .build(1.0, kInstanceSeed + g)));
      const WallTimer timer;
      const api::Status bound = built.dispatcher->bind(
          kServiceGraphs[g], built.graphs.back(), config);
      binds.push_back(timer.elapsed_s());
      if (!bound.ok) {
        std::fprintf(stderr, "bind %s: %s\n", kServiceGraphs[g],
                     bound.message.c_str());
        std::exit(1);
      }
    }
    built.bind_s = median(binds);
    for (const Tenant& tenant : kTenants)
      built.dispatcher->set_tenant_weight(tenant.name, tenant.weight);
    // Warm-up: one query of each type per graph (calibrations get cached).
    for (std::size_t i = 0; i < 4 * kServiceGraphs.size(); ++i)
      (void)built.dispatcher->submit(service_request(i));
    built.dispatcher->drain();
    return built;
  });
  service::Dispatcher& dispatcher = *state.dispatcher;

  std::deque<Sent> sent;  // stable addresses as it grows
  std::vector<std::size_t> outstanding;
  std::vector<double> submit_s, gen_lag;
  double backlog_max = 0.0;
  const std::size_t spans_before = tracer.size();
  const auto poll = [&] {
    const double now = tracer.now();
    std::erase_if(outstanding, [&](std::size_t i) {
      if (!sent[i].ticket.done()) return false;
      sent[i].done = now;
      return true;
    });
  };
  const auto submit = [&](double due, bool open_loop) {
    const std::size_t i = sent.size();
    const double start = tracer.now();
    if (open_loop) gen_lag.push_back(start - due);
    const int op = tracer.open("op", -1, i, due);
    const int span = tracer.open("service.submit", op, i);
    sent.push_back({dispatcher.submit(service_request(i)), due, start, -1.0,
                    open_loop, op});
    tracer.close(span);
    submit_s.push_back(tracer.now() - start);
    outstanding.push_back(i);
    if (tracer.enabled())
      backlog_max = std::max(
          backlog_max, static_cast<double>(dispatcher.stats().scheduled));
  };
  const auto nap = [](double seconds) {
    std::this_thread::sleep_for(std::chrono::duration<double>(
        std::clamp(seconds, 0.0, 1e-3)));
  };

  // Open loop: one generator thread sends on a fixed schedule and polls
  // for completions (<= 1 ms granularity) between sends.
  const double open_seconds = args.seconds * kServiceOpenShare;
  const auto open_count = static_cast<std::size_t>(
      std::max(1.0, open_seconds * kServiceRate));
  const double open_start = tracer.now();
  for (std::size_t k = 0; k < open_count; ++k) {
    const double due = open_start + static_cast<double>(k) / kServiceRate;
    for (poll(); tracer.now() < due; poll()) nap(due - tracer.now());
    submit(due, true);
  }
  for (poll(); !outstanding.empty(); poll()) nap(1e-3);

  // Closed loop: kServiceOutstanding requests in flight for the rest.
  const double closed_start = tracer.now();
  const double closed_seconds = args.seconds - open_seconds;
  std::size_t closed_done = 0;
  while (tracer.now() - closed_start < closed_seconds) {
    while (outstanding.size() < kServiceOutstanding)
      submit(tracer.now(), false);
    const std::size_t before = outstanding.size();
    poll();
    closed_done += before - outstanding.size();
    nap(2e-4);
  }
  const double saturation_qps =
      static_cast<double>(closed_done) / (tracer.now() - closed_start);
  for (poll(); !outstanding.empty(); poll()) nap(1e-3);
  const double loop_seconds = tracer.now() - open_start;
  for (const Sent& request : sent) tracer.close(request.span, request.done);
  const std::size_t loop_spans = tracer.size() - spans_before;
  const double rss = peak_rss_mb();

  // Exactness: every betweenness answer against Brandes on its graph.
  std::vector<std::vector<double>> exact;
  {
    const Span span(tracer, "verify.brandes", -1, 0);
    for (const auto& graph : state.graphs)
      exact.push_back(bc::brandes_parallel(*graph, kVerifyThreads).scores);
  }
  std::vector<double> latencies, run_s, queue_s;
  std::vector<const api::Result*> bc_results;
  std::vector<double> bc_walls;
  double reused = 0.0;
  for (std::size_t i = 0; i < sent.size(); ++i) {
    const service::Response& response = sent[i].ticket.wait();
    const service::Request request = service_request(i);
    bool ok = response.status.ok && response.result.status.ok;
    if (ok && std::holds_alternative<api::BetweennessQuery>(request.query)) {
      const std::size_t g = (i / 4) % kServiceGraphs.size();
      ok = report.check(
          max_abs_error(response.result.scores, exact[g]),
          std::get<api::BetweennessQuery>(request.query).epsilon);
      bc_results.push_back(&response.result);
      bc_walls.push_back(response.run_seconds);
      reused += response.result.calibration_reused ? 1.0 : 0.0;
    }
    report.op(ok);
    run_s.push_back(response.run_seconds);
    // The request's queue and run intervals, placed from the Response's own
    // durations; what they leave of the op is dispatch and delivery.
    const double queued = sent[i].submitted + response.queue_seconds;
    tracer.close(tracer.open("service.queue", sent[i].span, i,
                             sent[i].submitted),
                 queued);
    tracer.close(tracer.open("service.run", sent[i].span, i, queued),
                 queued + response.run_seconds);
    if (!sent[i].open_loop) continue;
    latencies.push_back(sent[i].done - sent[i].due);
    queue_s.push_back(response.queue_seconds);
  }

  report_end_to_end(report, setup_s, latencies, saturation_qps, run_s, rss);
  if (!tracer.enabled()) return;

  // Probes on the first bound graph, with a probe session's query for the
  // stop-check context and frame.
  const graph::Graph& graph = *state.graphs.front();
  double kernel_ns = 0.0;
  probe_kernel(graph, args.seed, tracer, report, kernel_ns);
  report.metric("graph.diameter_s", probe_diameter(graph, tracer));
  report.metric("graph.connectivity_s", probe_connectivity(graph, tracer));
  api::Session probe_session(state.graphs.front(), config);
  const auto& probe_query =
      std::get<api::BetweennessQuery>(service_request(0).query);
  const api::Result probe_result = probe_session.run(probe_query);
  probe_stop_check_and_codec(probe_session, probe_result, probe_query.epsilon,
                             tracer, report);
  report.metric("bc.max_err_ratio", report.worst_error_ratio());
  report.metric("bc.check_fail_frac", report.check_fail_frac());
  report_engine(report, bc_results, bc_walls, config.ranks, kernel_ns);
  report.metric("api.session_new_s", state.bind_s);
  report.metric("service.latency_p99_s", quantile(latencies, 0.99));
  report.metric("service.submit_us", 1e6 * median(submit_s));
  report.metric("service.queue_s_p50", quantile(queue_s, 0.5));
  report.metric("service.queue_s_p99", quantile(queue_s, 0.99));
  report.metric("service.run_s_p50", median(run_s));
  report.metric("service.backlog_max", backlog_max);
  report.metric("service.calibration_reuse_frac",
                bc_results.empty()
                    ? 0.0
                    : reused / static_cast<double>(bc_results.size()));
  report.metric("service.gen_lag_s_max",
                *std::max_element(gen_lag.begin(), gen_lag.end()));
  report_absent(report, kDynamicLayer);
  report_trace_overhead(report, loop_spans, loop_seconds);
}

// --- churn: closed loop of apply + incremental query ------------------------

constexpr graph::Vertex kChurnVertices = 10000;
constexpr std::uint32_t kChurnAttach = 3;
constexpr double kChurnFraction = 0.001;  // of the edges, inserted per batch
constexpr std::uint64_t kCheckEvery = 500;  // rounds between Brandes checks
constexpr std::uint64_t kProbeEvery = 10;   // deletion batches between probes

constexpr std::uint64_t kChurnWindow = 10;  // rounds an inserted edge lives

/// Deterministic batch stream: each batch inserts `inserts` absent edges
/// and, once kChurnWindow batches exist, deletes the edges inserted
/// kChurnWindow rounds earlier. Original edges never leave (so the graph
/// stays connected) and the graph carries a sliding window of churned
/// edges, so it stays stationary. A stream that only grows makes a timed
/// run measure its own length: the exact diameter deletion batches pay
/// climbs from ~20 ms to ~220 ms over 400 rounds as random edges pile up.
class BatchStream {
 public:
  BatchStream(std::uint64_t seed, std::uint64_t inserts)
      : rng_(Rng(seed).split(103)), inserts_(inserts) {}

  dynamic::EdgeBatch next(const graph::Graph& graph) {
    dynamic::EdgeBatch batch;
    std::vector<dynamic::Edge> added;
    while (added.size() < inserts_) {
      const auto [x, y] = rng_.next_distinct_pair(graph.num_vertices());
      const dynamic::Edge edge{static_cast<graph::Vertex>(std::min(x, y)),
                               static_cast<graph::Vertex>(std::max(x, y))};
      if (graph.has_edge(edge.u, edge.v) ||
          std::find(added.begin(), added.end(), edge) != added.end())
        continue;
      batch.insert(edge.u, edge.v);
      added.push_back(edge);
    }
    if (recycle_.size() == kChurnWindow * inserts_) {
      for (std::uint64_t i = 0; i < inserts_; ++i) {
        batch.remove(recycle_.front().u, recycle_.front().v);
        recycle_.pop_front();
      }
    }
    recycle_.insert(recycle_.end(), added.begin(), added.end());
    return batch;
  }

 private:
  Rng rng_;
  std::uint64_t inserts_;
  std::deque<dynamic::Edge> recycle_;
};

void run_churn_workload(const Args& args, Tracer& tracer, Report& report) {
  api::Config config;
  config.seed = args.seed;
  api::BetweennessQuery query;
  query.epsilon = 0.02;
  query.delta = 0.1;
  query.top_k = 10;
  query.incremental = true;

  // Set-up: the graph, its Session, and the first incremental query (which
  // builds the incremental engine's full sample set).
  std::unique_ptr<api::Session> owned_session;
  const double setup_s = timed_setups(owned_session, [&] {
    auto built = std::make_unique<api::Session>(
        gen::barabasi_albert(kChurnVertices, kChurnAttach, kInstanceSeed),
        config);
    (void)built->run(query);
    return built;
  });
  api::Session& session = *owned_session;
  const auto snapshot = [&] { return session.dynamic_state()->snapshot(); };

  const auto inserts = static_cast<std::uint64_t>(std::llround(
      kChurnFraction * static_cast<double>(session.graph().num_edges())));
  BatchStream stream(kInstanceSeed, std::max<std::uint64_t>(1, inserts));
  // Snapshots (and the scores served on them) kept for the exactness
  // checks, which run after the loop.
  struct Checkpoint {
    std::uint64_t round;
    std::shared_ptr<const graph::Graph> graph;
    std::vector<double> scores;
  };
  std::vector<Checkpoint> checkpoints;

  std::vector<double> latencies, apply_s, query_s, delete_apply_s;
  std::vector<double> diameter_probe_s, connectivity_probe_s;
  std::uint64_t dirty = 0, judged = 0, topup = 0, recalibrations = 0;
  std::uint64_t rebuilds = 0, deletion_batches = 0;
  api::Result last;
  std::size_t loop_spans = 0;
  double timed = 0.0;
  std::uint64_t round = 1;
  for (; latencies.size() < kMinOps || timed < args.seconds; ++round) {
    dynamic::EdgeBatch batch = stream.next(*snapshot());
    const bool deletes = !batch.deletes().empty();
    dynamic::ApplyReport applied;
    const std::size_t spans_before = tracer.size();
    {
      const Span op(tracer, "op", -1, round);
      const WallTimer timer;
      {
        const Span span(tracer, "dynamic.apply", op.id(), round);
        applied = session.apply(std::move(batch));
      }
      apply_s.push_back(timer.elapsed_s());
      {
        const Span span(tracer, "api.run", op.id(), round);
        last = session.run(query);
      }
      latencies.push_back(timer.elapsed_s());
    }
    timed += latencies.back();
    loop_spans += tracer.size() - spans_before;
    query_s.push_back(latencies.back() - apply_s.back());
    report.op(applied.status.ok && last.status.ok);
    if (last.status.ok && round % kCheckEvery == 0)
      checkpoints.push_back({round, snapshot(), last.scores});
    dirty += applied.samples_dirty;
    judged += applied.samples_dirty + applied.samples_retained;
    topup += applied.samples_topup;
    recalibrations += applied.recalibrations;
    rebuilds += applied.in_place ? 0 : 1;
    if (deletes) {
      delete_apply_s.push_back(apply_s.back());
      // Deletion batches pay the connectivity check and the diameter
      // bound; probe both on a sample of their snapshots.
      if (tracer.enabled() && deletion_batches++ % kProbeEvery == 0) {
        const auto graph = snapshot();
        diameter_probe_s.push_back(probe_diameter(*graph, tracer));
        connectivity_probe_s.push_back(probe_connectivity(*graph, tracer));
      }
    }
  }
  const double rss = peak_rss_mb();

  // Exactness every kCheckEvery rounds and on the final snapshot. These are
  // recorded as a check-failure rate, not as failed operations: the
  // incremental estimator's drift is a known open defect, and a workload's
  // operations must not fail on the seeds the benchmark draws.
  if (last.status.ok && (round - 1) % kCheckEvery != 0)
    checkpoints.push_back({round - 1, snapshot(), last.scores});
  for (const Checkpoint& checkpoint : checkpoints) {
    const Span span(tracer, "verify.brandes", -1, checkpoint.round);
    const double error = max_abs_error(
        checkpoint.scores,
        bc::brandes_parallel(*checkpoint.graph, kVerifyThreads).scores);
    std::fprintf(stderr,
                 "churn check round %llu: max|b~-b| = %.5f (eps %.3f)\n",
                 static_cast<unsigned long long>(checkpoint.round), error,
                 query.epsilon);
    (void)report.check(error, query.epsilon);
  }

  report_end_to_end(report, setup_s, latencies,
                    static_cast<double>(latencies.size()) / timed, query_s,
                    rss);
  if (!tracer.enabled()) return;

  const auto final_graph = snapshot();
  double kernel_ns = 0.0;
  probe_kernel(*final_graph, args.seed, tracer, report, kernel_ns);
  report.metric("graph.diameter_s", probe_diameter(*final_graph, tracer));
  report.metric("graph.connectivity_s", median(connectivity_probe_s));
  // The recompute reference: one cold non-incremental query on the final
  // snapshot; it also feeds the engine and stop-check metrics.
  api::BetweennessQuery full = query;
  full.incremental = false;
  api::Session full_session(final_graph, config);
  const WallTimer full_timer;
  api::Result full_result;
  {
    const Span span(tracer, "dynamic.full_query", -1, 0);
    full_result = full_session.run(full);
  }
  const double full_s = full_timer.elapsed_s();
  probe_stop_check_and_codec(full_session, full_result, full.epsilon, tracer,
                             report);
  report.metric("bc.max_err_ratio", report.worst_error_ratio());
  report.metric("bc.check_fail_frac", report.check_fail_frac());
  report_engine(report, {&full_result}, {full_s}, config.ranks, kernel_ns);
  const WallTimer session_timer;
  { const api::Session fresh(final_graph, config); }
  report.metric("api.session_new_s", session_timer.elapsed_s());
  report_absent(report, kServiceLayer);

  double apply_total = 0.0;
  for (const double s : apply_s) apply_total += s;
  report.metric("dynamic.update_p99_s", quantile(latencies, 0.99));
  report.metric("dynamic.apply_s_p50", quantile(apply_s, 0.5));
  report.metric("dynamic.apply_s_p99", quantile(apply_s, 0.99));
  report.metric("dynamic.query_s_p50", quantile(query_s, 0.5));
  report.metric("dynamic.dirty_frac",
                judged == 0 ? 0.0
                            : static_cast<double>(dirty) /
                                  static_cast<double>(judged));
  report.metric("dynamic.topup_samples",
                static_cast<double>(topup) /
                    static_cast<double>(apply_s.size()));
  report.metric("dynamic.recalibrations", static_cast<double>(recalibrations));
  report.metric("dynamic.rebuilds", static_cast<double>(rebuilds));
  report.metric("dynamic.applies", static_cast<double>(apply_s.size()));
  // iFUB's cost varies by an order of magnitude between snapshots, so the
  // sampled probes extrapolate by their mean.
  double probe_total = 0.0;
  for (const double s : diameter_probe_s) probe_total += s;
  const double probe_mean =
      diameter_probe_s.empty()
          ? 0.0
          : probe_total / static_cast<double>(diameter_probe_s.size());
  report.metric("dynamic.diameter_share",
                probe_mean * static_cast<double>(delete_apply_s.size()) /
                    apply_total);
  report.metric("dynamic.full_query_s", full_s);
  report_trace_overhead(report, loop_spans, timed);
}

}  // namespace
}  // namespace distbc::suite

int main(int argc, char** argv) {
  using namespace distbc;
  using namespace distbc::suite;
  const Options options(argc, argv);
  Args args;
  args.workload =
      options.get_string("workload", "", "road | social | service | churn");
  args.seed = options.get_u64("seed", args.seed, "query / sampling seed");
  args.seconds =
      options.get_double("seconds", args.seconds, "timed work per run (s)");
  args.trace_path = options.get_string(
      "trace", "", "write spans here and add the per-layer metrics");
  options.finish("distbc wall-clock benchmark driver (one workload).");

  Tracer tracer(!args.trace_path.empty());
  Report report;
  if (args.workload == "road") {
    run_query_workload(args, {"road-pa-proxy", 0.01}, tracer, report);
  } else if (args.workload == "social") {
    run_query_workload(args, {"orkut-proxy", 0.002}, tracer, report);
  } else if (args.workload == "service") {
    run_service_workload(args, tracer, report);
  } else if (args.workload == "churn") {
    run_churn_workload(args, tracer, report);
  } else {
    std::fprintf(stderr,
                 "unknown workload '%s' (road | social | service | churn)\n",
                 args.workload.c_str());
    return 2;
  }
  if (tracer.enabled() && !tracer.write(args.trace_path)) {
    std::fprintf(stderr, "cannot write %s\n", args.trace_path.c_str());
    return 1;
  }
  report.print(args.workload, args.seed);
  return 0;
}
