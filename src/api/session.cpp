#include "api/session.hpp"

#include <algorithm>
#include <limits>
#include <string>
#include <utility>

#include "bc/brandes.hpp"
#include "bc/brandes_parallel.hpp"
#include "bc/kadabra_math.hpp"
#include "graph/components.hpp"
#include "graph/stats.hpp"
#include "mpisim/comm.hpp"

namespace distbc::api {

namespace {

/// (vertex, score) pairs for an already-ranked vertex order.
std::vector<std::pair<graph::Vertex, double>> pairs_from_order(
    const std::vector<double>& scores,
    const std::vector<graph::Vertex>& order) {
  std::vector<std::pair<graph::Vertex, double>> pairs;
  pairs.reserve(order.size());
  for (const graph::Vertex v : order) pairs.emplace_back(v, scores[v]);
  return pairs;
}

/// An engine run the epoch cap ended is not an answer to the query.
Status stop_status(engine::StopReason reason, std::uint64_t epochs) {
  if (reason == engine::StopReason::kRule) return Status::success();
  return Status::error("max_epochs (" + std::to_string(epochs) +
                       ") reached before the stopping rule held");
}

/// A typed error for an epsilon whose sample budget does not fit the
/// drivers' 64-bit sample counts (bc::budget_fits).
Status budget_status(double budget) {
  if (bc::budget_fits(budget)) return Status::success();
  return Status::error(
      "epsilon too small: its sample budget does not fit a 64-bit count");
}

}  // namespace

// --- Thread-safety tripwire -------------------------------------------------

Session::ThreadGuard::ThreadGuard(const Session& session)
    : session_(session) {
  const std::thread::id self = std::this_thread::get_id();
  if (session_.active_thread_.load(std::memory_order_acquire) == self)
    return;  // same-thread nesting: run() delegating to a native entry
  std::thread::id unowned{};
  owner_ = session_.active_thread_.compare_exchange_strong(
      unowned, self, std::memory_order_acq_rel);
  DISTBC_ASSERT_MSG(owner_,
                    "api::Session is not thread-safe: overlapping queries "
                    "from two threads detected - every entry point mutates "
                    "the session's caches. Use one session per thread or "
                    "service::SessionPool for concurrency.");
}

Session::ThreadGuard::~ThreadGuard() {
  if (owner_)
    session_.active_thread_.store(std::thread::id{},
                                  std::memory_order_release);
}

Session::Session(graph::Graph graph, Config config)
    : Session(std::make_shared<const graph::Graph>(std::move(graph)),
              std::move(config)) {}

Session::Session(std::shared_ptr<const graph::Graph> graph, Config config)
    : graph_(std::move(graph)), config_(std::move(config)) {
  DISTBC_ASSERT(graph_ != nullptr);
  status_ = config_.validate();
  if (!status_.ok) return;
  mpisim::RuntimeConfig runtime_config;
  runtime_config.num_ranks = config_.ranks;
  runtime_config.ranks_per_node = config_.ranks_per_node;
  // The preset's link economics (NVLink/IB profile, launch latency, ring
  // all-reduce pricing for ncclsim) layer over the configured model;
  // validate() vouched for the name.
  runtime_config.network =
      *mpisim::network_preset(config_.comm_substrate, config_.network);
  runtime_ = std::make_unique<mpisim::Runtime>(runtime_config);
}

bool Session::connected() {
  if (!connected_.has_value()) connected_ = graph::is_connected(*graph_);
  return *connected_;
}

std::uint64_t Session::graph_fingerprint() {
  if (!fingerprint_.has_value()) fingerprint_ = graph::fingerprint(*graph_);
  return *fingerprint_;
}

Status Session::validate_query(double epsilon, double delta,
                               std::size_t top_k, bool needs_connected) {
  if (!status_.ok) return status_;
  if (graph_->num_vertices() < 2)
    return Status::error("graph has fewer than 2 vertices");
  if (!(epsilon > 0.0)) return Status::error("epsilon must be > 0");
  if (!(delta > 0.0) || !(delta < 1.0))
    return Status::error("delta must be in (0, 1)");
  if (top_k > graph_->num_vertices())
    return Status::error("top_k exceeds the number of vertices");
  if (needs_connected && !connected())
    return Status::error(
        "graph is not connected; the sampling estimators require a "
        "connected graph (run on its largest component)");
  return Status::success();
}

Session::CalibrationKey Session::calibration_key(
    const bc::KadabraParams& params, int threads_per_rank, bool deterministic,
    std::uint64_t virtual_streams) const {
  return {params.epsilon,         params.delta,     params.seed,
          params.initial_samples, params.balancing, threads_per_rank,
          deterministic,          virtual_streams};
}

Status Session::preload_calibration(
    const bc::KadabraParams& params,
    std::shared_ptr<const bc::KadabraWarmState> warm) {
  const ThreadGuard guard(*this);
  if (!status_.ok) return status_;
  if (warm == nullptr)
    return Status::error("preload_calibration: null warm state");

  // The state must have been calibrated with the parameters it is being
  // keyed under - KadabraContext carries them.
  const bc::KadabraParams& wp = warm->context.params;
  if (wp.epsilon != params.epsilon || wp.delta != params.delta ||
      wp.seed != params.seed || wp.initial_samples != params.initial_samples ||
      wp.balancing != params.balancing) {
    return Status::error(
        "preload_calibration: warm state was calibrated with different "
        "KadabraParams than the key it is being preloaded under");
  }
  // Provenance validation (states from before the accounting carry zero
  // fingerprint/ranks and skip these two checks).
  if (warm->graph_fingerprint != 0 &&
      warm->graph_fingerprint != graph_fingerprint()) {
    return Status::error(
        "preload_calibration: warm state was computed on a different graph "
        "(fingerprint mismatch)");
  }
  if (warm->ranks != 0 &&
      (warm->ranks != config_.ranks ||
       warm->threads_per_rank != config_.threads ||
       warm->deterministic != config_.deterministic ||
       warm->virtual_streams != config_.virtual_streams)) {
    return Status::error(
        "preload_calibration: warm state was calibrated on a different "
        "cluster shape (ranks x threads / deterministic stream layout "
        "changed) - recalibrate instead of reusing it");
  }
  // The stopping rule indexes delta_l/delta_u by vertex: a state of the
  // wrong length (a damaged or foreign file) must never reach it.
  const bc::Calibration& cal = warm->context.calibration;
  if (cal.delta_l.size() != graph_->num_vertices() ||
      cal.delta_u.size() != graph_->num_vertices()) {
    return Status::error(
        "preload_calibration: warm state's delta_l/delta_u do not have "
        "one entry per vertex of the session's graph");
  }
  // A share outside (0, 1), non-finite, or a budget of delta or more (a
  // damaged hexfloat decodes to any of these) would void the stopping
  // rule's guarantee, or abort inside it.
  if (!cal.valid_for(params.delta)) {
    return Status::error(
        "preload_calibration: warm state's delta_l/delta_u shares are not "
        "all in (0, 1) with a sum below delta");
  }
  if (!cal.logs_cached()) {
    auto with_logs = std::make_shared<bc::KadabraWarmState>(*warm);
    with_logs->context.calibration.cache_logs();
    warm = std::move(with_logs);
  }
  // Match the key run() will look up.
  calibrations_[calibration_key(params, config_.threads,
                                config_.deterministic,
                                config_.virtual_streams)] = std::move(warm);
  return Status::success();
}

// --- Dynamic graphs ---------------------------------------------------------

void Session::ensure_dynamic() {
  if (dynamic_ != nullptr) return;
  dynamic_ = std::make_shared<dynamic::DynamicState>(graph_,
                                                     dynamic::SketchParams{});
}

void Session::bind_dynamic_state(
    std::shared_ptr<dynamic::DynamicState> state) {
  const ThreadGuard guard(*this);
  DISTBC_ASSERT(state != nullptr);
  dynamic_ = std::move(state);
  graph_ = dynamic_->snapshot();
  connected_.reset();
  fingerprint_.reset();
}

void Session::adopt_apply(const dynamic::ApplyReport& report) {
  graph_ = dynamic_->snapshot();
  fingerprint_.reset();
  // An accepted deletion batch was checked connected, and inserting edges
  // cannot disconnect a connected graph; only an insert-only batch on a
  // graph not known to be connected (it may have joined the components)
  // needs the lazy re-check.
  if (report.had_deletes || connected_.value_or(false)) {
    connected_ = true;
  } else {
    connected_.reset();
  }
  mean_distance_range_ = 0;
  // Calibration-bound policy: a warm state survives as long as its omega
  // still covers the new graph - always on insert-only batches (distances
  // only shrink; diameter_bound stays 0), and on deletion batches when its
  // diameter bucket is at or above the new bound's, since omega reads the
  // diameter only through that bucket. Survivors are re-stamped to the new
  // fingerprint so provenance checks keep accepting them, and their
  // diameter is raised to the new bound so it stays one; a bucket below
  // the bound's drops the entry (omega would be too small for the grown
  // diameter). Only a survivor reads the new fingerprint, which the shared
  // state hashes once per version.
  for (auto it = calibrations_.begin(); it != calibrations_.end();) {
    const auto& warm = it->second;
    if (report.had_deletes && bc::diameter_bucket(warm->vertex_diameter) <
                                  bc::diameter_bucket(report.diameter_bound)) {
      it = calibrations_.erase(it);
      continue;
    }
    if (!fingerprint_.has_value()) fingerprint_ = dynamic_->fingerprint();
    auto restamped = std::make_shared<bc::KadabraWarmState>(*warm);
    restamped->graph_fingerprint = *fingerprint_;
    restamped->vertex_diameter =
        std::max(warm->vertex_diameter, report.diameter_bound);
    restamped->context.vertex_diameter = restamped->vertex_diameter;
    it->second = std::move(restamped);
    ++it;
  }
}

dynamic::ApplyReport Session::apply(dynamic::EdgeBatch batch) {
  const ThreadGuard guard(*this);
  if (!status_.ok) {
    dynamic::ApplyReport report;
    report.status = status_;
    return report;
  }
  ensure_dynamic();
  dynamic::ApplyReport report = dynamic_->apply(std::move(batch));
  if (report.status.ok) adopt_apply(report);
  return report;
}

void Session::sync_dynamic(const dynamic::ApplyReport& report) {
  const ThreadGuard guard(*this);
  DISTBC_ASSERT_MSG(dynamic_ != nullptr,
                    "sync_dynamic requires a bound DynamicState");
  DISTBC_ASSERT(report.status.ok);
  adopt_apply(report);
}

std::vector<std::shared_ptr<const bc::KadabraWarmState>>
Session::calibrations() const {
  const ThreadGuard guard(*this);
  std::vector<std::shared_ptr<const bc::KadabraWarmState>> out;
  out.reserve(calibrations_.size());
  for (const auto& [key, warm] : calibrations_) out.push_back(warm);
  return out;
}

// --- Native entry points ----------------------------------------------------

bc::BcResult Session::kadabra(const bc::KadabraOptions& options) {
  const ThreadGuard guard(*this);
  DISTBC_ASSERT_MSG(status_.ok, status_.message.c_str());
  bc::KadabraOptions run_options = options;
  const CalibrationKey key = calibration_key(
      options.params, options.engine.threads_per_rank,
      options.engine.deterministic, options.engine.virtual_streams);
  if (run_options.warm_start == nullptr) {
    if (const auto it = calibrations_.find(key); it != calibrations_.end())
      run_options.warm_start = it->second;
  }
  bc::BcResult result;
  runtime_->run([&](mpisim::Comm& world) {
    bc::BcResult local = bc::kadabra_run(*graph_, run_options, &world);
    if (world.rank() == 0) result = std::move(local);
  });
  if (result.warm != nullptr) calibrations_[key] = result.warm;
  return result;
}

adaptive::ClosenessResult Session::closeness(
    const adaptive::ClosenessParams& params) {
  const ThreadGuard guard(*this);
  DISTBC_ASSERT_MSG(status_.ok, status_.message.c_str());
  adaptive::ClosenessResult result;
  runtime_->run([&](mpisim::Comm& world) {
    adaptive::ClosenessResult local =
        adaptive::closeness_rank(*graph_, params, world);
    if (world.rank() == 0) result = std::move(local);
  });
  return result;
}

adaptive::MeanDistanceResult Session::mean_distance(
    const adaptive::MeanDistanceParams& params) {
  const ThreadGuard guard(*this);
  DISTBC_ASSERT_MSG(status_.ok, status_.message.c_str());
  adaptive::MeanDistanceResult result;
  runtime_->run([&](mpisim::Comm& world) {
    adaptive::MeanDistanceResult local =
        adaptive::mean_distance_rank(*graph_, params, world);
    if (world.rank() == 0) result = local;
  });
  if (result.range > 0) mean_distance_range_ = result.range;
  return result;
}

// --- Typed dispatch ---------------------------------------------------------

Result Session::run(const BetweennessQuery& query) {
  const ThreadGuard guard(*this);
  Result result;
  const bool exact =
      query.exact || graph_->num_vertices() <= config_.exact_threshold;
  result.status = validate_query(query.epsilon, query.delta, query.top_k,
                                 /*needs_connected=*/!exact);
  // Betweenness scores lie in [0, 1]: KADABRA's budget math requires
  // epsilon < 1 (the driver asserts it).
  if (result.status.ok && !exact && query.epsilon >= 1.0)
    result.status = Status::error("epsilon must be in (0, 1)");
  // The budget grows with the vertex diameter's bucket. Every diameter
  // bound a driver may use, at most twice an eccentricity plus one, is
  // below 2|V|, so a budget that fits there fits at the real one (plain
  // and incremental runs alike: batches keep the vertex set).
  if (result.status.ok && !exact) {
    const auto diameter_cap = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(2ull * graph_->num_vertices(),
                                std::numeric_limits<std::uint32_t>::max()));
    result.status = budget_status(
        bc::omega_budget(diameter_cap, query.epsilon, query.delta));
  }
  if (!result.status.ok) return result;

  if (exact) {
    bc::BcResult brandes = config_.threads > 1
                               ? bc::brandes_parallel(*graph_, config_.threads)
                               : bc::brandes(*graph_);
    result.algorithm = "brandes";
    result.samples = brandes.samples;
    result.total_seconds = brandes.total_seconds;
    result.phases = brandes.phases;
    if (query.top_k > 0)
      result.top_k =
          pairs_from_order(brandes.scores, brandes.top_k(query.top_k));
    result.scores = std::move(brandes.scores);
    return result;
  }

  if (query.incremental) return run_incremental(query);

  bc::KadabraOptions options;
  options.params.epsilon = query.epsilon;
  options.params.delta = query.delta;
  options.params.seed = config_.seed;
  options.params.initial_samples = config_.initial_samples;
  options.params.balancing = config_.balancing;
  options.engine = config_.engine_options();
  options.top_k = query.top_k;
  result.calibration_reused = calibrations_.contains(calibration_key(
      options.params, options.engine.threads_per_rank,
      options.engine.deterministic, options.engine.virtual_streams));

  bc::BcResult bc_result = kadabra(options);
  result.algorithm = "kadabra";
  result.samples = bc_result.samples;
  result.epochs = bc_result.epochs;
  result.stop_reason = bc_result.stop_reason;
  result.status = stop_status(result.stop_reason, result.epochs);
  result.total_seconds = bc_result.total_seconds;
  result.phases = bc_result.phases;
  result.comm_volume = bc_result.comm_volume;
  result.engine_used = bc_result.engine_used;
  result.top_k = std::move(bc_result.top_k_pairs);
  result.scores = std::move(bc_result.scores);
  return result;
}

Result Session::run_incremental(const BetweennessQuery& query) {
  // Caller (run) already validated epsilon/delta/top_k/connectivity and
  // holds the thread guard.
  Result result;
  ensure_dynamic();
  bc::KadabraParams params;
  params.epsilon = query.epsilon;
  params.delta = query.delta;
  params.seed = config_.seed;
  params.initial_samples = config_.initial_samples;
  params.balancing = config_.balancing;

  const WallTimer timer;
  dynamic::DynamicState::QueryView view = dynamic_->query(params);
  result.status = view.status;
  if (!result.status.ok) return result;
  result.algorithm = "kadabra-incremental";
  result.samples = view.samples;
  result.epochs = view.epochs;
  result.total_seconds = timer.elapsed_s();
  // An engine that already existed served this query from retained state -
  // the incremental analogue of a calibration-cache hit.
  result.calibration_reused = !view.first_run;
  if (query.top_k > 0) {
    std::vector<graph::Vertex> order(graph_->num_vertices());
    for (graph::Vertex v = 0; v < graph_->num_vertices(); ++v) order[v] = v;
    const std::size_t k = std::min(query.top_k, order.size());
    std::partial_sort(order.begin(),
                      order.begin() + static_cast<std::ptrdiff_t>(k),
                      order.end(), [&](graph::Vertex a, graph::Vertex b) {
                        if (view.scores[a] != view.scores[b])
                          return view.scores[a] > view.scores[b];
                        return a < b;
                      });
    order.resize(k);
    result.top_k = pairs_from_order(view.scores, order);
  }
  result.scores = std::move(view.scores);
  return result;
}

Result Session::run(const ClosenessRankQuery& query) {
  const ThreadGuard guard(*this);
  Result result;
  result.status = validate_query(query.epsilon, query.delta, query.top_k,
                                 /*needs_connected=*/true);
  if (result.status.ok)
    result.status = budget_status(adaptive::closeness_sample_budget(
        graph_->num_vertices(), query.epsilon, query.delta));
  if (!result.status.ok) return result;

  adaptive::ClosenessParams params;
  params.epsilon = query.epsilon;
  params.delta = query.delta;
  params.seed = config_.seed;
  params.engine = config_.engine_options();
  params.assume_connected = true;  // the session just validated it

  adaptive::ClosenessResult closeness_result = closeness(params);
  result.algorithm = "closeness";
  result.samples = closeness_result.samples;
  result.epochs = closeness_result.epochs;
  result.stop_reason = closeness_result.stop_reason;
  result.status = stop_status(result.stop_reason, result.epochs);
  result.total_seconds = closeness_result.total_seconds;
  result.phases = closeness_result.phases;
  result.comm_volume = closeness_result.comm_volume;
  result.engine_used = closeness_result.engine_used;
  if (query.top_k > 0)
    result.top_k = pairs_from_order(closeness_result.scores,
                                    closeness_result.top_k(query.top_k));
  result.scores = std::move(closeness_result.scores);
  return result;
}

Result Session::run(const MeanDistanceQuery& query) {
  const ThreadGuard guard(*this);
  Result result;
  result.status = validate_query(query.epsilon, query.delta, /*top_k=*/0,
                                 /*needs_connected=*/true);
  if (!result.status.ok) return result;

  adaptive::MeanDistanceParams params;
  params.epsilon = query.epsilon;
  params.delta = query.delta;
  params.seed = config_.seed;
  params.engine = config_.engine_options();
  params.known_range = mean_distance_range_;  // 0 until a first query ran
  params.assume_connected = true;

  adaptive::MeanDistanceResult mean_result = mean_distance(params);
  result.algorithm = "mean_distance";
  result.mean = mean_result.mean;
  result.stddev = mean_result.stddev;
  result.half_width = mean_result.half_width;
  result.samples = mean_result.samples;
  result.epochs = mean_result.epochs;
  result.stop_reason = mean_result.stop_reason;
  result.status = stop_status(result.stop_reason, result.epochs);
  result.total_seconds = mean_result.total_seconds;
  result.phases = mean_result.phases;
  result.comm_volume = mean_result.comm_volume;
  result.engine_used = mean_result.engine_used;
  return result;
}

Result Session::run(const Query& query) {
  return std::visit([&](const auto& typed) { return run(typed); }, query);
}

std::vector<Result> Session::run_batch(std::span<const Query> queries) {
  std::vector<Result> results;
  results.reserve(queries.size());
  for (const Query& query : queries) results.push_back(run(query));
  return results;
}

}  // namespace distbc::api
