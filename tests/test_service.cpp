// Tests for the service tier (src/service/): a concurrent SessionPool must
// be bitwise identical to a serial Session on the same query list (the
// pool changes throughput, never answers), admission control must reject
// with typed Statuses, the fair scheduler's dispatch order must be an
// exact function of weights and submission history, and warm-state
// persistence must survive a simulated restart with zero recalibration.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "api/config.hpp"
#include "api/session.hpp"
#include "gen/erdos_renyi.hpp"
#include "graph/components.hpp"
#include "graph/stats.hpp"
#include "mpisim/network.hpp"
#include "service/dispatcher.hpp"
#include "service/scheduler.hpp"
#include "service/session_pool.hpp"
#include "service/ticket.hpp"
#include "service/warm_store.hpp"

namespace distbc {
namespace {

graph::Graph service_graph(std::uint64_t seed = 777) {
  return graph::largest_component(gen::erdos_renyi(140, 420, seed));
}

/// The deterministic shape every identity test runs on: results must be
/// bitwise independent of which replica (thread) serves a query.
api::Config service_config() {
  api::Config config;
  config.ranks = 2;
  config.threads = 1;
  config.deterministic = true;
  config.virtual_streams = 4;
  config.epoch_base = 64;
  config.epoch_exponent = 0.0;
  config.seed = 4321;
  config.network = mpisim::NetworkModel::disabled();
  config.service_pool_size = 2;
  return config;
}

/// A mixed trace: two betweenness queries (distinct statistical keys), one
/// closeness, one mean distance.
std::vector<api::Query> mixed_queries() {
  std::vector<api::Query> queries;
  api::BetweennessQuery bc1;
  bc1.epsilon = 0.05;
  queries.emplace_back(bc1);
  api::BetweennessQuery bc2;
  bc2.epsilon = 0.08;
  bc2.top_k = 5;
  queries.emplace_back(bc2);
  api::ClosenessRankQuery closeness;
  closeness.epsilon = 0.1;
  queries.emplace_back(closeness);
  api::MeanDistanceQuery mean;
  mean.epsilon = 0.2;
  queries.emplace_back(mean);
  return queries;
}

/// RAII scratch directory for warm-store tests.
struct ScratchDir {
  explicit ScratchDir(const std::string& name)
      : path((std::filesystem::temp_directory_path() /
              ("distbc_test_service_" + name))
                 .string()) {
    std::filesystem::remove_all(path);
  }
  ~ScratchDir() { std::filesystem::remove_all(path); }
  std::string path;
};

// --- Pool vs serial session: bitwise identity --------------------------------

TEST(SessionPool, ConcurrentPoolMatchesSerialSessionBitwise) {
  const auto graph =
      std::make_shared<const graph::Graph>(service_graph());
  const std::vector<api::Query> queries = mixed_queries();

  const api::Config config = service_config();

  // Serial reference: one session, in submission order.
  api::Session session(graph, config);
  std::vector<api::Result> serial;
  for (const api::Query& query : queries)
    serial.push_back(session.run(query));

  // Pool: all queries in flight at once over 2 replicas.
  service::SessionPool pool(graph, config);
  ASSERT_TRUE(pool.status().ok);
  std::vector<service::Ticket> tickets;
  for (const api::Query& query : queries)
    tickets.push_back(pool.submit(query, "tenant", "g"));
  pool.drain();

  for (std::size_t i = 0; i < queries.size(); ++i) {
    const service::Response& response = tickets[i].wait();
    ASSERT_TRUE(response.status.ok) << response.status.message;
    ASSERT_TRUE(serial[i].status.ok);
    EXPECT_EQ(response.result.algorithm, serial[i].algorithm);
    ASSERT_EQ(response.result.scores.size(), serial[i].scores.size());
    for (std::size_t v = 0; v < serial[i].scores.size(); ++v)
      EXPECT_EQ(response.result.scores[v], serial[i].scores[v])
          << "query=" << i << " vertex=" << v;
    EXPECT_EQ(response.result.top_k, serial[i].top_k);
    EXPECT_EQ(response.result.mean, serial[i].mean);
    EXPECT_EQ(response.result.samples, serial[i].samples);
  }
  const service::PoolStats stats = pool.stats();
  EXPECT_EQ(stats.submitted, queries.size());
  EXPECT_EQ(stats.completed, queries.size());
  EXPECT_EQ(stats.rejected, 0u);
}

TEST(SessionPool, SharesCalibrationsAcrossReplicas) {
  const auto graph = std::make_shared<const graph::Graph>(service_graph());
  service::SessionPool pool(graph, service_config());
  ASSERT_TRUE(pool.status().ok);

  // Same statistical key submitted more times than there are replicas:
  // once any replica has calibrated, the others must reuse, not recompute.
  api::BetweennessQuery query;
  query.epsilon = 0.05;
  std::vector<service::Ticket> tickets;
  for (int i = 0; i < 6; ++i)
    tickets.push_back(pool.submit(api::Query(query), "t", "g"));
  pool.drain();

  std::uint64_t reused = 0;
  for (const service::Ticket& ticket : tickets) {
    const service::Response& response = ticket.wait();
    ASSERT_TRUE(response.status.ok);
    if (response.result.calibration_reused) ++reused;
  }
  // At most one cold calibration per replica (2), and reuse accounting
  // must agree with the pool's counters.
  EXPECT_GE(reused, 4u);
  EXPECT_EQ(pool.stats().calibration_reuses, reused);
}

// --- Typed admission control -------------------------------------------------

TEST(Dispatcher, RejectsUnknownGraphAndOverflowWithTypedStatus) {
  const auto graph = std::make_shared<const graph::Graph>(service_graph());
  api::Config config = service_config();
  config.service_pool_size = 1;
  config.service_queue_capacity = 2;

  service::Dispatcher dispatcher;
  ASSERT_TRUE(dispatcher.bind("g", graph, config).ok);

  // Unknown graph: immediate typed rejection.
  api::BetweennessQuery query;
  query.epsilon = 0.05;
  const service::Ticket unknown =
      dispatcher.submit({"tenant", "nope", api::Query(query)});
  ASSERT_TRUE(unknown.done());
  EXPECT_FALSE(unknown.wait().status.ok);
  EXPECT_NE(unknown.wait().status.message.find("unknown graph id"),
            std::string::npos);

  // Paused, the scheduler accumulates; capacity 2 admits exactly 2.
  dispatcher.pause();
  std::vector<service::Ticket> tickets;
  for (int i = 0; i < 4; ++i)
    tickets.push_back(dispatcher.submit({"tenant", "g", api::Query(query)}));
  int rejected = 0;
  for (const service::Ticket& ticket : tickets) {
    if (ticket.done() && !ticket.wait().status.ok) {
      EXPECT_NE(ticket.wait().status.message.find("service queue full"),
                std::string::npos);
      ++rejected;
    }
  }
  EXPECT_EQ(rejected, 2);

  dispatcher.resume();
  dispatcher.drain();
  for (const service::Ticket& ticket : tickets) {
    const service::Response& response = ticket.wait();
    if (response.status.ok) {
      EXPECT_TRUE(response.result.status.ok);
    }
  }
  const service::DispatcherStats stats = dispatcher.stats();
  EXPECT_EQ(stats.submitted, 2u);
  EXPECT_EQ(stats.completed, 2u);
  EXPECT_EQ(stats.rejected_queue_full, 2u);
  EXPECT_EQ(stats.rejected_unknown_graph, 1u);
}

// --- Fair scheduling ---------------------------------------------------------

TEST(FairScheduler, EqualWeightsInterleaveDeterministically) {
  service::FairScheduler scheduler;
  for (std::uint64_t h : {1, 2, 3}) scheduler.push("alice", "g", h);
  for (std::uint64_t h : {4, 5, 6}) scheduler.push("bob", "g", h);
  EXPECT_EQ(scheduler.pending(), 6u);

  std::vector<std::uint64_t> order;
  while (auto handle = scheduler.pop("g")) order.push_back(*handle);
  // Ties on pass break by name: alice first, then strict alternation.
  EXPECT_EQ(order, (std::vector<std::uint64_t>{1, 4, 2, 5, 3, 6}));
  EXPECT_EQ(scheduler.pending(), 0u);
  EXPECT_FALSE(scheduler.pop("g").has_value());
  EXPECT_FALSE(scheduler.pop("other").has_value());
}

TEST(FairScheduler, WeightsControlTheDispatchShare) {
  service::FairScheduler scheduler;
  scheduler.set_weight("alice", 3.0);
  for (std::uint64_t h : {10, 11, 12, 13}) scheduler.push("alice", "g", h);
  for (std::uint64_t h : {20, 21, 22, 23}) scheduler.push("bob", "g", h);

  std::vector<std::uint64_t> order;
  while (auto handle = scheduler.pop("g")) order.push_back(*handle);
  // Stride scheduling at weights 3:1 - alice takes 3 of the first 4 slots.
  EXPECT_EQ(order,
            (std::vector<std::uint64_t>{10, 20, 11, 12, 13, 21, 22, 23}));
}

TEST(FairScheduler, IdleTenantsRebaseInsteadOfBankingCredit) {
  service::FairScheduler scheduler;
  scheduler.push("alice", "g", 1);
  scheduler.push("alice", "g", 2);
  EXPECT_EQ(scheduler.pop("g"), 1u);
  EXPECT_EQ(scheduler.pop("g"), 2u);

  // bob was idle while alice dispatched twice; joining now must not grant
  // bob the whole backlog - he re-bases onto the global pass.
  for (std::uint64_t h : {20, 21, 22}) scheduler.push("bob", "g", h);
  scheduler.push("alice", "g", 3);
  std::vector<std::uint64_t> order;
  while (auto handle = scheduler.pop("g")) order.push_back(*handle);
  EXPECT_EQ(order, (std::vector<std::uint64_t>{20, 3, 21, 22}));
}

TEST(FairScheduler, QueuesAreIndependentPerGraph) {
  service::FairScheduler scheduler;
  scheduler.push("alice", "g1", 1);
  scheduler.push("alice", "g2", 2);
  EXPECT_EQ(scheduler.pending("g1"), 1u);
  EXPECT_EQ(scheduler.pending("g2"), 1u);
  EXPECT_EQ(scheduler.pop("g2"), 2u);
  EXPECT_EQ(scheduler.pop("g2"), std::nullopt);
  EXPECT_EQ(scheduler.pop("g1"), 1u);
}

TEST(Dispatcher, BacklogDispatchOrderFollowsTheScheduler) {
  const auto graph = std::make_shared<const graph::Graph>(service_graph());
  api::Config config = service_config();
  config.service_pool_size = 1;  // one slot: dispatch order == run order

  service::Dispatcher dispatcher(/*queue_capacity=*/16);
  ASSERT_TRUE(dispatcher.bind("g", graph, config).ok);
  dispatcher.set_tenant_weight("hot", 2.0);

  api::BetweennessQuery query;
  query.epsilon = 0.05;
  dispatcher.pause();
  std::vector<service::Ticket> hot;
  std::vector<service::Ticket> cold;
  for (int i = 0; i < 4; ++i)
    hot.push_back(dispatcher.submit({"hot", "g", api::Query(query)}));
  for (int i = 0; i < 2; ++i)
    cold.push_back(dispatcher.submit({"cold", "g", api::Query(query)}));
  dispatcher.resume();
  dispatcher.drain();

  // Weight 2 vs 1: passes hot {0,.5,1,1.5} / cold {0,1}; smallest
  // (pass, name) each slot gives cold, hot, hot, cold, hot, hot.
  std::vector<std::uint64_t> hot_sequences;
  std::vector<std::uint64_t> cold_sequences;
  for (const service::Ticket& ticket : hot) {
    ASSERT_TRUE(ticket.wait().status.ok);
    hot_sequences.push_back(ticket.wait().dispatch_sequence);
  }
  for (const service::Ticket& ticket : cold) {
    ASSERT_TRUE(ticket.wait().status.ok);
    cold_sequences.push_back(ticket.wait().dispatch_sequence);
  }
  std::sort(hot_sequences.begin(), hot_sequences.end());
  std::sort(cold_sequences.begin(), cold_sequences.end());
  EXPECT_EQ(hot_sequences, (std::vector<std::uint64_t>{2, 3, 5, 6}));
  EXPECT_EQ(cold_sequences, (std::vector<std::uint64_t>{1, 4}));
}

// --- Warm-state persistence --------------------------------------------------

/// A fresh calibration exported from a direct session (with provenance).
std::shared_ptr<const bc::KadabraWarmState> make_warm_state(
    const std::shared_ptr<const graph::Graph>& graph,
    const api::Config& config) {
  api::Session session(graph, config);
  api::BetweennessQuery query;
  query.epsilon = 0.05;
  const api::Result result = session.run(query);
  EXPECT_TRUE(result.status.ok);
  const auto states = session.calibrations();
  EXPECT_EQ(states.size(), 1u);
  return states.empty() ? nullptr : states.front();
}

TEST(WarmStore, RoundTripsBitExactAndKeysByFingerprint) {
  const ScratchDir dir("roundtrip");
  const auto graph = std::make_shared<const graph::Graph>(service_graph());
  const api::Config config = service_config();
  const auto state = make_warm_state(graph, config);
  ASSERT_NE(state, nullptr);
  ASSERT_NE(state->graph_fingerprint, 0u);  // provenance was recorded
  EXPECT_EQ(state->graph_fingerprint, graph::fingerprint(*graph));
  EXPECT_EQ(state->ranks, 2);
  EXPECT_TRUE(state->deterministic);
  EXPECT_EQ(state->virtual_streams, 4u);

  const service::WarmStore store(dir.path);
  ASSERT_TRUE(store.save(*state));

  const auto loaded = store.load_all(state->graph_fingerprint);
  ASSERT_EQ(loaded.size(), 1u);
  const bc::KadabraWarmState& restored = *loaded.front();

  // Bit-exact round trip: the restored calibration IS the saved one.
  EXPECT_EQ(restored.graph_fingerprint, state->graph_fingerprint);
  EXPECT_EQ(restored.ranks, state->ranks);
  EXPECT_EQ(restored.threads_per_rank, state->threads_per_rank);
  EXPECT_EQ(restored.deterministic, state->deterministic);
  EXPECT_EQ(restored.virtual_streams, state->virtual_streams);
  EXPECT_EQ(restored.vertex_diameter, state->vertex_diameter);
  EXPECT_EQ(restored.context.omega, state->context.omega);
  EXPECT_EQ(restored.context.initial_samples, state->context.initial_samples);
  EXPECT_EQ(restored.context.params.epsilon, state->context.params.epsilon);
  EXPECT_EQ(restored.context.params.seed, state->context.params.seed);
  EXPECT_EQ(restored.context.params.balancing,
            state->context.params.balancing);
  EXPECT_EQ(restored.context.calibration.predicted_tau,
            state->context.calibration.predicted_tau);
  ASSERT_EQ(restored.context.calibration.delta_l.size(),
            state->context.calibration.delta_l.size());
  for (std::size_t v = 0; v < state->context.calibration.delta_l.size();
       ++v) {
    EXPECT_EQ(restored.context.calibration.delta_l[v],
              state->context.calibration.delta_l[v]);
    EXPECT_EQ(restored.context.calibration.delta_u[v],
              state->context.calibration.delta_u[v]);
  }

  // Fingerprint keying: a different graph's fingerprint finds nothing.
  EXPECT_TRUE(store.load_all(state->graph_fingerprint ^ 1).empty());

  // No provenance, no persistence.
  const bc::KadabraWarmState unprovenanced;
  EXPECT_FALSE(store.save(unprovenanced));

  // Disabled store: everything is a no-op.
  const service::WarmStore disabled("");
  EXPECT_FALSE(disabled.enabled());
  EXPECT_FALSE(disabled.save(*state));
  EXPECT_TRUE(disabled.load_all(state->graph_fingerprint).empty());
}

// Eviction caps: saves past max_entries / max_bytes remove the
// oldest-by-mtime .warm files, so the most recent calibrations (the new
// save included) always survive.
TEST(WarmStore, EvictsOldestByMtimePastTheCaps) {
  const ScratchDir dir("evict");
  const auto graph = std::make_shared<const graph::Graph>(service_graph());
  const auto state = make_warm_state(graph, service_config());
  ASSERT_NE(state, nullptr);

  // Seed five distinct states through an unbounded store (the key hash
  // covers the seed, so each lands in its own file), then backdate their
  // mtimes into a known oldest-to-newest order, all older than any
  // upcoming save.
  const service::WarmStore unbounded(dir.path);
  std::vector<std::string> paths;
  for (int i = 0; i < 5; ++i) {
    bc::KadabraWarmState copy = *state;
    copy.context.params.seed = 1000 + static_cast<std::uint64_t>(i);
    ASSERT_TRUE(unbounded.save(copy));
    paths.push_back(unbounded.state_path(copy));
  }
  const auto now = std::filesystem::last_write_time(paths.back());
  for (int i = 0; i < 5; ++i)
    std::filesystem::last_write_time(
        paths[i], now - std::chrono::minutes(10 - i));

  // A save through a store capped at three entries keeps the new file
  // plus the two youngest seeds.
  const service::WarmStore capped(dir.path, /*max_entries=*/3);
  EXPECT_EQ(capped.max_entries(), 3u);
  bc::KadabraWarmState sixth = *state;
  sixth.context.params.seed = 2000;
  ASSERT_TRUE(capped.save(sixth));
  for (int i = 0; i < 5; ++i)
    EXPECT_EQ(std::filesystem::exists(paths[i]), i >= 3) << i;
  ASSERT_TRUE(std::filesystem::exists(capped.state_path(sixth)));

  // The byte cap evicts independently: sized for two files, a further
  // save leaves exactly the two newest.
  const auto file_bytes = std::filesystem::file_size(paths[4]);
  const service::WarmStore byte_capped(dir.path, /*max_entries=*/0,
                                       /*max_bytes=*/2 * file_bytes + 1);
  bc::KadabraWarmState seventh = *state;
  seventh.context.params.seed = 3000;
  ASSERT_TRUE(byte_capped.save(seventh));
  std::size_t remaining = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator(dir.path + "/v1")) {
    remaining += entry.path().extension() == ".warm" ? 1 : 0;
  }
  EXPECT_EQ(remaining, 2u);
  EXPECT_TRUE(std::filesystem::exists(byte_capped.state_path(seventh)));

  // Both capped stores still load what survived.
  EXPECT_EQ(byte_capped.load_all(state->graph_fingerprint).size(), 2u);
}

// Equal mtimes (coarse filesystem timestamps are real) must not make the
// eviction order platform-dependent: ties break lexicographically by
// path, smallest evicted first.
TEST(WarmStore, EvictionTieBreaksEqualMtimesByPath) {
  const ScratchDir dir("evict_tie");
  const auto graph = std::make_shared<const graph::Graph>(service_graph());
  const auto state = make_warm_state(graph, service_config());
  ASSERT_NE(state, nullptr);

  // Four states whose files all carry the SAME backdated mtime.
  const service::WarmStore unbounded(dir.path);
  std::vector<std::string> paths;
  for (int i = 0; i < 4; ++i) {
    bc::KadabraWarmState copy = *state;
    copy.context.params.seed = 1000 + static_cast<std::uint64_t>(i);
    ASSERT_TRUE(unbounded.save(copy));
    paths.push_back(unbounded.state_path(copy));
  }
  const auto stamp = std::filesystem::last_write_time(paths.back()) -
                     std::chrono::minutes(10);
  for (const std::string& path : paths)
    std::filesystem::last_write_time(path, stamp);
  std::vector<std::string> sorted = paths;
  std::sort(sorted.begin(), sorted.end());

  // A capped save keeps itself plus two: among the four equal-mtime
  // files, exactly the two lexicographically smallest paths go.
  const service::WarmStore capped(dir.path, /*max_entries=*/3);
  bc::KadabraWarmState fifth = *state;
  fifth.context.params.seed = 2000;
  ASSERT_TRUE(capped.save(fifth));
  EXPECT_FALSE(std::filesystem::exists(sorted[0]));
  EXPECT_FALSE(std::filesystem::exists(sorted[1]));
  EXPECT_TRUE(std::filesystem::exists(sorted[2]));
  EXPECT_TRUE(std::filesystem::exists(sorted[3]));
  EXPECT_TRUE(std::filesystem::exists(capped.state_path(fifth)));
}

TEST(WarmStore, PreloadRejectsMismatchedProvenance) {
  const auto graph = std::make_shared<const graph::Graph>(service_graph());
  const api::Config config = service_config();
  const auto state = make_warm_state(graph, config);
  ASSERT_NE(state, nullptr);
  const bc::KadabraParams params = state->context.params;

  // Mismatched statistical parameters.
  {
    api::Session session(graph, config);
    bc::KadabraParams other = params;
    other.epsilon = 0.2;
    const api::Status status = session.preload_calibration(other, state);
    EXPECT_FALSE(status.ok);
    EXPECT_NE(status.message.find("KadabraParams"), std::string::npos);
  }
  // Different graph, same shape: fingerprint mismatch.
  {
    const auto other_graph =
        std::make_shared<const graph::Graph>(service_graph(999));
    api::Session session(other_graph, config);
    const api::Status status = session.preload_calibration(params, state);
    EXPECT_FALSE(status.ok);
    EXPECT_NE(status.message.find("graph"), std::string::npos);
  }
  // Same graph, different cluster shape: the shape-change invalidation.
  {
    api::Config reshaped = config;
    reshaped.ranks = 3;
    api::Session session(graph, reshaped);
    const api::Status status = session.preload_calibration(params, state);
    EXPECT_FALSE(status.ok);
    EXPECT_NE(status.message.find("shape"), std::string::npos);
  }
  // The exact original binding is accepted.
  {
    api::Session session(graph, config);
    EXPECT_TRUE(session.preload_calibration(params, state).ok);
  }
}

// --- Old and damaged .warm files ---------------------------------------------

/// The graph the committed .warm fixture below was calibrated on.
std::shared_ptr<const graph::Graph> fixture_graph() {
  return std::make_shared<const graph::Graph>(
      graph::largest_component(gen::erdos_renyi(24, 60, 31)));
}

/// A .warm file exactly as the format-version-1 writer emitted it before
/// the autotuner was removed: calibrated on fixture_graph() under
/// service_config() with BetweennessQuery{epsilon = 0.05} and the exact
/// diameter, and still carrying the retired sample_seconds /
/// touched_words_per_sample lines and the retired exact_diameter flag.
constexpr const char* kFixtureName =
    "bc_2d68ac28d7f890c3_22d1aa1a42328ba9.warm";
constexpr const char* kFixtureWarm =
    "# distbc service warm state (bit-exact hexfloat doubles)\n"
    "version = 1\n"
    "graph_fingerprint = 0x2d68ac28d7f890c3\n"
    "ranks = 2\n"
    "threads_per_rank = 1\n"
    "deterministic = 1\n"
    "virtual_streams = 4\n"
    "epsilon = 0x1.999999999999ap-5\n"
    "delta = 0x1.999999999999ap-4\n"
    "exact_diameter = 1\n"
    "seed = 4321\n"
    "initial_samples = 0\n"
    "balancing = 0x1.47ae147ae147bp-7\n"
    "vertex_diameter = 5\n"
    "omega = 1000\n"
    "context_initial_samples = 512\n"
    "predicted_tau = 0x1.cec43a626c616p+8\n"
    "sample_seconds = 0x1.6a1c6d37d59e2p-21\n"
    "touched_words_per_sample = 0x1.14cp+1\n"
    "num_vertices = 24\n"
    "delta_l = 0x1.2cc16ae9fb51cp-14 0x1.48a41d992bce6p-16 "
    "0x1.76bfc818eb43cp-9 0x1.6539581360063p-11 0x1.3442efc803a8fp-6 "
    "0x1.c57f97a0a51d9p-8 0x1.5d867d98e9f8dp-17 0x1.1fa55bd38c5b6p-8 "
    "0x1.29dd0017d2343p-11 0x1.5d867d98e9f8dp-17 "
    "0x1.5d867c3f47e83p-17 0x1.a09a4fefdc861p-8 0x1.48a41d992bce6p-16 "
    "0x1.a8e2ce063c84p-11 0x1.9f3846c7c8a98p-17 0x1.5d867d98e9f8dp-17 "
    "0x1.55c4cdfe29442p-10 0x1.5d867c3f47e83p-17 0x1.03f619850963ep-8 "
    "0x1.6160433ec6b34p-17 0x1.d05d2bcfef891p-17 0x1.76bfc818eb43cp-9 "
    "0x1.664077ba3c90cp-17 0x1.5f12b794c8794p-17\n"
    "delta_u = 0x1.2cc16ae9fb51cp-14 0x1.48a41d992bce6p-16 "
    "0x1.76bfc818eb43cp-9 0x1.6539581360063p-11 0x1.3442efc803a8fp-6 "
    "0x1.c57f97a0a51d9p-8 0x1.5d867d98e9f8dp-17 0x1.1fa55bd38c5b6p-8 "
    "0x1.29dd0017d2343p-11 0x1.5d867d98e9f8dp-17 "
    "0x1.5d867c3f47e83p-17 0x1.a09a4fefdc861p-8 0x1.48a41d992bce6p-16 "
    "0x1.a8e2ce063c84p-11 0x1.9f3846c7c8a98p-17 0x1.5d867d98e9f8dp-17 "
    "0x1.55c4cdfe29442p-10 0x1.5d867c3f47e83p-17 0x1.03f619850963ep-8 "
    "0x1.6160433ec6b34p-17 0x1.d05d2bcfef891p-17 0x1.76bfc818eb43cp-9 "
    "0x1.664077ba3c90cp-17 0x1.5f12b794c8794p-17\n";

/// The fixture's bytes without the three retired lines - what today's
/// writer emits for the same state.
std::string fixture_without_retired_lines() {
  std::istringstream in(kFixtureWarm);
  std::string out;
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("sample_seconds", 0) == 0 ||
        line.rfind("touched_words_per_sample", 0) == 0 ||
        line.rfind("exact_diameter", 0) == 0)
      continue;
    out += line + '\n';
  }
  return out;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

/// Replaces the store's contents with one .warm file holding `text`.
void write_store(const std::string& root, const std::string& text) {
  std::filesystem::remove_all(root);
  std::filesystem::create_directories(root + "/v1");
  std::ofstream(root + "/v1/" + kFixtureName, std::ios::binary) << text;
}

TEST(WarmStore, OldFilesWithRetiredFieldsLoadAndPreloadBitExactly) {
  const ScratchDir dir("old_format");
  const auto graph = fixture_graph();
  const api::Config config = service_config();
  write_store(dir.path, kFixtureWarm);

  const service::WarmStore store(dir.path);
  const auto loaded = store.load_all(graph::fingerprint(*graph));
  ASSERT_EQ(loaded.size(), 1u);
  const bc::KadabraWarmState& old_state = *loaded.front();
  EXPECT_EQ(store.state_path(old_state), dir.path + "/v1/" + kFixtureName);

  // Today's calibration of the same query is the stored one, bit for bit.
  // Its diameter is a bucket-tight bound, no longer the exact one: only
  // the bucket, and so omega, must match.
  const auto fresh = make_warm_state(graph, config);
  ASSERT_NE(fresh, nullptr);
  EXPECT_GE(fresh->vertex_diameter, old_state.vertex_diameter);
  EXPECT_EQ(bc::diameter_bucket(old_state.vertex_diameter),
            bc::diameter_bucket(fresh->vertex_diameter));
  EXPECT_EQ(old_state.context.omega, fresh->context.omega);
  EXPECT_EQ(old_state.context.initial_samples, fresh->context.initial_samples);
  EXPECT_EQ(old_state.context.calibration.predicted_tau,
            fresh->context.calibration.predicted_tau);
  EXPECT_EQ(old_state.context.calibration.delta_l,
            fresh->context.calibration.delta_l);
  EXPECT_EQ(old_state.context.calibration.delta_u,
            fresh->context.calibration.delta_u);

  // Re-saving writes the same bytes minus the retired lines.
  const ScratchDir resaved_dir("old_format_resaved");
  const service::WarmStore resaved(resaved_dir.path);
  ASSERT_TRUE(resaved.save(old_state));
  EXPECT_EQ(read_file(resaved.state_path(old_state)),
            fixture_without_retired_lines());
  EXPECT_EQ(resaved.load_all(graph::fingerprint(*graph)).size(), 1u);

  // A file whose omega came from the retired 2-approximation (flag 0)
  // holds a calibration no query asks for: it loads nothing.
  std::string approximate = kFixtureWarm;
  const std::string exact_line = "exact_diameter = 1\n";
  approximate.replace(approximate.find(exact_line), exact_line.size(),
                      "exact_diameter = 0\n");
  write_store(dir.path, approximate);
  EXPECT_TRUE(store.load_all(graph::fingerprint(*graph)).empty());

  // Preloaded, the old state serves a query with zero phase-1/2 work and
  // the scores of a cold session.
  api::Session cold(graph, config);
  api::BetweennessQuery query;
  query.epsilon = 0.05;
  const api::Result reference = cold.run(query);
  ASSERT_TRUE(reference.status.ok);
  api::Session warm(graph, config);
  ASSERT_TRUE(
      warm.preload_calibration(old_state.context.params, loaded.front()).ok);
  const api::Result result = warm.run(query);
  ASSERT_TRUE(result.status.ok);
  EXPECT_TRUE(result.calibration_reused);
  EXPECT_EQ(result.phases.seconds(Phase::kDiameter), 0.0);
  EXPECT_EQ(result.phases.seconds(Phase::kCalibration), 0.0);
  EXPECT_EQ(result.scores, reference.scores);
}

TEST(WarmStore, DamagedFilesLoadNothingOrAStatePreloadJudges) {
  const ScratchDir dir("damaged");
  const auto graph = fixture_graph();
  const std::uint64_t fingerprint = graph::fingerprint(*graph);
  const api::Config config = service_config();
  const service::WarmStore store(dir.path);
  api::Session session(graph, config);

  // Loads `text` as the store's only file and preloads whatever comes
  // back; nothing on either path may throw. Every state preload accepts is
  // then queried: acceptance must mean the stopping rule can serve it.
  // Returns the number of states loaded and, through `status`, preload's
  // verdict.
  const auto judge = [&](const std::string& text, api::Status& status) {
    write_store(dir.path, text);
    std::vector<std::shared_ptr<const bc::KadabraWarmState>> states;
    EXPECT_NO_THROW(states = store.load_all(fingerprint));
    EXPECT_LE(states.size(), 1u);
    status = api::Status::success();
    for (const auto& state : states) {
      EXPECT_TRUE(state->context.calibration.logs_cached());
      EXPECT_NO_THROW(
          status = session.preload_calibration(state->context.params, state));
      if (!status.ok) continue;
      api::BetweennessQuery query;
      query.epsilon = state->context.params.epsilon;
      query.delta = state->context.params.delta;
      api::Result result;
      EXPECT_NO_THROW(result = session.run(query));
      // Damaged parameters may key a query run() refuses; never an abort.
      if (query.epsilon > 0.0 && query.epsilon < 1.0 && query.delta > 0.0 &&
          query.delta < 1.0) {
        EXPECT_TRUE(result.status.ok) << result.status.message;
      }
    }
    return states.size();
  };
  const std::string valid = kFixtureWarm;
  api::Status status;
  ASSERT_EQ(judge(valid, status), 1u);
  EXPECT_TRUE(status.ok) << status.message;

  // A vertex count no line can hold used to throw std::length_error from
  // the list parser's reserve; a restarting pool must shrug it off too.
  const std::string huge_count = "num_vertices = 18446744073709551615";
  std::string huge = valid;
  huge.replace(huge.find("num_vertices = 24"), 17, huge_count);
  EXPECT_EQ(judge(huge, status), 0u);
  {
    api::Config pooled = config;
    pooled.service_warm_store = dir.path;
    std::unique_ptr<service::SessionPool> pool;
    EXPECT_NO_THROW(
        pool = std::make_unique<service::SessionPool>(graph, pooled));
    ASSERT_NE(pool, nullptr);
    EXPECT_TRUE(pool->status().ok);
    EXPECT_EQ(pool->stats().store_states_loaded, 0u);
  }

  // A self-consistent file whose lists do not cover the graph loads, and
  // preload refuses it with a Status instead of letting the stopping rule
  // index past the end.
  std::string short_lists = valid;
  short_lists.replace(short_lists.find("num_vertices = 24"), 17,
                      "num_vertices = 1");
  for (const char* key : {"delta_l = ", "delta_u = "}) {
    const std::size_t begin = short_lists.find(key) + std::strlen(key);
    const std::size_t first_end = short_lists.find(' ', begin);
    const std::size_t line_end = short_lists.find('\n', begin);
    short_lists.erase(first_end, line_end - first_end);
  }
  ASSERT_EQ(judge(short_lists, status), 1u);
  EXPECT_FALSE(status.ok);
  EXPECT_NE(status.message.find("delta_l/delta_u"), std::string::npos)
      << status.message;

  // A damaged hexfloat that decodes to a share outside (0, 1) loads, and
  // preload refuses it typed instead of the next query aborting in the
  // stopping rule.
  std::string out_of_range = valid;
  const std::size_t first_share =
      out_of_range.find("delta_l = ") + std::strlen("delta_l = ");
  out_of_range.replace(first_share,
                       out_of_range.find(' ', first_share) - first_share,
                       "0x1.8p+0");  // 1.5
  ASSERT_EQ(judge(out_of_range, status), 1u);
  EXPECT_FALSE(status.ok);
  EXPECT_NE(status.message.find("shares"), std::string::npos)
      << status.message;

  // Every truncation at a line boundary: only the complete file loads.
  for (std::size_t end = 0; end < valid.size(); ++end) {
    if (end != 0 && valid[end - 1] != '\n') continue;
    EXPECT_EQ(judge(valid.substr(0, end), status), 0u) << "length " << end;
  }

  // Seeded single-byte corruptions anywhere in the file.
  std::mt19937_64 rng(20240611);
  for (int trial = 0; trial < 400; ++trial) {
    std::string damaged = valid;
    const std::size_t at = rng() % damaged.size();
    damaged[at] = static_cast<char>(rng() % 256);
    SCOPED_TRACE("byte " + std::to_string(at));
    (void)judge(damaged, status);
  }
}

TEST(WarmStore, PreloadRejectsSharesOutsideTheOpenUnitIntervalTyped) {
  const ScratchDir dir("bad_shares");
  const auto graph = fixture_graph();
  write_store(dir.path, kFixtureWarm);
  const auto loaded =
      service::WarmStore(dir.path).load_all(graph::fingerprint(*graph));
  ASSERT_EQ(loaded.size(), 1u);
  const bc::KadabraWarmState& valid = *loaded[0];
  api::Session session(graph, service_config());
  ASSERT_TRUE(session.status().ok);

  for (const double bad : {1.5, 1.0, 0.0, -0.0, -0.01,
                           std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity()}) {
    for (const bool lower : {true, false}) {
      SCOPED_TRACE(std::to_string(bad) +
                   (lower ? " in delta_l" : " in delta_u"));
      auto damaged = std::make_shared<bc::KadabraWarmState>(valid);
      bc::Calibration& cal = damaged->context.calibration;
      (lower ? cal.delta_l : cal.delta_u)[3] = bad;
      cal.cache_logs();
      const api::Status status =
          session.preload_calibration(damaged->context.params, damaged);
      EXPECT_FALSE(status.ok);
      EXPECT_NE(status.message.find("shares"), std::string::npos)
          << status.message;
    }
  }
  // In-range shares whose sum reaches delta void the guarantee too.
  auto over_budget = std::make_shared<bc::KadabraWarmState>(valid);
  over_budget->context.calibration.delta_u[0] = valid.context.params.delta;
  over_budget->context.calibration.cache_logs();
  EXPECT_FALSE(
      session.preload_calibration(over_budget->context.params, over_budget)
          .ok);
  EXPECT_TRUE(session.calibrations().empty());  // nothing was cached

  // A valid state without the log cache is accepted; the cached copy has
  // the logs and serves a query from the warm state.
  auto no_logs = std::make_shared<bc::KadabraWarmState>(valid);
  no_logs->context.calibration.log_inv_delta_l.clear();
  no_logs->context.calibration.log_inv_delta_u.clear();
  const api::Status accepted =
      session.preload_calibration(no_logs->context.params, no_logs);
  ASSERT_TRUE(accepted.ok) << accepted.message;
  ASSERT_EQ(session.calibrations().size(), 1u);
  const bc::Calibration& cached =
      session.calibrations()[0]->context.calibration;
  EXPECT_EQ(cached.log_inv_delta_l, valid.context.calibration.log_inv_delta_l);
  EXPECT_EQ(cached.log_inv_delta_u, valid.context.calibration.log_inv_delta_u);
  api::BetweennessQuery query;
  query.epsilon = valid.context.params.epsilon;
  query.delta = valid.context.params.delta;
  const api::Result result = session.run(query);
  ASSERT_TRUE(result.status.ok) << result.status.message;
  EXPECT_TRUE(result.calibration_reused);
}

TEST(SessionPool, RestartWithWarmStorePerformsZeroCalibration) {
  const ScratchDir dir("restart");
  const auto graph = std::make_shared<const graph::Graph>(service_graph());
  api::Config config = service_config();
  config.service_warm_store = dir.path;

  api::BetweennessQuery query;
  query.epsilon = 0.05;
  std::vector<double> first_scores;
  {
    service::SessionPool pool(graph, config);
    ASSERT_TRUE(pool.status().ok);
    const service::Ticket ticket = pool.submit(api::Query(query));
    pool.drain();
    const service::Response& response = ticket.wait();
    ASSERT_TRUE(response.status.ok);
    EXPECT_FALSE(response.result.calibration_reused);
    EXPECT_GT(response.result.phases.seconds(Phase::kCalibration), 0.0);
    first_scores = response.result.scores;
    EXPECT_GE(pool.stats().store_saves, 1u);
  }  // "shutdown"

  // Restart: a new pool over the same store must serve the first query
  // from the persisted calibration - zero phase-1/2 work, same answer.
  service::SessionPool restarted(graph, config);
  ASSERT_TRUE(restarted.status().ok);
  EXPECT_GE(restarted.stats().store_states_loaded, 1u);
  const service::Ticket ticket = restarted.submit(api::Query(query));
  restarted.drain();
  const service::Response& response = ticket.wait();
  ASSERT_TRUE(response.status.ok);
  EXPECT_TRUE(response.result.calibration_reused);
  EXPECT_EQ(response.result.phases.seconds(Phase::kDiameter), 0.0);
  EXPECT_EQ(response.result.phases.seconds(Phase::kCalibration), 0.0);
  ASSERT_EQ(response.result.scores.size(), first_scores.size());
  for (std::size_t v = 0; v < first_scores.size(); ++v)
    EXPECT_EQ(response.result.scores[v], first_scores[v]);

  // A reshaped cluster must NOT reuse the stored state (invalidated by
  // provenance validation at load).
  api::Config reshaped = config;
  reshaped.ranks = 3;
  service::SessionPool reshaped_pool(graph, reshaped);
  ASSERT_TRUE(reshaped_pool.status().ok);
  EXPECT_EQ(reshaped_pool.stats().store_states_loaded, 0u);
  EXPECT_GE(reshaped_pool.stats().store_states_rejected, 1u);
}

}  // namespace
}  // namespace distbc
