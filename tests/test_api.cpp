// Tests for the distbc::api facade: Session::run must be bitwise identical
// to calling the drivers directly in deterministic mode, session reuse
// must skip recalibration
// (zero kDiameter/kCalibration phase time on the second query), and
// api::Config must resolve env < text < programmatic with unknown keys
// rejected.
#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "adaptive/closeness.hpp"
#include "adaptive/mean_distance.hpp"
#include "api/config.hpp"
#include "api/session.hpp"
#include "bc/brandes.hpp"
#include "bc/kadabra.hpp"
#include "engine/engine.hpp"
#include "gen/erdos_renyi.hpp"
#include "graph/builder.hpp"
#include "graph/components.hpp"
#include "mpisim/comm.hpp"
#include "mpisim/runtime.hpp"
#include "support/random.hpp"

namespace distbc {
namespace {

graph::Graph api_graph() {
  return graph::largest_component(gen::erdos_renyi(140, 420, 777));
}

graph::Graph disconnected_graph() {
  graph::Builder builder(4);
  builder.add_edge(0, 1);
  builder.add_edge(2, 3);
  return builder.finish();
}

/// The deterministic cluster shape the whole identity suite runs on.
api::Config deterministic_config() {
  api::Config config;  // defaults only: the suite controls every knob
  config.ranks = 2;
  config.threads = 2;
  config.deterministic = true;
  config.virtual_streams = 4;
  config.epoch_base = 64;
  config.epoch_exponent = 0.0;
  config.seed = 4321;
  config.network = mpisim::NetworkModel::disabled();
  return config;
}

// --- Bitwise identity: session vs direct driver calls ----------------------

TEST(SessionIdentity, BetweennessMatchesDirectDriver) {
  const graph::Graph graph = api_graph();
  const api::Config config = deterministic_config();

  // Direct arm: the per-rank driver on its own simulated cluster.
  bc::KadabraOptions options;
  options.params.epsilon = 0.15;
  options.params.seed = config.seed;
  options.engine = config.engine_options();
  mpisim::RuntimeConfig runtime_config;
  runtime_config.num_ranks = config.ranks;
  runtime_config.network = mpisim::NetworkModel::disabled();
  mpisim::Runtime runtime(runtime_config);
  bc::BcResult direct;
  runtime.run([&](mpisim::Comm& world) {
    bc::BcResult local = bc::kadabra_run(graph, options, &world);
    if (world.rank() == 0) direct = std::move(local);
  });

  // Facade arm.
  api::Session session(graph, config);
  api::BetweennessQuery query;
  query.epsilon = 0.15;
  const api::Result result = session.run(query);

  ASSERT_TRUE(result.status.ok) << result.status.message;
  EXPECT_EQ(result.algorithm, "kadabra");
  EXPECT_EQ(result.samples, direct.samples);
  EXPECT_EQ(result.epochs, direct.epochs);
  ASSERT_EQ(result.scores.size(), direct.scores.size());
  for (std::size_t v = 0; v < result.scores.size(); ++v)
    EXPECT_EQ(result.scores[v], direct.scores[v]) << "vertex " << v;
}

TEST(SessionIdentity, ClosenessMatchesDirectDriver) {
  const graph::Graph graph = api_graph();
  const api::Config config = deterministic_config();

  adaptive::ClosenessParams params;
  params.epsilon = 0.1;
  params.seed = config.seed;
  params.engine = config.engine_options();
  mpisim::RuntimeConfig runtime_config;
  runtime_config.num_ranks = config.ranks;
  runtime_config.network = mpisim::NetworkModel::disabled();
  mpisim::Runtime runtime(runtime_config);
  adaptive::ClosenessResult direct;
  runtime.run([&](mpisim::Comm& world) {
    adaptive::ClosenessResult local =
        adaptive::closeness_rank(graph, params, world);
    if (world.rank() == 0) direct = std::move(local);
  });

  api::Session session(graph, config);
  api::ClosenessRankQuery query;
  query.epsilon = 0.1;
  const api::Result result = session.run(query);

  ASSERT_TRUE(result.status.ok) << result.status.message;
  EXPECT_EQ(result.algorithm, "closeness");
  EXPECT_EQ(result.samples, direct.samples);
  EXPECT_EQ(result.epochs, direct.epochs);
  ASSERT_EQ(result.scores.size(), direct.scores.size());
  for (std::size_t v = 0; v < result.scores.size(); ++v)
    EXPECT_EQ(result.scores[v], direct.scores[v]) << "vertex " << v;
}

TEST(SessionIdentity, MeanDistanceMatchesDirectDriver) {
  const graph::Graph graph = api_graph();
  const api::Config config = deterministic_config();

  adaptive::MeanDistanceParams params;
  params.epsilon = 0.2;
  params.seed = config.seed;
  params.engine = config.engine_options();
  mpisim::RuntimeConfig runtime_config;
  runtime_config.num_ranks = config.ranks;
  runtime_config.network = mpisim::NetworkModel::disabled();
  mpisim::Runtime runtime(runtime_config);
  adaptive::MeanDistanceResult direct;
  runtime.run([&](mpisim::Comm& world) {
    adaptive::MeanDistanceResult local =
        adaptive::mean_distance_rank(graph, params, world);
    if (world.rank() == 0) direct = local;
  });

  api::Session session(graph, config);
  api::MeanDistanceQuery query;
  query.epsilon = 0.2;
  const api::Result result = session.run(query);

  ASSERT_TRUE(result.status.ok) << result.status.message;
  EXPECT_EQ(result.algorithm, "mean_distance");
  EXPECT_EQ(result.mean, direct.mean);
  EXPECT_EQ(result.stddev, direct.stddev);
  EXPECT_EQ(result.samples, direct.samples);
}

// --- Session reuse ----------------------------------------------------------

TEST(SessionReuse, SecondQuerySkipsDiameterAndCalibrationEntirely) {
  const graph::Graph graph = api_graph();
  api::Session session(graph, deterministic_config());
  api::BetweennessQuery query;
  query.epsilon = 0.15;

  const api::Result first = session.run(query);
  ASSERT_TRUE(first.status.ok) << first.status.message;
  EXPECT_FALSE(first.calibration_reused);
  EXPECT_GT(first.phases.seconds(Phase::kDiameter), 0.0);
  EXPECT_GT(first.phases.seconds(Phase::kCalibration), 0.0);

  const api::Result second = session.run(query);
  ASSERT_TRUE(second.status.ok) << second.status.message;
  EXPECT_TRUE(second.calibration_reused);
  // Zero additional calibration work of any kind: the phases-1-2 stats of
  // the second query are exactly zero.
  EXPECT_EQ(second.phases.seconds(Phase::kDiameter), 0.0);
  EXPECT_EQ(second.phases.seconds(Phase::kCalibration), 0.0);
  // Deterministic mode: reusing the cached calibration changes nothing.
  ASSERT_EQ(second.scores.size(), first.scores.size());
  for (std::size_t v = 0; v < first.scores.size(); ++v)
    EXPECT_EQ(second.scores[v], first.scores[v]);
  EXPECT_EQ(second.samples, first.samples);
  EXPECT_EQ(second.epochs, first.epochs);
}

TEST(SessionReuse, DifferentEpsilonCalibratesFresh) {
  const graph::Graph graph = api_graph();
  api::Session session(graph, deterministic_config());
  api::BetweennessQuery query;
  query.epsilon = 0.15;
  ASSERT_TRUE(session.run(query).status.ok);
  query.epsilon = 0.12;  // new statistical key -> new calibration
  const api::Result other = session.run(query);
  ASSERT_TRUE(other.status.ok);
  EXPECT_FALSE(other.calibration_reused);
  EXPECT_GT(other.phases.seconds(Phase::kCalibration), 0.0);
}

TEST(SessionReuse, WarmStateRoundTripsThroughPreload) {
  const graph::Graph graph = api_graph();
  const api::Config config = deterministic_config();
  bc::KadabraParams params;
  params.epsilon = 0.15;
  params.seed = config.seed;

  api::Session first_session(graph, config);
  api::BetweennessQuery query;
  query.epsilon = 0.15;
  const api::Result first = first_session.run(query);
  ASSERT_TRUE(first.status.ok);

  // A service restart: the warm state persists, the new session skips
  // phases 1-2 on its very first query.
  bc::KadabraOptions options;
  options.params = params;
  options.engine = config.engine_options();
  api::Session second_session(graph, config);
  const bc::BcResult seeded_direct = second_session.kadabra(options);
  ASSERT_NE(seeded_direct.warm, nullptr);

  api::Session third_session(graph, config);
  ASSERT_TRUE(
      third_session.preload_calibration(params, seeded_direct.warm).ok);
  const api::Result warm = third_session.run(query);
  ASSERT_TRUE(warm.status.ok);
  EXPECT_TRUE(warm.calibration_reused);
  EXPECT_EQ(warm.phases.seconds(Phase::kCalibration), 0.0);
  for (std::size_t v = 0; v < first.scores.size(); ++v)
    EXPECT_EQ(warm.scores[v], first.scores[v]);
}

TEST(SessionReuse, MeanDistanceRangeProbeRunsOnce) {
  const graph::Graph graph = api_graph();
  api::Session session(graph, deterministic_config());
  api::MeanDistanceQuery query;
  query.epsilon = 0.3;
  const api::Result first = session.run(query);
  const api::Result second = session.run(query);
  ASSERT_TRUE(first.status.ok);
  ASSERT_TRUE(second.status.ok);
  // Deterministic engine + cached range: identical outcomes.
  EXPECT_EQ(second.mean, first.mean);
  EXPECT_EQ(second.samples, first.samples);
}

// --- Exact-Brandes fallback -------------------------------------------------

TEST(SessionDispatch, ExactQueryAndSmallGraphFallBackToBrandes) {
  const graph::Graph graph = api_graph();
  const bc::BcResult oracle = bc::brandes(graph);

  api::Config config;
  api::Session session(graph, config);
  api::BetweennessQuery exact_query;
  exact_query.exact = true;
  exact_query.top_k = 3;
  const api::Result exact = session.run(exact_query);
  ASSERT_TRUE(exact.status.ok);
  EXPECT_EQ(exact.algorithm, "brandes");
  ASSERT_EQ(exact.scores.size(), oracle.scores.size());
  for (std::size_t v = 0; v < oracle.scores.size(); ++v)
    EXPECT_EQ(exact.scores[v], oracle.scores[v]);
  ASSERT_EQ(exact.top_k.size(), 3u);
  EXPECT_EQ(exact.top_k.front().second, oracle.scores[oracle.top_k(1)[0]]);

  api::Config fallback_config;
  fallback_config.exact_threshold = graph.num_vertices();
  api::Session fallback_session(graph, fallback_config);
  const api::Result fallback = fallback_session.run(api::BetweennessQuery{});
  ASSERT_TRUE(fallback.status.ok);
  EXPECT_EQ(fallback.algorithm, "brandes");
}

// --- API-layer validation ---------------------------------------------------

TEST(SessionValidation, BadSubmissionsReturnStatusInsteadOfAborting) {
  const graph::Graph graph = api_graph();
  api::Session session(graph, api::Config{});

  api::BetweennessQuery bad_k;
  bad_k.top_k = graph.num_vertices() + 1;
  EXPECT_FALSE(session.run(bad_k).status.ok);
  EXPECT_NE(session.run(bad_k).status.message.find("top_k"),
            std::string::npos);

  api::BetweennessQuery bad_eps;
  bad_eps.epsilon = 0.0;
  EXPECT_FALSE(session.run(bad_eps).status.ok);

  // KADABRA's budget math needs epsilon < 1; the driver would assert.
  api::BetweennessQuery huge_eps;
  huge_eps.epsilon = 1.0;
  EXPECT_FALSE(session.run(huge_eps).status.ok);
  // ...while mean distance measures hops: epsilon >= 1 is legitimate.
  api::MeanDistanceQuery coarse;
  coarse.epsilon = 2.0;
  EXPECT_TRUE(session.run(coarse).status.ok);

  api::MeanDistanceQuery bad_delta;
  bad_delta.delta = 1.0;
  EXPECT_FALSE(session.run(bad_delta).status.ok);
}

// An epsilon whose sample budget does not fit a 64-bit count - ~1e20
// samples at 1e-10, infinitely many once epsilon^2 underflows - is a typed
// error on every query that derives such a budget, not an undefined cast
// and a run that reports ok.
TEST(SessionValidation, UnrepresentableSampleBudgetsAreErrors) {
  const auto graph = std::make_shared<const graph::Graph>(
      graph::largest_component(gen::erdos_renyi(300, 900, 7)));
  api::Session session(graph, api::Config{});
  for (const double epsilon : {1e-10, 1e-300, 5e-324}) {
    SCOPED_TRACE(epsilon);
    api::BetweennessQuery plain;
    plain.epsilon = epsilon;
    const api::Result plain_result = session.run(plain);
    EXPECT_FALSE(plain_result.status.ok);
    EXPECT_NE(plain_result.status.message.find("sample budget"),
              std::string::npos);

    api::BetweennessQuery incremental = plain;
    incremental.incremental = true;
    EXPECT_FALSE(session.run(incremental).status.ok);

    api::ClosenessRankQuery closeness;
    closeness.epsilon = epsilon;
    EXPECT_FALSE(session.run(closeness).status.ok);
  }
  // An ordinary epsilon on the same session still runs.
  api::BetweennessQuery fine;
  fine.epsilon = 0.1;
  EXPECT_TRUE(session.run(fine).status.ok);
}

TEST(SessionValidation, EpochCapStopsAreErrors) {
  // A rule no epoch budget can meet: the cap ends every query, which must
  // not report ok.
  const auto graph = std::make_shared<const graph::Graph>(
      graph::largest_component(gen::erdos_renyi(300, 900, 7)));
  api::Config config;
  config.max_epochs = 2000;
  api::Session session(graph, config);
  api::MeanDistanceQuery mean;
  mean.epsilon = 1e-10;
  const api::Result mean_result = session.run(mean);
  EXPECT_FALSE(mean_result.status.ok);
  EXPECT_EQ(mean_result.stop_reason, engine::StopReason::kMaxEpochs);
  EXPECT_EQ(mean_result.epochs, 2000u);
  EXPECT_NE(mean_result.status.message.find("max_epochs"), std::string::npos);
  EXPECT_GT(mean_result.half_width, mean.epsilon);

  config.max_epochs = 1;
  api::Session capped(graph, config);
  api::BetweennessQuery betweenness;
  betweenness.epsilon = 0.005;
  const api::Result bc_result = capped.run(betweenness);
  EXPECT_FALSE(bc_result.status.ok);
  EXPECT_EQ(bc_result.stop_reason, engine::StopReason::kMaxEpochs);
  api::ClosenessRankQuery closeness;
  closeness.epsilon = 0.005;
  const api::Result closeness_result = capped.run(closeness);
  EXPECT_FALSE(closeness_result.status.ok);
  EXPECT_EQ(closeness_result.stop_reason, engine::StopReason::kMaxEpochs);

  // Queries whose rule holds within the cap stay ok.
  api::Session roomy(graph, api::Config{});
  const api::Result fine = roomy.run(api::MeanDistanceQuery{});
  EXPECT_TRUE(fine.status.ok);
  EXPECT_EQ(fine.stop_reason, engine::StopReason::kRule);
}

TEST(SessionValidation, TinyAndDisconnectedGraphsAreErrors) {
  graph::Builder tiny_builder(1);
  api::Session tiny(tiny_builder.finish(), api::Config{});
  const api::Result tiny_result = tiny.run(api::BetweennessQuery{});
  EXPECT_FALSE(tiny_result.status.ok);
  EXPECT_NE(tiny_result.status.message.find("fewer than 2"),
            std::string::npos);

  api::Session disconnected(disconnected_graph(), api::Config{});
  for (const api::Query query :
       {api::Query(api::BetweennessQuery{}),
        api::Query(api::ClosenessRankQuery{}),
        api::Query(api::MeanDistanceQuery{})}) {
    const api::Result result = disconnected.run(query);
    EXPECT_FALSE(result.status.ok);
    EXPECT_NE(result.status.message.find("not connected"),
              std::string::npos);
  }
  // The exact path has no connectivity requirement.
  api::BetweennessQuery exact_query;
  exact_query.exact = true;
  EXPECT_TRUE(disconnected.run(exact_query).status.ok);
}

TEST(SessionValidation, MismatchedRuntimeConfigFailsEveryQuery) {
  api::Config config;
  config.virtual_streams = 4;  // without deterministic mode: invalid
  api::Session session(api_graph(), config);
  EXPECT_FALSE(session.status().ok);
  const api::Result result = session.run(api::BetweennessQuery{});
  EXPECT_FALSE(result.status.ok);
  EXPECT_NE(result.status.message.find("deterministic"), std::string::npos);

  // The calibration layer requires balancing in (0, 1); zero must be
  // caught at session construction, not by a driver assert.
  api::Config zero_balancing;
  zero_balancing.balancing = 0.0;
  EXPECT_FALSE(api::Session(api_graph(), zero_balancing).status().ok);

  // The epoch length is ceil(base * streams^exponent): a NaN or infinite
  // exponent reaches an undefined float-to-integer cast, and a negative
  // one sizes epochs below one sample. All parse as doubles, so
  // validation must catch them.
  for (const char* exponent : {"nan", "inf", "-1"}) {
    api::Config bad_exponent;
    ASSERT_TRUE(bad_exponent.set("epoch_exponent", exponent).ok) << exponent;
    EXPECT_FALSE(bad_exponent.validate().ok) << exponent;
    EXPECT_FALSE(api::Session(api_graph(), bad_exponent).status().ok)
        << exponent;
  }
}

// --- Config resolution ------------------------------------------------------

/// RAII environment override (restores the previous value).
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    const char* old = std::getenv(name);
    if (old != nullptr) saved_ = old;
    had_value_ = old != nullptr;
    ::setenv(name, value, 1);
  }
  ~ScopedEnv() {
    if (had_value_) {
      ::setenv(name_.c_str(), saved_.c_str(), 1);
    } else {
      ::unsetenv(name_.c_str());
    }
  }

 private:
  std::string name_;
  std::string saved_;
  bool had_value_ = false;
};

TEST(ApiConfig, PrecedenceIsEnvThenTextThenProgrammatic) {
  const ScopedEnv env_base("DISTBC_EPOCH_BASE", "123");
  const ScopedEnv env_threads("DISTBC_THREADS", "2");

  api::Config config = api::Config::from_env();
  EXPECT_EQ(config.epoch_base, 123u);
  EXPECT_EQ(config.threads, 2);

  ASSERT_TRUE(config.load_text("# service overrides\n"
                               "epoch_base = 456\n"
                               "threads = 4\n")
                  .ok);
  EXPECT_EQ(config.epoch_base, 456u);
  EXPECT_EQ(config.threads, 4);

  ASSERT_TRUE(config.set("epoch_base", "789").ok);
  EXPECT_EQ(config.epoch_base, 789u);
  EXPECT_EQ(config.threads, 4);  // untouched layer
}

TEST(ApiConfig, UnknownKeysAndMalformedValuesAreRejected) {
  api::Config config;
  const api::Status unknown = config.set("bogus_knob", "1");
  EXPECT_FALSE(unknown.ok);
  EXPECT_NE(unknown.message.find("unknown config key"), std::string::npos);

  EXPECT_FALSE(config.load_text("threads = 3\nbogus_knob = 1\n").ok);
  EXPECT_EQ(config.threads, 3);  // applied before stop

  EXPECT_FALSE(config.set("threads", "0").ok);
  EXPECT_FALSE(config.set("aggregation", "ireduc").ok);
  EXPECT_FALSE(config.set("ranks", "0").ok);
  EXPECT_FALSE(config.set("epoch_base", "12x").ok);
  EXPECT_FALSE(config.set("max_epochs", "-1").ok);  // no strtoull wrapping
  EXPECT_FALSE(config.set("seed", " 7").ok);
  EXPECT_FALSE(config.load_text("no equals sign here\n").ok);
}

TEST(ApiConfig, RemovedKnobsFailLoudly) {
  // Retired keys - the traversal-batch width (one kernel, no widths), the
  // deleted autotuner's two switches, the per-rank aggregate switch no
  // result exposed, the wire-representation selector (every aggregation
  // ships data-sized images), and the diameter selector (every driver
  // takes the one bucket-tight bound), the two pacing knobs and the
  // sketch cap no caller set (KadabraOptions and dynamic::SketchParams
  // keep their defaults), and the two tree-merge radixes (every merge is
  // the flat all-reduce, under the optional §IV-E hierarchy) - must fail
  // with the unknown-key Status, not be
  // silently ignored by old config text. The autotuner's names are
  // spelled in pieces so a source search for them finds only history,
  // not live code.
  for (const std::string key :
       {"sample_batch", "auto_" "tune", "tune_" "profile", "local_aggregates",
        "frame_rep", "exact_diameter", "omega_fraction", "min_epoch_length",
        "dynamic_sketch_cap", "tree_radix", "leader_radix"}) {
    api::Config config;
    const api::Status text = config.load_text(key + "=1\n");
    EXPECT_FALSE(text.ok) << key;
    EXPECT_NE(text.message.find("unknown config key '" + key + "'"),
              std::string::npos)
        << text.message;
    const api::Status set = config.set(key, "1");
    EXPECT_FALSE(set.ok) << key;
    EXPECT_NE(set.message.find("unknown config key"), std::string::npos)
        << set.message;
  }
}

TEST(ApiConfig, RetiredEnvironmentVariablesAreIgnored) {
  // Unlike config text, the environment is shared with other programs: a
  // variable no key reads any more is not an error.
  const ScopedEnv frame_rep("DISTBC_FRAME_REP", "dense");
  const ScopedEnv exact_diameter("DISTBC_EXACT_DIAMETER", "0");
  const ScopedEnv omega_fraction("DISTBC_OMEGA_FRACTION", "0");
  const ScopedEnv min_epoch_length("DISTBC_MIN_EPOCH_LENGTH", "x");
  const ScopedEnv sketch_cap("DISTBC_DYNAMIC_SKETCH_CAP", "8");
  const ScopedEnv tree_fan_in("DISTBC_TREE_RADIX", "1");
  const ScopedEnv leader_fan_in("DISTBC_LEADER_RADIX", "2");
  api::Config config;
  EXPECT_TRUE(config.load_env().ok);
}

TEST(ApiConfig, MalformedEnvironmentIsALoudError) {
  const ScopedEnv env("DISTBC_THREADS", "0");
  api::Config config;
  const api::Status status = config.load_env();
  EXPECT_FALSE(status.ok);
  EXPECT_NE(status.message.find("DISTBC_THREADS"), std::string::npos);
}

TEST(ApiConfig, SerializeRoundTrips) {
  api::Config config;
  config.threads = 4;
  config.aggregation = engine::Aggregation::kIreduce;
  config.epoch_base = 77;
  api::Config reparsed;
  ASSERT_TRUE(reparsed.load_text(config.serialize()).ok);
  EXPECT_EQ(reparsed.threads, 4);
  EXPECT_EQ(reparsed.aggregation, engine::Aggregation::kIreduce);
  EXPECT_EQ(reparsed.epoch_base, 77u);
}

TEST(ApiConfig, EngineOptionsMappingIsComplete) {
  api::Config config;
  config.threads = 3;
  config.aggregation = engine::Aggregation::kBlocking;
  config.hierarchical = true;
  config.epoch_base = 11;
  config.epoch_exponent = 0.5;
  config.max_epoch_length = 99;
  config.max_epochs = 7;
  config.deterministic = true;
  config.virtual_streams = 5;
  const engine::EngineOptions options = config.engine_options();
  EXPECT_EQ(options.threads_per_rank, 3);
  EXPECT_EQ(options.aggregation, engine::Aggregation::kBlocking);
  EXPECT_TRUE(options.hierarchical);
  EXPECT_EQ(options.epoch_base, 11u);
  EXPECT_EQ(options.epoch_exponent, 0.5);
  EXPECT_EQ(options.max_epoch_length, 99u);
  EXPECT_EQ(options.max_epochs, 7u);
  EXPECT_TRUE(options.deterministic);
  EXPECT_EQ(options.virtual_streams, 5u);
}

TEST(ApiConfig, SeededTextFuzzNeverYieldsAnEmptyEpoch) {
  // Hostile `key = value` documents over the real keys plus junk. Each
  // must either fail load_text()/validate() with a Status or resolve to
  // engine options whose epoch holds at least one sample. Run under
  // ASan/UBSan this also catches undefined casts on the way.
  std::vector<std::string> keys = {"", "bogus_knob", "EPOCH_EXPONENT",
                                   "epoch exponent", "\xff\xfe", "ranks\r"};
  const std::string defaults = api::Config().serialize();
  for (std::size_t at = 0; at < defaults.size();) {
    const std::size_t end = defaults.find('\n', at);
    keys.push_back(defaults.substr(at, defaults.find(" = ", at) - at));
    at = end + 1;
  }
  const std::vector<std::string> values = {
      "nan", "-nan", "inf", "-inf", "1e308", "-1e308", "-0", "0", "1", "-1",
      "2", "0.5", "1.33", "18446744073709551615", "18446744073709551616",
      "2147483648", "", "=", "==1", "#", "1 # trailing", "\r", "1\r",
      "\x80\xc3\x28", "0x10", "true", "off", "dense", "auto", "ncclsim",
      std::string(4096, 'x'), std::string(4096, '9')};

  Rng rng(0xC0FF1EULL);
  const auto pick = [&](const std::vector<std::string>& from) {
    return from[rng.next_bounded(from.size())];
  };
  // Every key is in play, but the epoch sizing key is drawn often enough
  // that accepted documents regularly carry a hostile exponent.
  const auto pick_key = [&] {
    return rng.next_bounded(4) == 0 ? std::string("epoch_exponent")
                                    : pick(keys);
  };
  int accepted = 0;
  int rejected = 0;
  for (int doc = 0; doc < 3000; ++doc) {
    std::string text;
    const std::uint64_t lines = 1 + rng.next_bounded(5);
    for (std::uint64_t line = 0; line < lines; ++line) {
      switch (rng.next_bounded(6)) {
        case 0:
          text += pick_key() + "=" + pick(values);
          break;
        case 1:
          text += "# " + pick(values);
          break;
        case 2:
          text += pick_key();
          break;
        default:
          text += pick_key() + " = " + pick(values);
          break;
      }
      text += rng.next_bounded(4) == 0 ? "\r\n" : "\n";
    }

    api::Config config;
    if (!config.load_text(text).ok || !config.validate().ok) {
      ++rejected;
      continue;
    }
    ++accepted;
    // A validated config must size a non-empty epoch on its own cluster
    // shape and on any other it could be reused on (streams^exponent is
    // 1 at one stream whatever the exponent, hiding a bad one).
    const engine::EngineOptions options = config.engine_options();
    for (const std::uint64_t streams :
         {engine::num_streams(options, config.ranks), std::uint64_t{2},
          std::uint64_t{64}}) {
      EXPECT_GE(engine::epoch_length(options.epoch_base,
                                     options.epoch_exponent, streams),
                1u)
          << "streams " << streams << ", document:\n" << text;
    }
  }
  // Both outcomes occur, so neither branch is vacuous.
  EXPECT_GT(accepted, 0);
  EXPECT_GT(rejected, 0);
}

}  // namespace
}  // namespace distbc
