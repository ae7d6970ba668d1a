// Shared plumbing for the paper-reproduction benches.
//
// Every bench accepts key=value arguments:
//   scale=0.25       instance size relative to the default proxy size
//   seed=42          generator seed
//   ranks=...        override the rank sweep (single value)
//   quick=1          use the 3-instance quick suite instead of all 10
//   --json [out=f]   also emit one machine-readable JSON object per run
// and prints rows shaped like the paper's tables/figures. Benches register
// their extra options and call config.finish() so --help lists everything
// and typos fail loudly (support/options.hpp).
#pragma once

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bc/kadabra.hpp"
#include "gen/instances.hpp"
#include "graph/graph.hpp"
#include "support/options.hpp"
#include "support/table.hpp"

namespace distbc::bench {

struct BenchConfig {
  double scale = 0.25;
  std::uint64_t seed = 42;
  bool quick = false;
  Options options;

  BenchConfig(int argc, char** argv) : options(argc, argv) {
    scale = options.get_double("scale", scale,
                               "instance size relative to the proxy default");
    seed = options.get_u64("seed", seed, "generator seed");
    quick = options.get_bool("quick", quick,
                             "3-instance quick suite instead of all 10");
    options.describe("ranks", "override the rank sweep (single value)");
    options.describe("latency_us", "inter-node latency override (us)");
    options.describe("dedicated",
                     "model one dedicated core per rank (default 1)");
    options.describe("n0base", "epoch-length base override (SIV-D rule)");
    options.describe("json",
                     "emit one machine-readable JSON object per run");
    options.describe("out", "write the JSON object to this file");
  }

  /// Call after main registered its extra options: serves --help and
  /// rejects unknown keys.
  void finish(const char* summary = nullptr) const { options.finish(summary); }

  [[nodiscard]] const std::vector<gen::InstanceSpec>& suite() const {
    return quick ? gen::quick_suite() : gen::instance_suite();
  }
};

/// The rank counts of the paper's scaling experiments ("# compute nodes").
inline std::vector<int> rank_sweep(const BenchConfig& config) {
  if (config.options.has("ranks"))
    return {static_cast<int>(config.options.get_u64("ranks", 16))};
  return {1, 2, 4, 8, 16};
}

inline double geometric_mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double log_sum = 0.0;
  for (const double value : values) log_sum += std::log(value);
  return std::exp(log_sum / static_cast<double>(values.size()));
}

/// Interconnect model used by all benches: OmniPath-flavored defaults,
/// with the inter-node latency overridable (latency_us=...). Benches whose
/// effect *is* the aggregation latency (e.g. the §IV-F strategy ablation)
/// pass a slower default so the effect stays measurable when the simulated
/// ranks timeshare few physical cores.
inline mpisim::NetworkModel bench_network(const BenchConfig& config,
                                          double default_latency_us = 2.0) {
  mpisim::NetworkModel network;
  network.remote_latency_s =
      config.options.get_double("latency_us", default_latency_us) * 1e-6;
  // Benches model the paper's cluster: one dedicated core per rank, so a
  // rank blocked in a collective produces nothing (see NetworkModel).
  network.dedicated_cores = config.options.get_bool("dedicated", true);
  return network;
}

/// KADABRA parameters for a proxy instance at bench scale.
inline bc::KadabraParams bench_params(const gen::InstanceSpec& spec,
                                      std::uint64_t seed) {
  bc::KadabraParams params;
  params.epsilon = spec.bench_epsilon;
  params.delta = 0.1;
  params.seed = seed;
  return params;
}

/// Epoch-length base for benches. The paper's base of 1000 is tuned for
/// eps = 0.001 runs with millions of samples; the scaled proxies stop after
/// thousands, so the per-epoch budget scales down accordingly (same rule,
/// smaller constant; override with n0base=...).
inline std::uint64_t bench_epoch_base(const BenchConfig& config) {
  return config.options.get_u64("n0base", 50);
}

inline bc::KadabraOptions bench_mpi_options(const gen::InstanceSpec& spec,
                                               const BenchConfig& config) {
  bc::KadabraOptions options;
  options.params = bench_params(spec, config.seed);
  options.engine.epoch_base = bench_epoch_base(config);
  return options;
}

inline bc::KadabraOptions bench_shm_options(const gen::InstanceSpec& spec,
                                               const BenchConfig& config) {
  bc::KadabraOptions options;
  options.params = bench_params(spec, config.seed);
  options.engine.threads_per_rank = 1;
  options.engine.epoch_base = bench_epoch_base(config);
  return options;
}

/// Header block all benches print, so bench_output.txt is self-describing.
inline void print_preamble(const char* experiment, const char* paper_ref,
                           const BenchConfig& config) {
  std::printf("=== %s ===\n", experiment);
  std::printf("reproduces: %s\n", paper_ref);
  std::printf("scale=%.3g seed=%llu suite=%s\n\n", config.scale,
              static_cast<unsigned long long>(config.seed),
              config.quick ? "quick" : "paper-proxies");
}

// --- Verdicts ---------------------------------------------------------------

/// Whether `ranks` single-threaded simulated ranks outnumber this host's
/// cores: each rank then timeshares a core, so its wall-clock rates read
/// low and a verdict at that P says less about the paper's cluster.
inline bool oversubscribed(int ranks) {
  const unsigned cores = std::thread::hardware_concurrency();
  return cores != 0 && static_cast<unsigned>(ranks) > cores;
}

// --- Machine-readable output (--json) ---------------------------------------

/// Collects one JSON object per bench run - name, parameters, result rows,
/// summary medians - and writes it on write() (to `out=` if given, else as
/// the last stdout line) when `--json` was passed. Values are stored as
/// pre-encoded JSON tokens; rows are flat objects.
class JsonReport {
 public:
  JsonReport(std::string bench_name, const BenchConfig& config)
      : name_(std::move(bench_name)),
        enabled_(config.options.get_bool("json", false)),
        out_path_(config.options.get_string("out", "")) {
    param("scale", config.scale);
    param("seed", static_cast<double>(config.seed));
    param("suite", config.quick ? "quick" : "paper-proxies");
  }

  [[nodiscard]] bool enabled() const { return enabled_; }

  void param(const std::string& key, double value) {
    params_.emplace_back(key, number(value));
  }
  void param(const std::string& key, const std::string& value) {
    params_.emplace_back(key, quote(value));
  }

  /// Starts a new result row; fill it with field().
  void begin_row() { rows_.emplace_back(); }
  void field(const std::string& key, double value) {
    rows_.back().emplace_back(key, number(value));
  }
  void field(const std::string& key, const std::string& value) {
    rows_.back().emplace_back(key, quote(value));
  }
  /// An integer written with every digit (field() rounds to 9 significant
  /// digits); exact through a JSON double up to 2^53.
  void field_u64(const std::string& key, std::uint64_t value) {
    rows_.back().emplace_back(key, std::to_string(value));
  }

  void summary(const std::string& key, double value) {
    summary_.emplace_back(key, number(value));
  }
  void summary(const std::string& key, const std::string& value) {
    summary_.emplace_back(key, quote(value));
  }
  void summary_u64(const std::string& key, std::uint64_t value) {
    summary_.emplace_back(key, std::to_string(value));
  }

  /// Emits the object; no-op without --json.
  void write() const {
    if (!enabled_) return;
    std::string json = "{\"bench\":" + quote(name_);
    json += ",\"params\":" + object(params_);
    json += ",\"rows\":[";
    for (std::size_t i = 0; i < rows_.size(); ++i) {
      if (i != 0) json += ',';
      json += object(rows_[i]);
    }
    json += "]";
    if (!summary_.empty()) json += ",\"summary\":" + object(summary_);
    json += "}\n";
    if (out_path_.empty()) {
      std::fputs(json.c_str(), stdout);
      return;
    }
    std::FILE* file = std::fopen(out_path_.c_str(), "w");
    if (file == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", out_path_.c_str());
      return;
    }
    std::fputs(json.c_str(), file);
    std::fclose(file);
  }

 private:
  using Fields = std::vector<std::pair<std::string, std::string>>;

  static std::string quote(const std::string& text) {
    std::string quoted = "\"";
    for (const char c : text) {
      if (c == '"' || c == '\\') quoted += '\\';
      if (static_cast<unsigned char>(c) >= 0x20) quoted += c;
    }
    quoted += '"';
    return quoted;
  }
  static std::string number(double value) {
    if (!std::isfinite(value)) return "null";
    char buffer[64];
    std::snprintf(buffer, sizeof(buffer), "%.9g", value);
    return buffer;
  }
  static std::string object(const Fields& fields) {
    std::string json = "{";
    for (std::size_t i = 0; i < fields.size(); ++i) {
      if (i != 0) json += ',';
      json += quote(fields[i].first) + ":" + fields[i].second;
    }
    json += "}";
    return json;
  }

  std::string name_;
  bool enabled_ = false;
  std::string out_path_;
  Fields params_;
  std::vector<Fields> rows_;
  Fields summary_;
};

/// Closes an ablation with its verdict, computed from the rows it just
/// measured: the paper's claim, the measured ratios, the clock they were
/// read on, and whether the claim holds. Also the JSON summary.
inline void report_verdict(JsonReport& json, const char* section,
                           const char* claim, const std::string& measured,
                           bool holds) {
  const char* clock =
      "wall time with the mpisim modeled network charged onto it";
  const char* verdict = holds ? "holds" : "does not hold";
  std::printf("\n%s claim: %s.\nMeasured: %s\n(clock: %s): %s.\n", section,
              claim, measured.c_str(), clock, verdict);
  json.summary("claim", claim);
  json.summary("measured", measured);
  json.summary("clock", clock);
  json.summary("verdict", verdict);
}

/// Adds the per-collective bytes-moved breakdown (mpisim::CommVolume) to
/// the current JSON row - Table II-style communication-volume reporting
/// for any bench that runs MPI configurations.
inline void add_comm_volume_fields(JsonReport& json,
                                   const mpisim::CommVolume& volume) {
  json.field("reduce_bytes", static_cast<double>(volume.reduce_bytes));
  json.field("reduce_merge_bytes",
             static_cast<double>(volume.reduce_merge_bytes));
  json.field("gatherv_bytes", static_cast<double>(volume.gatherv_bytes));
  json.field("bcast_bytes", static_cast<double>(volume.bcast_bytes));
  json.field("p2p_bytes", static_cast<double>(volume.p2p_bytes));
  json.field("root_ingest_bytes",
             static_cast<double>(volume.root_ingest_bytes));
  json.field("aggregation_bytes",
             static_cast<double>(volume.aggregation_bytes()));
  json.field("total_bytes", static_cast<double>(volume.total()));
  // Analytic completion-deadline charges: a pure function of payload and
  // topology, so deterministic runs report them machine-independently.
  json.field("modeled_s", volume.modeled_seconds());
}

}  // namespace distbc::bench
