// api::Config - the one typed configuration surface of the library.
//
// Every engine/driver knob that used to be scattered over KadabraOptions,
// ClosenessParams, MeanDistanceParams, EngineOptions defaults, and
// DISTBC_* environment peeking inside epoch/engine headers resolves here,
// in ONE documented precedence order (lowest to highest):
//
//   1. built-in defaults        - the field initializers below;
//   2. environment              - load_env(): DISTBC_<KEY> for every key
//                                 in the table (e.g. DISTBC_AGGREGATION -
//                                 the names the old scattered overrides
//                                 used);
//   3. key=value text           - load_text(): one `key = value` per line,
//                                 '#' comments;
//   4. programmatic             - set(key, value) or direct field writes.
//
// Precedence is realized by application order: each layer overwrites the
// ones below, so `Config::from_env()` then `load_text(...)` then `set(...)`
// is the canonical build sequence. Unknown keys and malformed values are
// rejected with a Status (nothing exits or aborts at this layer).
//
// This file (api/) is the ONLY place in src/ that reads DISTBC_*
// environment variables; the engine, epoch, and driver layers take their
// knobs as plain values.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "api/status.hpp"
#include "engine/engine.hpp"
#include "mpisim/network.hpp"

namespace distbc::api {

/// One entry of the key table: the settable name, the environment variable
/// load_env() reads for it, and one-line help.
struct ConfigKey {
  const char* key;
  const char* env;
  const char* help;
};

struct Config {
  // --- Cluster shape (what a Session binds the graph to) ------------------
  int ranks = 1;            // simulated MPI ranks
  int ranks_per_node = 1;   // processes per node (paper: one per socket)
  int threads = 1;          // sampling threads per rank

  // --- Engine knobs (see engine::EngineOptions for semantics) -------------
  engine::Aggregation aggregation = engine::Aggregation::kIbarrierReduce;
  bool hierarchical = false;
  std::uint64_t epoch_base = 1000;
  double epoch_exponent = 1.33;
  std::uint64_t max_epoch_length = 0;
  std::uint64_t max_epochs = 1u << 20;
  bool deterministic = false;
  std::uint64_t virtual_streams = 0;

  // --- Network profile ----------------------------------------------------
  /// The named network preset the Session layers onto `network`
  /// (mpisim::network_preset): "mpisim" (the paper's CPU/OmniPath MPI
  /// stack, `network` unchanged) or "ncclsim" (a modeled NCCL-style stack:
  /// NVLink-like intra-node and IB-like inter-node links, ring all-reduce
  /// pricing, kernel-launch latency, device-side progress). Only the
  /// modeled clock and link economics differ; deterministic-mode scores
  /// and bytes are identical under both.
  std::string comm_substrate = "mpisim";

  // --- Sampling / statistics knobs ----------------------------------------
  std::uint64_t seed = 0x5eed;
  std::uint64_t initial_samples = 0;  // 0 = automatic (scales with omega)
  double balancing = 0.01;        // calibration failure-budget floor

  // --- Facade behavior ----------------------------------------------------
  /// Betweenness queries on graphs with |V| <= this run exact Brandes
  /// instead of sampling (0 = never fall back).
  std::uint64_t exact_threshold = 0;

  // --- Service tier (src/service/; ignored by plain Sessions) -------------
  /// Session replicas a service::SessionPool holds per bound graph.
  int service_pool_size = 2;
  /// Bounded admission queue: submissions beyond this many pending
  /// queries are rejected with a typed Status ("service queue full").
  std::uint64_t service_queue_capacity = 256;
  /// Directory of the persistent warm-state store (service::WarmStore);
  /// empty = no persistence (calibrations live only for the pool's life).
  std::string service_warm_store;
  /// Warm-store eviction cap: keep at most this many persisted states per
  /// format version, evicting oldest-by-mtime past it (0 = unbounded).
  std::uint64_t service_warm_store_max_entries = 0;

  // --- Typed-only fields (programmatic, not in the key table) -------------
  /// Link economics of the modeled cluster. The comm_substrate preset is
  /// applied on top of this at Session construction.
  mpisim::NetworkModel network{};

  /// The settable keys, their environment names, and help text.
  [[nodiscard]] static const std::vector<ConfigKey>& keys();

  /// Layer 4: one programmatic assignment. Unknown key or malformed value
  /// -> error Status, config unchanged.
  [[nodiscard]] Status set(std::string_view key, std::string_view value);

  /// Layer 3: `key = value` lines ('#' comments, blank lines ok). Applies
  /// assignments in order; stops at the first bad key/value.
  [[nodiscard]] Status load_text(std::string_view text);

  /// Layer 2: reads DISTBC_<KEY> for every key in the table. A set but
  /// malformed variable is an error (loud beats silently running
  /// defaults); unset variables are skipped.
  [[nodiscard]] Status load_env();

  /// defaults() is layer 1 alone; from_env() is the service default
  /// (defaults + environment). from_env() asserts the environment is
  /// well-formed - use load_env() directly to handle errors.
  [[nodiscard]] static Config defaults() { return {}; }
  [[nodiscard]] static Config from_env();

  /// Cross-field validation (ranks >= 1, threads >= 1, virtual streams
  /// require deterministic mode, a known comm_substrate preset, ...).
  /// Session construction runs this.
  [[nodiscard]] Status validate() const;

  /// The engine configuration these knobs resolve to.
  [[nodiscard]] engine::EngineOptions engine_options() const;

  /// Serializes the key-table fields as `key = value` lines (the
  /// load_text format; typed-only fields are not included).
  [[nodiscard]] std::string serialize() const;
};

}  // namespace distbc::api
