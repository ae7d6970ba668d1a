#include "api/config.hpp"

#include <cerrno>
#include <climits>
#include <cmath>
#include <cstdlib>
#include <sstream>

#include "support/assert.hpp"

namespace distbc::api {

namespace {

// --- Value parsers ----------------------------------------------------------

[[nodiscard]] bool parse_u64(std::string_view text, std::uint64_t& out) {
  // strtoull silently wraps negative inputs; demand a leading digit.
  if (text.empty() || text.front() < '0' || text.front() > '9') return false;
  errno = 0;
  char* end = nullptr;
  const std::string owned(text);
  const unsigned long long value = std::strtoull(owned.c_str(), &end, 10);
  if (errno != 0 || end != owned.c_str() + owned.size()) return false;
  out = value;
  return true;
}

[[nodiscard]] bool parse_int(std::string_view text, int& out) {
  if (text.empty()) return false;
  errno = 0;
  char* end = nullptr;
  const std::string owned(text);
  const long value = std::strtol(owned.c_str(), &end, 10);
  if (errno != 0 || end != owned.c_str() + owned.size()) return false;
  if (value < INT_MIN || value > INT_MAX) return false;
  out = static_cast<int>(value);
  return true;
}

[[nodiscard]] bool parse_double(std::string_view text, double& out) {
  if (text.empty()) return false;
  errno = 0;
  char* end = nullptr;
  const std::string owned(text);
  const double value = std::strtod(owned.c_str(), &end);
  if (errno != 0 || end != owned.c_str() + owned.size()) return false;
  out = value;
  return true;
}

[[nodiscard]] bool parse_bool(std::string_view text, bool& out) {
  if (text == "1" || text == "true" || text == "yes" || text == "on") {
    out = true;
    return true;
  }
  if (text == "0" || text == "false" || text == "no" || text == "off") {
    out = false;
    return true;
  }
  return false;
}

// --- Key table --------------------------------------------------------------

struct Entry {
  ConfigKey info;
  Status (*apply)(Config&, std::string_view);
  std::string (*read)(const Config&);
};

Status bad_value(std::string_view key, std::string_view value,
                 const char* expected) {
  std::string message = "bad value '";
  message += value;
  message += "' for config key '";
  message += key;
  message += "' (expected ";
  message += expected;
  message += ")";
  return Status::error(std::move(message));
}

// One macro per field family keeps the key table honest: every key gets
// a parser, a range check, and a serializer from the same three tokens.
#define DISTBC_U64_KEY(key_name, env_name, field, help_text)               \
  Entry{{key_name, env_name, help_text},                                   \
        [](Config& config, std::string_view value) {                       \
          std::uint64_t parsed = 0;                                        \
          if (!parse_u64(value, parsed))                                   \
            return bad_value(key_name, value, "unsigned integer");         \
          config.field = parsed;                                           \
          return Status::success();                                        \
        },                                                                 \
        [](const Config& config) { return std::to_string(config.field); }}

#define DISTBC_BOOL_KEY(key_name, env_name, field, help_text)            \
  Entry{{key_name, env_name, help_text},                                 \
        [](Config& config, std::string_view value) {                     \
          bool parsed = false;                                           \
          if (!parse_bool(value, parsed))                                \
            return bad_value(key_name, value, "0|1|true|false|yes|no");  \
          config.field = parsed;                                         \
          return Status::success();                                      \
        },                                                               \
        [](const Config& config) {                                       \
          return std::string(config.field ? "1" : "0");                  \
        }}

#define DISTBC_DOUBLE_KEY(key_name, env_name, field, help_text)   \
  Entry{{key_name, env_name, help_text},                          \
        [](Config& config, std::string_view value) {              \
          double parsed = 0.0;                                    \
          if (!parse_double(value, parsed))                       \
            return bad_value(key_name, value, "number");          \
          config.field = parsed;                                  \
          return Status::success();                               \
        },                                                        \
        [](const Config& config) {                                \
          std::ostringstream out;                                 \
          out << config.field;                                    \
          return out.str();                                       \
        }}

#define DISTBC_POSITIVE_INT_KEY(key_name, env_name, field, help_text)  \
  Entry{{key_name, env_name, help_text},                               \
        [](Config& config, std::string_view value) {                   \
          int parsed = 0;                                              \
          if (!parse_int(value, parsed) || parsed < 1)                 \
            return bad_value(key_name, value, "integer >= 1");         \
          config.field = parsed;                                       \
          return Status::success();                                    \
        },                                                             \
        [](const Config& config) { return std::to_string(config.field); }}

const std::vector<Entry>& entries() {
  static const std::vector<Entry> table = {
      DISTBC_POSITIVE_INT_KEY("ranks", "DISTBC_RANKS", ranks,
                              "simulated MPI ranks of the session"),
      DISTBC_POSITIVE_INT_KEY("ranks_per_node", "DISTBC_RANKS_PER_NODE",
                              ranks_per_node, "MPI processes per node"),
      DISTBC_POSITIVE_INT_KEY("threads", "DISTBC_THREADS", threads,
                              "sampling threads per rank"),
      Entry{{"aggregation", "DISTBC_AGGREGATION",
             "ibarrier+reduce | ireduce | blocking (paper SIV-F)"},
            [](Config& config, std::string_view value) {
              const auto parsed = engine::aggregation_from_name(value);
              if (!parsed.has_value())
                return bad_value("aggregation", value,
                                 "ibarrier+reduce|ireduce|blocking");
              config.aggregation = *parsed;
              return Status::success();
            },
            [](const Config& config) {
              return std::string(
                  engine::aggregation_name(config.aggregation));
            }},
      DISTBC_BOOL_KEY("hierarchical", "DISTBC_HIERARCHICAL", hierarchical,
                      "node-local RMA pre-reduction (paper SIV-E)"),
      DISTBC_U64_KEY("epoch_base", "DISTBC_EPOCH_BASE", epoch_base,
                     "epoch-length rule base (paper SIV-D)"),
      DISTBC_DOUBLE_KEY("epoch_exponent", "DISTBC_EPOCH_EXPONENT",
                        epoch_exponent,
                        "epoch-length rule exponent (paper SIV-D)"),
      DISTBC_U64_KEY("max_epoch_length", "DISTBC_MAX_EPOCH_LENGTH",
                     max_epoch_length, "hard epoch-length cap (0 = none)"),
      DISTBC_U64_KEY("max_epochs", "DISTBC_MAX_EPOCHS", max_epochs,
                     "hard cap on aggregation rounds (a query it ends "
                     "before its stopping rule holds is an error)"),
      DISTBC_BOOL_KEY("deterministic", "DISTBC_DETERMINISTIC", deterministic,
                      "bitwise-reproducible engine mode"),
      DISTBC_U64_KEY("virtual_streams", "DISTBC_VIRTUAL_STREAMS",
                     virtual_streams,
                     "deterministic-mode stream count (0 = physical)"),
      Entry{{"comm_substrate", "DISTBC_COMM_SUBSTRATE",
             "network preset: mpisim | ncclsim"},
            [](Config& config, std::string_view value) {
              if (!mpisim::network_preset(value, config.network).has_value())
                return bad_value("comm_substrate", value, "mpisim|ncclsim");
              config.comm_substrate = std::string(value);
              return Status::success();
            },
            [](const Config& config) { return config.comm_substrate; }},
      DISTBC_U64_KEY("seed", "DISTBC_SEED", seed, "RNG seed"),
      DISTBC_U64_KEY("initial_samples", "DISTBC_INITIAL_SAMPLES",
                     initial_samples,
                     "calibration sample count (0 = automatic)"),
      DISTBC_DOUBLE_KEY("balancing", "DISTBC_BALANCING", balancing,
                        "calibration failure-budget floor fraction"),
      DISTBC_U64_KEY("exact_threshold", "DISTBC_EXACT_THRESHOLD",
                     exact_threshold,
                     "|V| at or below which betweenness runs exact Brandes"),
      DISTBC_POSITIVE_INT_KEY("service_pool_size", "DISTBC_SERVICE_POOL_SIZE",
                              service_pool_size,
                              "session replicas per pooled graph"),
      DISTBC_U64_KEY("service_queue_capacity", "DISTBC_SERVICE_QUEUE_CAPACITY",
                     service_queue_capacity,
                     "pending-query cap before typed rejection"),
      Entry{{"service_warm_store", "DISTBC_SERVICE_WARM_STORE",
             "warm-state store directory (empty = no persistence)"},
            [](Config& config, std::string_view value) {
              config.service_warm_store = std::string(value);
              return Status::success();
            },
            [](const Config& config) { return config.service_warm_store; }},
      DISTBC_U64_KEY("service_warm_store_max_entries",
                     "DISTBC_SERVICE_WARM_STORE_MAX_ENTRIES",
                     service_warm_store_max_entries,
                     "persisted warm states kept per version (0 = unbounded)"),
  };
  return table;
}

#undef DISTBC_U64_KEY
#undef DISTBC_BOOL_KEY
#undef DISTBC_DOUBLE_KEY
#undef DISTBC_POSITIVE_INT_KEY

}  // namespace

const std::vector<ConfigKey>& Config::keys() {
  static const std::vector<ConfigKey> infos = [] {
    std::vector<ConfigKey> out;
    out.reserve(entries().size());
    for (const Entry& entry : entries()) out.push_back(entry.info);
    return out;
  }();
  return infos;
}

Status Config::set(std::string_view key, std::string_view value) {
  for (const Entry& entry : entries()) {
    if (key == entry.info.key) return entry.apply(*this, value);
  }
  std::string message = "unknown config key '";
  message += key;
  message += "' (known:";
  for (const Entry& entry : entries()) {
    message += ' ';
    message += entry.info.key;
  }
  message += ")";
  return Status::error(std::move(message));
}

Status Config::load_text(std::string_view text) {
  std::size_t line_start = 0;
  while (line_start <= text.size()) {
    const std::size_t line_end = text.find('\n', line_start);
    std::string_view line = text.substr(
        line_start, line_end == std::string_view::npos ? std::string_view::npos
                                                       : line_end - line_start);
    line_start = line_end == std::string_view::npos ? text.size() + 1
                                                    : line_end + 1;
    const std::size_t comment = line.find('#');
    if (comment != std::string_view::npos) line = line.substr(0, comment);
    const auto trim = [](std::string_view s) {
      while (!s.empty() && (s.front() == ' ' || s.front() == '\t' ||
                            s.front() == '\r'))
        s.remove_prefix(1);
      while (!s.empty() &&
             (s.back() == ' ' || s.back() == '\t' || s.back() == '\r'))
        s.remove_suffix(1);
      return s;
    };
    line = trim(line);
    if (line.empty()) continue;
    const std::size_t eq = line.find('=');
    if (eq == std::string_view::npos) {
      std::string message = "malformed config line '";
      message += line;
      message += "' (expected key = value)";
      return Status::error(std::move(message));
    }
    const Status status =
        set(trim(line.substr(0, eq)), trim(line.substr(eq + 1)));
    if (!status.ok) return status;
  }
  return Status::success();
}

Status Config::load_env() {
  for (const Entry& entry : entries()) {
    // The one environment read of the whole library (see the file comment
    // in api/config.hpp).
    const char* value = std::getenv(entry.info.env);
    if (value == nullptr) continue;
    const Status status = entry.apply(*this, value);
    if (!status.ok) {
      Status wrapped = status;
      wrapped.message += " [from environment variable ";
      wrapped.message += entry.info.env;
      wrapped.message += "]";
      return wrapped;
    }
  }
  return Status::success();
}

Config Config::from_env() {
  Config config;
  const Status status = config.load_env();
  DISTBC_ASSERT_MSG(status.ok, status.message.c_str());
  return config;
}

Status Config::validate() const {
  if (ranks < 1) return Status::error("ranks must be >= 1");
  if (ranks_per_node < 1) return Status::error("ranks_per_node must be >= 1");
  if (threads < 1) return Status::error("threads must be >= 1");
  if (epoch_base == 0) return Status::error("epoch_base must be >= 1");
  if (!std::isfinite(epoch_exponent) || epoch_exponent < 0.0)
    return Status::error("epoch_exponent must be finite and >= 0");
  if (virtual_streams != 0 && !deterministic)
    return Status::error(
        "virtual_streams requires deterministic mode (mismatched runtime: "
        "free-running streams are the physical thread count)");
  if (!(balancing > 0.0) || balancing >= 1.0)
    return Status::error("balancing must be in (0, 1)");
  if (service_pool_size < 1)
    return Status::error("service_pool_size must be >= 1");
  if (service_queue_capacity == 0)
    return Status::error("service_queue_capacity must be >= 1");
  if (!mpisim::network_preset(comm_substrate, network).has_value())
    return Status::error("comm_substrate must be mpisim or ncclsim");
  return Status::success();
}

engine::EngineOptions Config::engine_options() const {
  engine::EngineOptions options;
  options.threads_per_rank = threads;
  options.aggregation = aggregation;
  options.hierarchical = hierarchical;
  options.epoch_base = epoch_base;
  options.epoch_exponent = epoch_exponent;
  options.max_epoch_length = max_epoch_length;
  options.max_epochs = max_epochs;
  options.deterministic = deterministic;
  options.virtual_streams = virtual_streams;
  return options;
}

std::string Config::serialize() const {
  std::string out;
  for (const Entry& entry : entries()) {
    out += entry.info.key;
    out += " = ";
    out += entry.read(*this);
    out += '\n';
  }
  return out;
}

}  // namespace distbc::api
