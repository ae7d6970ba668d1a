#include "service/warm_store.hpp"

#include <algorithm>
#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <string_view>
#include <unordered_map>

namespace distbc::service {

namespace {

constexpr std::uint64_t kFormatVersion = 1;

// --- Bit-exact scalar encoding ----------------------------------------------

std::string encode_double(double value) {
  char buffer[64];
  // C hexfloat: every double round-trips bit-exactly through strtod.
  std::snprintf(buffer, sizeof(buffer), "%a", value);
  return buffer;
}

[[nodiscard]] bool decode_double(std::string_view text, double& out) {
  if (text.empty()) return false;
  const std::string owned(text);
  char* end = nullptr;
  errno = 0;
  const double value = std::strtod(owned.c_str(), &end);
  if (errno != 0 || end != owned.c_str() + owned.size()) return false;
  out = value;
  return true;
}

[[nodiscard]] bool decode_u64(std::string_view text, std::uint64_t& out) {
  if (text.empty()) return false;
  const std::string owned(text);
  char* end = nullptr;
  errno = 0;
  const unsigned long long value = std::strtoull(owned.c_str(), &end, 0);
  if (errno != 0 || end != owned.c_str() + owned.size()) return false;
  out = value;
  return true;
}

[[nodiscard]] std::uint64_t double_bits(double value) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

// --- Key/value file helpers -------------------------------------------------

using Fields = std::unordered_map<std::string, std::string>;

[[nodiscard]] std::optional<Fields> read_fields(const std::string& path) {
  std::ifstream in(path);
  if (!in) return std::nullopt;
  Fields fields;
  std::string line;
  while (std::getline(in, line)) {
    const std::size_t comment = line.find('#');
    if (comment != std::string::npos) line.resize(comment);
    const std::size_t eq = line.find('=');
    if (eq == std::string::npos) continue;
    const auto trim = [](std::string_view s) {
      while (!s.empty() && (s.front() == ' ' || s.front() == '\t' ||
                            s.front() == '\r'))
        s.remove_prefix(1);
      while (!s.empty() &&
             (s.back() == ' ' || s.back() == '\t' || s.back() == '\r'))
        s.remove_suffix(1);
      return s;
    };
    fields[std::string(trim(std::string_view(line).substr(0, eq)))] =
        std::string(trim(std::string_view(line).substr(eq + 1)));
  }
  return fields;
}

[[nodiscard]] bool field_u64(const Fields& fields, const char* key,
                             std::uint64_t& out) {
  const auto it = fields.find(key);
  return it != fields.end() && decode_u64(it->second, out);
}

[[nodiscard]] bool field_double(const Fields& fields, const char* key,
                                double& out) {
  const auto it = fields.find(key);
  return it != fields.end() && decode_double(it->second, out);
}

[[nodiscard]] bool field_double_list(const Fields& fields, const char* key,
                                     std::size_t expected,
                                     std::vector<double>& out) {
  const auto it = fields.find(key);
  if (it == fields.end()) return false;
  // Every value takes at least one character plus a separator, so a count
  // the line cannot hold is damage - reject it before reserving for it.
  if (expected > (it->second.size() + 1) / 2) return false;
  out.clear();
  out.reserve(expected);
  std::istringstream stream(it->second);
  std::string token;
  while (stream >> token) {
    double value = 0.0;
    if (!decode_double(token, value)) return false;
    out.push_back(value);
  }
  return out.size() == expected;
}

[[nodiscard]] std::string hex16(std::uint64_t value) {
  char buffer[20];
  std::snprintf(buffer, sizeof(buffer), "%016" PRIx64, value);
  return buffer;
}

/// Parses one .warm file back into a state; nullptr on any damage.
[[nodiscard]] std::shared_ptr<const bc::KadabraWarmState> parse_state(
    const std::string& path, std::uint64_t expected_fingerprint) {
  const auto fields = read_fields(path);
  if (!fields.has_value()) return nullptr;

  std::uint64_t version = 0;
  if (!field_u64(*fields, "version", version) || version != kFormatVersion)
    return nullptr;

  auto state = std::make_shared<bc::KadabraWarmState>();
  std::uint64_t u64 = 0;
  if (!field_u64(*fields, "graph_fingerprint", state->graph_fingerprint) ||
      state->graph_fingerprint != expected_fingerprint)
    return nullptr;
  if (!field_u64(*fields, "ranks", u64)) return nullptr;
  state->ranks = static_cast<int>(u64);
  if (!field_u64(*fields, "threads_per_rank", u64)) return nullptr;
  state->threads_per_rank = static_cast<int>(u64);
  if (!field_u64(*fields, "deterministic", u64)) return nullptr;
  state->deterministic = u64 != 0;
  if (!field_u64(*fields, "virtual_streams", state->virtual_streams))
    return nullptr;

  bc::KadabraParams& params = state->context.params;
  if (!field_double(*fields, "epsilon", params.epsilon)) return nullptr;
  if (!field_double(*fields, "delta", params.delta)) return nullptr;
  // Files from before the diameter knob was retired: `= 1` (iFUB) is
  // today's calibration; `= 0` sized omega from the 2-approximation, a
  // calibration no query asks for any more.
  if (fields->contains("exact_diameter") &&
      (!field_u64(*fields, "exact_diameter", u64) || u64 == 0))
    return nullptr;
  if (!field_u64(*fields, "seed", params.seed)) return nullptr;
  if (!field_u64(*fields, "initial_samples", params.initial_samples))
    return nullptr;
  if (!field_double(*fields, "balancing", params.balancing)) return nullptr;

  if (!field_u64(*fields, "vertex_diameter", u64)) return nullptr;
  state->vertex_diameter = static_cast<std::uint32_t>(u64);
  state->context.vertex_diameter = state->vertex_diameter;
  if (!field_u64(*fields, "omega", state->context.omega)) return nullptr;
  if (!field_u64(*fields, "context_initial_samples",
                 state->context.initial_samples))
    return nullptr;
  if (!field_double(*fields, "predicted_tau",
                    state->context.calibration.predicted_tau))
    return nullptr;

  std::uint64_t num_vertices = 0;
  if (!field_u64(*fields, "num_vertices", num_vertices)) return nullptr;
  if (!field_double_list(*fields, "delta_l", num_vertices,
                         state->context.calibration.delta_l))
    return nullptr;
  if (!field_double_list(*fields, "delta_u", num_vertices,
                         state->context.calibration.delta_u))
    return nullptr;
  // Damaged shares still get logs here; Session::preload_calibration is
  // the one place that judges them.
  state->context.calibration.cache_logs();
  return state;
}

}  // namespace

WarmStore::WarmStore(std::string root, std::uint64_t max_entries,
                     std::uint64_t max_bytes)
    : root_(std::move(root)),
      max_entries_(max_entries),
      max_bytes_(max_bytes) {}

std::string WarmStore::version_dir() const { return root_ + "/v1"; }

std::uint64_t WarmStore::key_hash(const bc::KadabraWarmState& state) {
  std::uint64_t hash = 0xcbf29ce484222325ull;
  const auto mix = [&hash](std::uint64_t word) {
    for (int byte = 0; byte < 8; ++byte) {
      hash ^= (word >> (8 * byte)) & 0xffu;
      hash *= 0x100000001b3ull;
    }
  };
  const bc::KadabraParams& params = state.context.params;
  mix(double_bits(params.epsilon));
  mix(double_bits(params.delta));
  mix(params.seed);
  mix(1);  // the retired exact_diameter flag, kept so file names stay valid
  mix(params.initial_samples);
  mix(double_bits(params.balancing));
  mix(static_cast<std::uint64_t>(state.ranks));
  mix(static_cast<std::uint64_t>(state.threads_per_rank));
  mix(state.deterministic ? 1 : 0);
  mix(state.virtual_streams);
  return hash;
}

std::string WarmStore::state_path(const bc::KadabraWarmState& state) const {
  if (!enabled() || state.graph_fingerprint == 0 || state.ranks == 0)
    return {};
  return version_dir() + "/bc_" + hex16(state.graph_fingerprint) + "_" +
         hex16(key_hash(state)) + ".warm";
}

bool WarmStore::save(const bc::KadabraWarmState& state) const {
  const std::string path = state_path(state);
  if (path.empty()) return false;  // disabled or no provenance

  std::error_code ec;
  std::filesystem::create_directories(version_dir(), ec);
  if (ec) return false;

  std::ostringstream out;
  out << "# distbc service warm state (bit-exact hexfloat doubles)\n";
  out << "version = " << kFormatVersion << '\n';
  out << "graph_fingerprint = 0x" << hex16(state.graph_fingerprint) << '\n';
  out << "ranks = " << state.ranks << '\n';
  out << "threads_per_rank = " << state.threads_per_rank << '\n';
  out << "deterministic = " << (state.deterministic ? 1 : 0) << '\n';
  out << "virtual_streams = " << state.virtual_streams << '\n';
  const bc::KadabraParams& params = state.context.params;
  out << "epsilon = " << encode_double(params.epsilon) << '\n';
  out << "delta = " << encode_double(params.delta) << '\n';
  out << "seed = " << params.seed << '\n';
  out << "initial_samples = " << params.initial_samples << '\n';
  out << "balancing = " << encode_double(params.balancing) << '\n';
  out << "vertex_diameter = " << state.vertex_diameter << '\n';
  out << "omega = " << state.context.omega << '\n';
  out << "context_initial_samples = " << state.context.initial_samples << '\n';
  out << "predicted_tau = "
      << encode_double(state.context.calibration.predicted_tau) << '\n';
  const std::vector<double>& delta_l = state.context.calibration.delta_l;
  const std::vector<double>& delta_u = state.context.calibration.delta_u;
  out << "num_vertices = " << delta_l.size() << '\n';
  out << "delta_l =";
  for (const double value : delta_l) out << ' ' << encode_double(value);
  out << '\n';
  out << "delta_u =";
  for (const double value : delta_u) out << ' ' << encode_double(value);
  out << '\n';

  std::ofstream file(path);
  if (!file) return false;
  file << out.str();
  if (!file) return false;
  file.close();
  evict();
  return true;
}

void WarmStore::evict() const {
  if (max_entries_ == 0 && max_bytes_ == 0) return;

  struct Stored {
    std::filesystem::file_time_type mtime;
    std::string path;
    std::uint64_t bytes = 0;
  };
  std::error_code ec;
  std::filesystem::directory_iterator it(version_dir(), ec);
  if (ec) return;
  std::vector<Stored> stored;
  std::uint64_t total_bytes = 0;
  for (const auto& entry : it) {
    if (!entry.is_regular_file(ec)) continue;
    const std::string name = entry.path().filename().string();
    if (name.rfind("bc_", 0) != 0) continue;
    if (name.size() < 5 || name.substr(name.size() - 5) != ".warm") continue;
    Stored file{entry.last_write_time(ec), entry.path().string(),
                entry.file_size(ec)};
    if (ec) continue;
    total_bytes += file.bytes;
    stored.push_back(std::move(file));
  }
  // Oldest writes go first; path breaks mtime ties so the pass is
  // deterministic on coarse-granularity filesystems.
  std::sort(stored.begin(), stored.end(), [](const Stored& a,
                                             const Stored& b) {
    return a.mtime != b.mtime ? a.mtime < b.mtime : a.path < b.path;
  });
  std::size_t remaining = stored.size();
  for (const Stored& file : stored) {
    const bool over_count = max_entries_ != 0 && remaining > max_entries_;
    const bool over_bytes = max_bytes_ != 0 && total_bytes > max_bytes_;
    if (!over_count && !over_bytes) break;
    if (std::filesystem::remove(file.path, ec); ec) continue;
    --remaining;
    total_bytes -= file.bytes;
  }
}

std::vector<std::shared_ptr<const bc::KadabraWarmState>> WarmStore::load_all(
    std::uint64_t graph_fingerprint) const {
  std::vector<std::shared_ptr<const bc::KadabraWarmState>> states;
  if (!enabled() || graph_fingerprint == 0) return states;

  std::error_code ec;
  std::filesystem::directory_iterator it(version_dir(), ec);
  if (ec) return states;  // store never written yet

  const std::string prefix = "bc_" + hex16(graph_fingerprint) + "_";
  std::vector<std::string> paths;
  for (const auto& entry : it) {
    if (!entry.is_regular_file(ec)) continue;
    const std::string name = entry.path().filename().string();
    if (name.rfind(prefix, 0) != 0) continue;
    if (name.size() < 5 || name.substr(name.size() - 5) != ".warm") continue;
    paths.push_back(entry.path().string());
  }
  // Deterministic load order regardless of directory enumeration order.
  std::sort(paths.begin(), paths.end());
  for (const std::string& path : paths) {
    auto state = parse_state(path, graph_fingerprint);
    if (state != nullptr) states.push_back(std::move(state));
  }
  return states;
}

}  // namespace distbc::service
