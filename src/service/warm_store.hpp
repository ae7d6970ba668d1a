// service::WarmStore - persistent on-disk store of KADABRA warm state, so
// a service restart pays zero recalibration.
//
// Layout (everything under one root directory, versioned so a format
// change never misreads old files - unknown versions are skipped, not
// errors):
//
//   <root>/v1/bc_<graph_fp>_<key_hash>.warm     one KadabraWarmState
//
// <graph_fp> is graph::fingerprint (16 hex digits); <key_hash> hashes the
// statistical parameters AND the cluster shape the state was calibrated
// on, so the same graph stores one file per (params, shape) combination
// and a shape change naturally misses instead of loading a stale state.
// Keys a reader does not know are ignored, so files that still carry the
// retired `sample_seconds` / `touched_words_per_sample` lines load as
// before. The retired `exact_diameter` line is read once more: `= 1`
// loads as today's calibration, `= 0` (a 2-approximate omega) loads
// nothing.
//
// Files are plain "key = value" text; doubles are written as C hexfloats
// ("%a") so every bit round-trips and a reloaded calibration is the
// calibration that was saved - bitwise, which is what lets a warm-started
// deterministic run reproduce the original run exactly.
//
// Saving requires provenance (KadabraWarmState::graph_fingerprint and
// ranks populated by a fresh calibration); states without it are refused
// rather than stored unverifiable. Loading validates internal consistency
// (vector sizes, fingerprint match with the file name) and skips - never
// aborts or throws on - damaged or foreign files. WarmStore itself is stateless
// between calls and safe to share across threads for reads; concurrent
// saves of the same key last-write-win (the content is identical by
// construction).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bc/kadabra.hpp"

namespace distbc::service {

class WarmStore {
 public:
  /// Binds the store to `root` (created on first save). An empty root
  /// disables the store: saves report false, loads report nothing.
  /// `max_entries` / `max_bytes` cap the persisted .warm files per version
  /// directory (0 = unbounded); every successful save evicts
  /// oldest-by-mtime files until both caps hold again, so the store is a
  /// bounded LRU-by-write of calibrations instead of growing forever.
  explicit WarmStore(std::string root, std::uint64_t max_entries = 0,
                     std::uint64_t max_bytes = 0);

  [[nodiscard]] bool enabled() const { return !root_.empty(); }
  [[nodiscard]] const std::string& root() const { return root_; }
  [[nodiscard]] std::uint64_t max_entries() const { return max_entries_; }
  [[nodiscard]] std::uint64_t max_bytes() const { return max_bytes_; }

  /// Persists one warm state. Returns false when the store is disabled,
  /// the state lacks provenance, or the write fails. A successful save
  /// runs the eviction pass (see the constructor).
  [[nodiscard]] bool save(const bc::KadabraWarmState& state) const;

  /// Loads every stored state of `graph_fingerprint`, any shape and any
  /// parameters - the caller (SessionPool via Session::preload_calibration)
  /// validates shape compatibility per state. Damaged files are skipped.
  [[nodiscard]] std::vector<std::shared_ptr<const bc::KadabraWarmState>>
  load_all(std::uint64_t graph_fingerprint) const;

  /// The hash the .warm file name carries: statistical parameters + the
  /// calibrated cluster shape. Exposed for tests.
  [[nodiscard]] static std::uint64_t key_hash(const bc::KadabraWarmState& state);

  /// Full path a state would be stored at (empty when disabled/no
  /// provenance). Exposed for tests.
  [[nodiscard]] std::string state_path(const bc::KadabraWarmState& state) const;

 private:
  [[nodiscard]] std::string version_dir() const;
  void evict() const;

  std::string root_;
  std::uint64_t max_entries_ = 0;
  std::uint64_t max_bytes_ = 0;
};

}  // namespace distbc::service
