// Sampling-stream bookkeeping for the epoch engine.
//
// Every adaptive run draws from V independent RNG streams. In the default
// free-running mode V equals the number of physical threads (P ranks x T
// threads) and stream v is simply global thread v, exactly the paper's
// setup. In deterministic mode V is fixed independently of the physical
// layout ("virtual streams"): stream v is owned by physical thread
// v mod PT, and every stream contributes an exact per-epoch share. Because
// frames aggregate by commutative elementwise sums, the per-epoch aggregate
// is then a pure function of (seed, V, epoch schedule) - the same bits no
// matter how the streams are distributed over ranks and threads. This is
// what makes seq / shm / mpi runs cross-reproducible.
//
// The epoch-length rule (paper §IV-D) also lives here: the *total* number
// of samples per epoch across all streams is n0 = base * V^exponent; the
// superlinear exponent grows epochs slightly as the machine grows,
// amortizing the growing aggregation cost.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>

#include "support/assert.hpp"

namespace distbc::engine {

/// Total samples per epoch across all streams: ceil(base * streams^exp),
/// saturating at the uint64 maximum (a huge finite exponent overflows the
/// double range, and casting that to an integer is undefined).
[[nodiscard]] inline std::uint64_t epoch_length(std::uint64_t base,
                                                double exponent,
                                                std::uint64_t streams) {
  DISTBC_ASSERT(base > 0 && streams > 0);
  DISTBC_ASSERT(std::isfinite(exponent) && exponent >= 0.0);
  const double total =
      std::ceil(static_cast<double>(base) *
                std::pow(static_cast<double>(streams), exponent));
  constexpr double kTwoTo64 = 18446744073709551616.0;
  return total >= kTwoTo64 ? std::numeric_limits<std::uint64_t>::max()
                           : static_cast<std::uint64_t>(total);
}

/// Overflow-free ceil(total / parts) for parts > 0.
[[nodiscard]] inline std::uint64_t ceil_div(std::uint64_t total,
                                            std::uint64_t parts) {
  return total / parts + (total % parts != 0 ? 1 : 0);
}

/// Exact share of stream `v` when `total` samples are split over `streams`
/// streams: the remainder goes to the lowest-numbered streams.
[[nodiscard]] inline std::uint64_t stream_share(std::uint64_t total,
                                                std::uint64_t v,
                                                std::uint64_t streams) {
  DISTBC_ASSERT(v < streams);
  return total / streams + (v < total % streams ? 1 : 0);
}

/// Global index of the physical thread that owns stream `v`.
[[nodiscard]] inline std::uint64_t stream_owner(std::uint64_t v,
                                                std::uint64_t total_threads) {
  return v % total_threads;
}

/// First-stop-check pacing: THE one implementation of the epoch-length
/// clamp every adaptive driver applies before calling run_epochs.
///
/// An adaptive rule gets no stopping check until the first epoch ends, so
/// the total epoch length must stay a fraction of the workload's
/// worst-case useful-sample budget (KADABRA's omega, closeness's Hoeffding
/// bound) or easy instances sample far past termination before the first
/// check. The cap is max(min_epoch_length, budget / budget_fraction),
/// combined with any cap already present (0 = none; the smaller wins).
/// Each driver calls it with its own knobs (KadabraOptions::omega_fraction
/// and min_epoch_length for betweenness).
[[nodiscard]] inline std::uint64_t paced_epoch_cap(
    std::uint64_t budget, std::uint64_t budget_fraction,
    std::uint64_t min_epoch_length, std::uint64_t existing_cap) {
  DISTBC_ASSERT(budget_fraction > 0);
  const std::uint64_t clamp =
      std::max(min_epoch_length,
               std::max<std::uint64_t>(1, budget / budget_fraction));
  return existing_cap != 0 ? std::min(existing_cap, clamp) : clamp;
}

}  // namespace distbc::engine
