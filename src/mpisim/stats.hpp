// Communication accounting, the source of Table II's "communication volume
// per epoch" and the blocking-time shares in Figure 2b.
#pragma once

#include <atomic>
#include <cstdint>

namespace distbc::mpisim {

/// Plain copyable snapshot of the per-collective bytes-moved counters -
/// what engine results and bench JSON reports carry so payload volume can
/// be attributed to the path that moved it (elementwise reductions vs
/// merge reductions vs gathers vs broadcasts vs window/p2p traffic).
struct CommVolume {
  std::uint64_t reduce_bytes = 0;
  std::uint64_t reduce_merge_bytes = 0;
  std::uint64_t gatherv_bytes = 0;
  std::uint64_t bcast_bytes = 0;
  std::uint64_t p2p_bytes = 0;
  /// Reduction payload arriving *directly at the root rank*: every non-root
  /// contribution of a rooted reduction, merge or gather. A locality view
  /// of bytes already counted above, so it is excluded from
  /// aggregation_bytes()/total(). All-reduce flavors have no root and
  /// charge nothing here.
  std::uint64_t root_ingest_bytes = 0;
  /// Sum of the modeled completion costs charged to collectives on this
  /// communicator - the analytic aggregation critical path. A pure
  /// function of payload bytes and topology, so deterministic-mode runs
  /// report it machine-independently (the CI modeled_s anchors).
  std::uint64_t modeled_critical_ns = 0;

  [[nodiscard]] double modeled_seconds() const {
    return static_cast<double>(modeled_critical_ns) * 1e-9;
  }

  /// Bytes moved by the epoch-aggregation paths (elementwise reductions,
  /// wire-image merge reductions, and the window/p2p substrate the
  /// hierarchical pre-reduction rides) - the comm-volume bench's metric.
  [[nodiscard]] std::uint64_t aggregation_bytes() const {
    return reduce_bytes + reduce_merge_bytes + gatherv_bytes + p2p_bytes;
  }

  [[nodiscard]] std::uint64_t total() const {
    return aggregation_bytes() + bcast_bytes;
  }

  CommVolume& operator+=(const CommVolume& other) {
    reduce_bytes += other.reduce_bytes;
    reduce_merge_bytes += other.reduce_merge_bytes;
    gatherv_bytes += other.gatherv_bytes;
    bcast_bytes += other.bcast_bytes;
    p2p_bytes += other.p2p_bytes;
    root_ingest_bytes += other.root_ingest_bytes;
    modeled_critical_ns += other.modeled_critical_ns;
    return *this;
  }
};

/// Shared per-communicator counters; all ranks update them atomically.
struct CommStats {
  std::atomic<std::uint64_t> reduce_calls{0};
  std::atomic<std::uint64_t> reduce_merge_calls{0};
  std::atomic<std::uint64_t> gatherv_calls{0};
  std::atomic<std::uint64_t> barrier_calls{0};
  std::atomic<std::uint64_t> ibarrier_calls{0};
  std::atomic<std::uint64_t> bcast_calls{0};
  std::atomic<std::uint64_t> allreduce_calls{0};
  std::atomic<std::uint64_t> allreduce_merge_calls{0};
  std::atomic<std::uint64_t> p2p_messages{0};
  /// Payload bytes moved by reductions: buffer size x (participants - 1),
  /// i.e. every non-root contribution crosses the wire once.
  std::atomic<std::uint64_t> reduce_bytes{0};
  /// Non-root payload bytes of variable-length merge reductions (frame
  /// wire images) and gathers - the same crossing-the-wire convention.
  std::atomic<std::uint64_t> reduce_merge_bytes{0};
  std::atomic<std::uint64_t> gatherv_bytes{0};
  std::atomic<std::uint64_t> bcast_bytes{0};
  std::atomic<std::uint64_t> p2p_bytes{0};
  /// Reduction payload arriving directly at the root (see CommVolume).
  std::atomic<std::uint64_t> root_ingest_bytes{0};
  /// Modeled critical-path nanoseconds (see CommVolume).
  std::atomic<std::uint64_t> modeled_critical_ns{0};
  /// Wall time ranks spent blocked inside collectives - per-collective
  /// blocking-share telemetry for Figure 2b-style reporting and tooling.
  /// Only blocking calls (and blocking waits on requests) are charged;
  /// unsuccessful test() polls are not. Variable-length reductions and
  /// gathers charge reduce_wait_ns (they are the aggregation path).
  std::atomic<std::uint64_t> reduce_wait_ns{0};
  std::atomic<std::uint64_t> barrier_wait_ns{0};
  std::atomic<std::uint64_t> bcast_wait_ns{0};

  [[nodiscard]] CommVolume volume() const {
    CommVolume v;
    v.reduce_bytes = reduce_bytes.load(std::memory_order_relaxed);
    v.reduce_merge_bytes = reduce_merge_bytes.load(std::memory_order_relaxed);
    v.gatherv_bytes = gatherv_bytes.load(std::memory_order_relaxed);
    v.bcast_bytes = bcast_bytes.load(std::memory_order_relaxed);
    v.p2p_bytes = p2p_bytes.load(std::memory_order_relaxed);
    v.root_ingest_bytes = root_ingest_bytes.load(std::memory_order_relaxed);
    v.modeled_critical_ns =
        modeled_critical_ns.load(std::memory_order_relaxed);
    return v;
  }

  [[nodiscard]] std::uint64_t total_bytes() const { return volume().total(); }

  [[nodiscard]] double total_wait_seconds() const {
    return static_cast<double>(
               reduce_wait_ns.load(std::memory_order_relaxed) +
               barrier_wait_ns.load(std::memory_order_relaxed) +
               bcast_wait_ns.load(std::memory_order_relaxed)) *
           1e-9;
  }

  void reset() {
    reduce_calls = 0;
    reduce_merge_calls = 0;
    gatherv_calls = 0;
    barrier_calls = 0;
    ibarrier_calls = 0;
    bcast_calls = 0;
    allreduce_calls = 0;
    allreduce_merge_calls = 0;
    p2p_messages = 0;
    reduce_bytes = 0;
    reduce_merge_bytes = 0;
    gatherv_bytes = 0;
    bcast_bytes = 0;
    p2p_bytes = 0;
    root_ingest_bytes = 0;
    modeled_critical_ns = 0;
    reduce_wait_ns = 0;
    barrier_wait_ns = 0;
    bcast_wait_ns = 0;
  }
};

}  // namespace distbc::mpisim
