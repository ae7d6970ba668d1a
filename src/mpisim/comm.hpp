// Simulated MPI communicator.
//
// mpisim substitutes for an MPI library on a cluster (none is available in
// this environment): ranks are threads inside one process, and every data
// exchange goes through explicit slot-based collectives with an interconnect
// cost model (see network.hpp). Comm is the byte-level plane of the MPI
// subset the paper's algorithm needs - Reduce / Ireduce / Ibarrier / Bcast /
// Ibcast / communicator split / an RMA window - plus the all-reduce family
// (allreduce / allreduce_merge, priced as recursive-halving/doubling
// butterflies) that decentralized termination rides. The typed surface over it, with the per-collective contracts
// (eager sends, ticket matching, merge-callable lifetimes), is
// comm::Substrate (comm/substrate.hpp).
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "mpisim/network.hpp"
#include "mpisim/stats.hpp"
#include "support/assert.hpp"

namespace distbc::mpisim {

enum class ReduceOp : std::uint8_t { kSum, kMin, kMax };

namespace detail {

using Clock = std::chrono::steady_clock;
using CombineFn = void (*)(void* acc, const void* in, std::size_t count);

template <typename T, ReduceOp Op>
void combine_impl(void* acc_void, const void* in_void, std::size_t count) {
  T* acc = static_cast<T*>(acc_void);
  const T* in = static_cast<const T*>(in_void);
  for (std::size_t i = 0; i < count; ++i) {
    if constexpr (Op == ReduceOp::kSum) {
      acc[i] += in[i];
    } else if constexpr (Op == ReduceOp::kMin) {
      acc[i] = in[i] < acc[i] ? in[i] : acc[i];
    } else {
      acc[i] = in[i] > acc[i] ? in[i] : acc[i];
    }
  }
}

template <typename T>
CombineFn combine_fn(ReduceOp op) {
  switch (op) {
    case ReduceOp::kSum:
      return &combine_impl<T, ReduceOp::kSum>;
    case ReduceOp::kMin:
      return &combine_impl<T, ReduceOp::kMin>;
    case ReduceOp::kMax:
      return &combine_impl<T, ReduceOp::kMax>;
  }
  return nullptr;
}

enum class SlotKind : std::uint8_t { kBarrier, kReduce, kReduceMerge,
                                     kTreeMerge, kGatherv, kBcast,
                                     kAllreduce, kAllreduceMerge, kSplit,
                                     kWindow };

/// Root-side consumer of one variable-length contribution:
/// (source rank, payload pointer, payload bytes).
using MergeBytesFn =
    std::function<void(int, const std::byte*, std::size_t)>;

/// Interior-hop combiner of a tree merge: additively folds one upward
/// image into the accumulator, re-encoding in place (e.g. sparse merge
/// join with mid-tree densification).
using CombineImagesFn =
    std::function<void(std::vector<std::byte>&, const std::byte*,
                       std::size_t)>;

struct Slot {
  SlotKind kind{};
  int arrived = 0;
  int departed = 0;
  bool all_arrived = false;
  bool action_done = false;  // root combine / payload availability
  Clock::time_point ready_time{};
  std::vector<Clock::time_point> rank_ready;  // per-rank completion deadline

  // Reduce state.
  std::size_t bytes = 0;
  std::size_t count = 0;
  CombineFn combine = nullptr;
  int root = -1;
  bool nonblocking = false;  // Ireduce: §IV-F progression penalty applies
  std::vector<std::vector<std::byte>> contribs;
  std::byte* root_recv = nullptr;

  // Bcast payload (copied from the root).
  std::vector<std::byte> payload;

  // Variable-length merge state (kReduceMerge / kGatherv / kTreeMerge):
  // the root's per-contribution consumer, run at completion.
  MergeBytesFn merge;

  // Decentralized merge state (kAllreduceMerge): every rank's own
  // consumer, replaying all contributions in rank order at that rank's
  // completion (contributions outlive every consumer: the slot is erased
  // only once all ranks departed).
  std::vector<MergeBytesFn> rank_merge;

  // Tree-merge state (kTreeMerge): fan-in, the interior-hop combiner
  // (taken from the first posting rank; all ranks must pass equivalent
  // callables), and the merged top-of-tree images awaiting the root.
  int radix = 0;
  CombineImagesFn combine_images;
  std::vector<std::pair<int, std::vector<std::byte>>> root_inbox;

  // Deferred tree-merge schedule (kTreeMerge): contributions in
  // heap-position order, per-position completion clocks relative to
  // tree_start (the last arrival), and a descending cursor over the
  // positions still to process (children before parents). Interior
  // combines run in advance_tree as their modeled due times pass - any
  // rank's poll makes progress, overlapping combines with the caller's
  // sampling - instead of all at once inside the last-arrival critical
  // section; tree_priced flips once the root deadline is known.
  std::vector<std::vector<std::byte>> tree_up;
  std::vector<std::chrono::nanoseconds> tree_finish;
  Clock::time_point tree_start{};
  int tree_cursor = 0;
  bool tree_scheduled = false;
  bool tree_priced = false;

  // Split state.
  std::vector<std::pair<int, int>> color_key;  // per-rank (color, key)
  std::map<int, std::shared_ptr<struct CommState>> children;

  // Window creation state.
  std::shared_ptr<void> window;
};

/// Backing storage of an RMA-style shared window (paper §IV-E: passive
/// target one-sided communication over node-local shared memory).
struct WindowState {
  std::mutex mu;
  std::vector<std::byte> data;
  /// Touched-slot tracking for windowed sparse read-back (one bit per
  /// element slot, maintained by comm::Window<T>): scatter-accumulates set
  /// bits; a full-span accumulate sets dense_touched instead (the union is
  /// the whole window, so leaders fall back to the dense read).
  std::vector<std::uint64_t> touched_bits;
  bool dense_touched = false;
};

struct CommState {
  CommState(std::vector<int> node_of_rank_in, NetworkModel model_in);

  [[nodiscard]] int size() const {
    return static_cast<int>(node_of_rank.size());
  }

  std::mutex mu;
  std::condition_variable cv;
  std::map<std::uint64_t, Slot> slots;

  std::vector<int> node_of_rank;
  int num_nodes = 1;
  int max_ranks_per_node = 1;
  NetworkModel model;
  CommStats stats;
};

}  // namespace detail

class Comm;

/// Handle for a pending non-blocking operation. Copyable; all copies refer
/// to the same pending operation.
class Request {
 public:
  Request() = default;

  /// Polls for completion; performs the completion action (root combine,
  /// bcast copy-out) exactly once. Idempotent after success.
  bool test();

  /// Blocks until the operation completes.
  void wait();

  [[nodiscard]] bool valid() const { return impl_ != nullptr; }

  /// Implementation detail (public so the out-of-line pollers can name it;
  /// not part of the user API).
  struct Impl {
    std::shared_ptr<detail::CommState> state;
    std::uint64_t ticket = 0;
    int rank = -1;
    std::byte* recv = nullptr;  // bcast / all-reduce destination, if any
    bool done = false;
  };

 private:
  friend class Comm;
  explicit Request(std::shared_ptr<Impl> impl) : impl_(std::move(impl)) {}
  std::shared_ptr<Impl> impl_;
};

/// Sentinel color for split(): the calling rank joins no child communicator.
inline constexpr int kUndefinedColor = -1;

class Comm {
 public:
  Comm() = default;  // invalid communicator (e.g. split with undefined color)

  [[nodiscard]] bool valid() const { return state_ != nullptr; }
  [[nodiscard]] int rank() const { return rank_; }
  [[nodiscard]] int size() const { return state_->size(); }
  [[nodiscard]] int node() const { return state_->node_of_rank[rank_]; }
  [[nodiscard]] int num_nodes() const { return state_->num_nodes; }
  /// Largest number of ranks sharing one node - the cluster-shape fact
  /// collective cost charging is based on.
  [[nodiscard]] int max_ranks_per_node() const {
    return state_->max_ranks_per_node;
  }

  // --- Collectives -------------------------------------------------------

  void barrier();
  [[nodiscard]] Request ibarrier();

  // --- Topology ----------------------------------------------------------

  /// Splits into child communicators by color, ranked by (key, old rank).
  /// Ranks passing kUndefinedColor receive an invalid Comm.
  [[nodiscard]] Comm split(int color, int key);

  /// Child communicator of all ranks on this rank's node (paper §IV-E).
  [[nodiscard]] Comm split_by_node();

  /// Child communicator of the first rank of each node (the paper's global
  /// communicator for the inter-node reduction); other ranks get an
  /// invalid Comm.
  [[nodiscard]] Comm split_node_leaders();

  [[nodiscard]] CommStats& stats() { return state_->stats; }
  [[nodiscard]] const NetworkModel& network() const { return state_->model; }

  /// Collective: creates (or attaches to) a shared window of `bytes` zeroed
  /// bytes. All ranks receive the same state. Used by comm::Window<T>.
  [[nodiscard]] std::shared_ptr<detail::WindowState> window_collective(
      std::size_t bytes);

  // Byte-level data plane: comm::Substrate's typed methods erase types
  // once and call these; the slot protocol behind them carries the
  // deterministic rank-order merge replay.
  void mergev_bytes_impl(detail::SlotKind kind, const std::byte* send,
                         std::size_t bytes, detail::MergeBytesFn merge,
                         int root);
  void tree_bytes_impl(const std::byte* send, std::size_t bytes,
                       detail::CombineImagesFn combine,
                       detail::MergeBytesFn merge, int root, int radix);
  Request itree_bytes_impl(const std::byte* send, std::size_t bytes,
                           detail::CombineImagesFn combine,
                           detail::MergeBytesFn merge, int root, int radix);

  void reduce_bytes_impl(const std::byte* send, std::size_t bytes,
                         std::size_t count, std::byte* recv,
                         detail::CombineFn combine, int root);
  void allreduce_bytes_impl(const std::byte* send, std::size_t bytes,
                            std::size_t count, std::byte* recv,
                            detail::CombineFn combine);
  void allmerge_bytes_impl(const std::byte* send, std::size_t bytes,
                           detail::MergeBytesFn merge);
  Request iallmerge_bytes_impl(const std::byte* send, std::size_t bytes,
                               detail::MergeBytesFn merge);
  void bcast_bytes_impl(std::byte* buffer, std::size_t bytes, int root);
  Request ibcast_bytes_impl(std::byte* buffer, std::size_t bytes, int root);

 private:
  friend class Runtime;

  Comm(std::shared_ptr<detail::CommState> state, int rank)
      : state_(std::move(state)), rank_(rank) {}

  std::uint64_t next_ticket() { return ticket_++; }

  /// A Request handle for a freshly posted non-blocking slot. `recv` is
  /// the completion destination of an ibcast (null for the reduction
  /// flavors, whose destination lives in the slot or the merge consumer).
  [[nodiscard]] Request make_request(std::uint64_t ticket,
                                     std::byte* recv = nullptr);

  std::shared_ptr<detail::CommState> state_;
  int rank_ = -1;
  std::uint64_t ticket_ = 0;
};

}  // namespace distbc::mpisim
