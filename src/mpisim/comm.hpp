// Simulated MPI communicator.
//
// mpisim substitutes for an MPI library on a cluster (none is available in
// this environment): ranks are threads inside one process, and every data
// exchange goes through explicit slot-based collectives with an interconnect
// cost model (see network.hpp). Comm is the one typed communicator of the
// MPI subset the paper's algorithm needs: Reduce / Allreduce / Bcast /
// Ibcast / Barrier / Ibarrier, the variable-length merge family (the rooted
// merge and the decentralized all-merge, the latter blocking or
// non-blocking), Gatherv, communicator split and an RMA window (Window<T>).
// Its templates erase the element type once and land on a private
// byte-level slot plane (comm.cpp).
//
// There is one data plane. The network profile (api::Config key
// `comm_substrate`, resolved by network_preset) only chooses the
// NetworkModel the runtime charges, so deterministic scores and byte
// counters are the same under every profile - only the modeled clock and
// overlap behavior differ (bench/commbench_matrix.cpp sweeps both).
//
// Semantics shared by every collective:
//  * All ranks of the communicator call collectives in the same order
//    (standard MPI requirement); slots are matched by the handle's call
//    counter, so all of a rank's traffic must flow through one handle.
//    Comm is move-only, so a rank cannot hold two counters.
//  * Sends are eager: the contribution is copied into the slot at post
//    time, so the caller may reuse its send buffer as soon as the call
//    returns, and a non-root's non-blocking request completes after its
//    own modeled injection cost.
//  * The root's completion time is the last arrival plus a modeled
//    collective cost; blocking calls wait until then, non-blocking
//    requests report done only once the deadline passed, so
//    communication/computation overlap behaves as on a real network.
#pragma once

#include <algorithm>
#include <bit>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <type_traits>
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
                                     kGatherv, kBcast, kAllreduce,
                                     kAllreduceMerge, kSplit, kWindow };

/// Root-side consumer of one variable-length contribution:
/// (source rank, payload pointer, payload bytes).
using MergeBytesFn =
    std::function<void(int, const std::byte*, std::size_t)>;

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
  // iallreduce_merge (ibcast posts no reduction slot): the §IV-F
  // progression penalty and poll tax apply.
  bool nonblocking = false;
  std::vector<std::vector<std::byte>> contribs;
  std::byte* root_recv = nullptr;

  // Bcast payload (copied from the root).
  std::vector<std::byte> payload;

  // Variable-length merge state (kReduceMerge / kGatherv):
  // the root's per-contribution consumer, run at completion.
  MergeBytesFn merge;

  // Decentralized merge state (kAllreduceMerge): every rank's own
  // consumer, replaying all contributions in rank order at that rank's
  // completion (contributions outlive every consumer: the slot is erased
  // only once all ranks departed).
  std::vector<MergeBytesFn> rank_merge;

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
  /// element slot, maintained by Window<T>): scatter-accumulates set
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

template <typename T>
class Window;

/// One rank's handle on a communicator; move-only, since it carries the
/// call counter that matches slots across ranks (see the header).
class Comm {
 public:
  Comm() = default;  // invalid communicator (e.g. split with undefined color)
  Comm(Comm&&) noexcept = default;
  Comm& operator=(Comm&&) noexcept = default;
  Comm(const Comm&) = delete;
  Comm& operator=(const Comm&) = delete;

  // --- Identity ----------------------------------------------------------

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

  [[nodiscard]] CommStats& stats() { return state_->stats; }
  [[nodiscard]] const NetworkModel& network() const { return state_->model; }

  // --- Topology ----------------------------------------------------------

  /// Splits into child communicators by color, ranked by (key, old rank).
  /// Ranks passing kUndefinedColor receive an invalid Comm.
  [[nodiscard]] Comm split(int color, int key);

  /// Child communicator of all ranks on this rank's node (paper §IV-E).
  /// Always valid.
  [[nodiscard]] Comm split_by_node();

  /// Child communicator of the first rank of each node (the paper's global
  /// communicator for the inter-node reduction); other ranks get an
  /// invalid Comm.
  [[nodiscard]] Comm split_node_leaders();

  // --- Fixed-size collectives --------------------------------------------

  void barrier();
  [[nodiscard]] Request ibarrier();

  template <typename T>
  void reduce(std::span<const T> send, std::span<T> recv, int root,
              ReduceOp op = ReduceOp::kSum) {
    DISTBC_ASSERT(rank() != root || recv.size() == send.size());
    reduce_bytes_impl(as_bytes(send.data()), send.size() * sizeof(T),
                      send.size(), as_bytes_mut(recv.data()),
                      detail::combine_fn<T>(op), root);
  }

  /// All-reduce: every rank receives the full reduction. One collective,
  /// priced as a recursive-halving reduce-scatter followed by a
  /// recursive-doubling all-gather (butterfly alpha-beta accounting) -
  /// no root hotspot, so nothing lands in root_ingest_bytes. The shared
  /// reduction combines contributions in rank order, so the result is
  /// bitwise identical on every rank to a reduce-to-rank-0 + broadcast.
  template <typename T>
  void allreduce(std::span<const T> send, std::span<T> recv,
                 ReduceOp op = ReduceOp::kSum) {
    DISTBC_ASSERT(recv.size() == send.size());
    allreduce_bytes_impl(as_bytes(send.data()), send.size() * sizeof(T),
                         send.size(), as_bytes_mut(recv.data()),
                         detail::combine_fn<T>(op));
  }

  template <typename T>
  void bcast(std::span<T> buffer, int root) {
    bcast_bytes_impl(as_bytes_mut(buffer.data()), buffer.size() * sizeof(T),
                     root);
  }

  template <typename T>
  [[nodiscard]] Request ibcast(std::span<T> buffer, int root) {
    return ibcast_bytes_impl(as_bytes_mut(buffer.data()),
                             buffer.size() * sizeof(T), root);
  }

  // --- Variable-length collectives (frame wire images) -------------------
  //
  // Unlike the fixed-size collectives above, every rank may contribute a
  // different element count. The root's completion deadline is the last
  // arrival plus the alpha-beta tree cost charged at the *largest*
  // contribution (the reduction tree's critical path carries the biggest
  // payload; with auto-densifying images, merged payloads never exceed the
  // dense frame, bounding union growth). Non-root
  // bytes are accounted per path (CommStats::reduce_merge_bytes /
  // gatherv_bytes).

  /// Merge reduction: `merge(src_rank, payload)` is invoked at the
  /// root exactly once per rank, in rank order, when the reduction
  /// completes inside the call. `merge` runs under the communicator lock
  /// and must not call back into the communicator. Non-roots may pass any
  /// callable; it is ignored.
  template <typename T, typename MergeFn>
  void reduce_merge(std::span<const T> send, MergeFn&& merge, int root) {
    mergev_bytes_impl(detail::SlotKind::kReduceMerge, as_bytes(send.data()),
                      send.size() * sizeof(T),
                      erase_merge<T>(std::forward<MergeFn>(merge), root),
                      root);
  }

  /// Decentralized merge reduction: like reduce_merge, but EVERY rank
  /// supplies its own `merge(src_rank, payload)` consumer, and each
  /// rank's consumer replays all size() contributions in rank order at
  /// that rank's own completion - identical inputs in identical order, so
  /// every rank reconstructs the root-side aggregate bitwise. Priced as
  /// an all-reduce butterfly at the largest contribution; there is no
  /// root, so nothing lands in root_ingest_bytes (the decentralized
  /// termination path this exists for). Consumers run outside the
  /// communicator lock, side by side with the other ranks' replays: each
  /// may touch only its own rank's state and must not call back into the
  /// communicator.
  template <typename T, typename MergeFn>
  void allreduce_merge(std::span<const T> send, MergeFn&& merge) {
    allmerge_bytes_impl(as_bytes(send.data()), send.size() * sizeof(T),
                        erase_merge_all<T>(std::forward<MergeFn>(merge)));
  }

  /// Non-blocking decentralized merge; every rank completes once the
  /// butterfly's modeled deadline passes (§IV-F progression penalty, and
  /// every rank pays the poll tax - all of them progress the butterfly). The consumer
  /// must own its state (capture by value): it runs at this rank's
  /// completing test()/wait(), which other ranks' polls may precede.
  template <typename T, typename MergeFn>
  [[nodiscard]] Request iallreduce_merge(std::span<const T> send,
                                         MergeFn&& merge) {
    return iallmerge_bytes_impl(
        as_bytes(send.data()), send.size() * sizeof(T),
        erase_merge_all<T>(std::forward<MergeFn>(merge)));
  }

  /// Variable-length gather: at the root, `recv` is resized to size() and
  /// recv[r] receives rank r's contribution; untouched at non-roots.
  template <typename T>
  void gatherv(std::span<const T> send, std::vector<std::vector<T>>& recv,
               int root) {
    mergev_bytes_impl(detail::SlotKind::kGatherv, as_bytes(send.data()),
                      send.size() * sizeof(T), erase_gather<T>(recv, root),
                      root);
  }

 private:
  friend class Runtime;
  template <typename T>
  friend class Window;

  Comm(std::shared_ptr<detail::CommState> state, int rank)
      : state_(std::move(state)), rank_(rank) {}

  std::uint64_t next_ticket() { return ticket_++; }

  /// A Request handle for a freshly posted non-blocking slot. `recv` is
  /// the completion destination of an ibcast (null for the reduction
  /// flavors, whose destination lives in the slot or the merge consumer).
  [[nodiscard]] Request make_request(std::uint64_t ticket,
                                     std::byte* recv = nullptr);

  /// Collective: creates (or attaches to) a shared window of `bytes` zeroed
  /// bytes. All ranks receive the same state. Used by Window<T>.
  [[nodiscard]] std::shared_ptr<detail::WindowState> window_collective(
      std::size_t bytes);

  // Byte-level data plane: the typed templates above erase types once and
  // call these; the slot protocol behind them carries the deterministic
  // rank-order merge replay.
  void mergev_bytes_impl(detail::SlotKind kind, const std::byte* send,
                         std::size_t bytes, detail::MergeBytesFn merge,
                         int root);

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

  static const std::byte* as_bytes(const void* p) {
    return static_cast<const std::byte*>(p);
  }
  static std::byte* as_bytes_mut(void* p) {
    return static_cast<std::byte*>(p);
  }

  /// Wraps a typed merge callable as the byte-level consumer stored in the
  /// slot; non-roots carry an empty function (their callable is ignored).
  template <typename T, typename MergeFn>
  detail::MergeBytesFn erase_merge(MergeFn&& merge, int root) {
    if (rank() != root) return {};
    return erase_merge_all<T>(std::forward<MergeFn>(merge));
  }

  /// Like erase_merge, but every rank keeps its callable (the
  /// decentralized merge has a consumer per rank, not per root).
  template <typename T, typename MergeFn>
  detail::MergeBytesFn erase_merge_all(MergeFn&& merge) {
    return [m = std::forward<MergeFn>(merge)](int src, const std::byte* data,
                                              std::size_t bytes) mutable {
      m(src, std::span<const T>(reinterpret_cast<const T*>(data),
                                bytes / sizeof(T)));
    };
  }

  template <typename T>
  detail::MergeBytesFn erase_gather(std::vector<std::vector<T>>& recv,
                                    int root) {
    if (rank() != root) return {};
    recv.assign(static_cast<std::size_t>(size()), {});
    return [&recv](int src, const std::byte* data, std::size_t bytes) {
      const T* typed = reinterpret_cast<const T*>(data);
      recv[static_cast<std::size_t>(src)].assign(typed,
                                                 typed + bytes / sizeof(T));
    };
  }

  std::shared_ptr<detail::CommState> state_;
  int rank_ = -1;
  std::uint64_t ticket_ = 0;
};

/// RMA-style shared window over a Comm: the node-local pre-reduction
/// surface (paper §IV-E: passive-target one-sided communication over
/// node-local shared memory). Traffic is charged to the owning
/// communicator's stats. The window keeps a pointer to that Comm, which
/// must stay put while the window lives.
template <typename T>
class Window {
  static_assert(std::is_trivially_copyable_v<T>);

 public:
  /// Collective over `comm`: every rank must construct the window with
  /// the same element count. Contents start zeroed.
  Window(Comm& comm, std::size_t count)
      : comm_(&comm),
        count_(count),
        state_(comm.window_collective(count * sizeof(T))) {
    std::lock_guard lock(state_->mu);
    state_->touched_bits.resize((count + 63) / 64, 0);
  }

  [[nodiscard]] std::size_t size() const { return count_; }

  /// Passive-target accumulate: atomically (under the window lock) adds
  /// `values` elementwise into the window. The touched union becomes the
  /// whole window (read_touched_pairs falls back to the dense read).
  void accumulate(std::span<const T> values) {
    DISTBC_ASSERT(values.size() == count_);
    std::lock_guard lock(state_->mu);
    T* data = reinterpret_cast<T*>(state_->data.data());
    for (std::size_t i = 0; i < count_; ++i) data[i] += values[i];
    state_->dense_touched = true;
    comm_->stats().p2p_messages.fetch_add(1, std::memory_order_relaxed);
    comm_->stats().p2p_bytes.fetch_add(values.size_bytes(),
                                       std::memory_order_relaxed);
  }

  /// Passive-target scatter-accumulate of flat (index, delta) pairs - the
  /// sparse-frame path of the pre-reduction, moving O(nonzeros).
  void accumulate_pairs(std::span<const T> pairs) {
    DISTBC_ASSERT(pairs.size() % 2 == 0);
    std::lock_guard lock(state_->mu);
    T* data = reinterpret_cast<T*>(state_->data.data());
    for (std::size_t i = 0; i + 1 < pairs.size(); i += 2) {
      const auto index = static_cast<std::size_t>(pairs[i]);
      DISTBC_ASSERT(index < count_);
      data[index] += pairs[i + 1];
      state_->touched_bits[index / 64] |= std::uint64_t{1} << (index % 64);
    }
    comm_->stats().p2p_messages.fetch_add(1, std::memory_order_relaxed);
    comm_->stats().p2p_bytes.fetch_add(pairs.size_bytes(),
                                       std::memory_order_relaxed);
  }

  /// Windowed read-back: appends (index, value) pairs (ascending indices,
  /// nonzero values only) for every slot touched since the last clear.
  /// Returns false without touching `pairs` when a dense accumulate made
  /// the union the whole window; callers then pay the O(V) read().
  [[nodiscard]] bool read_touched_pairs(std::vector<T>& pairs) const {
    std::lock_guard lock(state_->mu);
    if (state_->dense_touched) return false;
    const T* data = reinterpret_cast<const T*>(state_->data.data());
    for (std::size_t w = 0; w < state_->touched_bits.size(); ++w) {
      std::uint64_t bits = state_->touched_bits[w];
      while (bits != 0) {
        const auto bit = static_cast<std::size_t>(std::countr_zero(bits));
        bits &= bits - 1;
        const std::size_t index = w * 64 + bit;
        if (data[index] == 0) continue;  // deltas may cancel to zero
        pairs.push_back(static_cast<T>(index));
        pairs.push_back(data[index]);
      }
    }
    return true;
  }

  /// Zeroes only the touched slots and resets the tracking (O(touched);
  /// falls back to the full sweep after a dense accumulate).
  void clear_touched() {
    std::lock_guard lock(state_->mu);
    if (state_->dense_touched) {
      std::fill(state_->data.begin(), state_->data.end(), std::byte{0});
      state_->dense_touched = false;
    } else {
      T* data = reinterpret_cast<T*>(state_->data.data());
      for (std::size_t w = 0; w < state_->touched_bits.size(); ++w) {
        std::uint64_t bits = state_->touched_bits[w];
        while (bits != 0) {
          const auto bit = static_cast<std::size_t>(std::countr_zero(bits));
          bits &= bits - 1;
          data[w * 64 + bit] = 0;
        }
      }
    }
    std::fill(state_->touched_bits.begin(), state_->touched_bits.end(), 0);
  }

  /// Copies the window contents into `out` under the window lock.
  void read(std::span<T> out) const {
    DISTBC_ASSERT(out.size() == count_);
    std::lock_guard lock(state_->mu);
    const T* data = reinterpret_cast<const T*>(state_->data.data());
    std::copy(data, data + count_, out.begin());
  }

  /// Zeroes the window under the lock (start of a new aggregation round).
  void clear() {
    std::lock_guard lock(state_->mu);
    std::fill(state_->data.begin(), state_->data.end(), std::byte{0});
    std::fill(state_->touched_bits.begin(), state_->touched_bits.end(), 0);
    state_->dense_touched = false;
  }

  /// Synchronization fence: a barrier over the owning communicator.
  void fence() { comm_->barrier(); }

 private:
  Comm* comm_;
  std::size_t count_;
  std::shared_ptr<mpisim::detail::WindowState> state_;
};

}  // namespace distbc::mpisim
