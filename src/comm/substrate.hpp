// The communication surface the epoch engine and drivers speak.
//
// comm::Substrate is the typed collective API over one rank's mpisim::Comm
// handle: blocking/non-blocking reductions, the variable-length merge
// family (flat, radix-tree, decentralized all-merge), gathers, broadcasts,
// barriers, the window hook the hierarchical pre-reduction rides, and the
// stats snapshot. Types are erased once here and every call lands on
// mpisim's byte-level slot plane.
//
// There is one data plane. The network profile (api::Config key
// `comm_substrate`, resolved by mpisim::network_preset) only chooses the
// NetworkModel the runtime charges, so deterministic scores and byte
// counters are the same under every profile - only the modeled clock and
// overlap behavior differ (bench/commbench_matrix.cpp sweeps both).
//
// Semantics shared by every collective:
//  * All ranks of the communicator call collectives in the same order
//    (standard MPI requirement); slots are matched by the handle's call
//    counter, so all of a rank's traffic must flow through one substrate.
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
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <utility>
#include <vector>

#include "mpisim/comm.hpp"
#include "support/assert.hpp"

namespace distbc::comm {

// The wire-level vocabulary is mpisim's, so results, stats, and request
// handles flow through unchanged.
using Request = mpisim::Request;
using ReduceOp = mpisim::ReduceOp;
using CommStats = mpisim::CommStats;
using CommVolume = mpisim::CommVolume;
using NetworkModel = mpisim::NetworkModel;

class Substrate {
 public:
  /// Wraps a per-rank communicator. Build one per rank before any traffic
  /// and route everything through it: the handle carries the collective
  /// call counter that matches slots across ranks.
  explicit Substrate(mpisim::Comm comm) : comm_(std::move(comm)) {}

  // --- Identity ---------------------------------------------------------

  [[nodiscard]] bool valid() const { return comm_.valid(); }
  [[nodiscard]] int rank() const { return comm_.rank(); }
  [[nodiscard]] int size() const { return comm_.size(); }
  [[nodiscard]] int node() const { return comm_.node(); }
  [[nodiscard]] int num_nodes() const { return comm_.num_nodes(); }
  /// Largest number of ranks sharing one node - the cluster-shape fact
  /// collective cost charging is based on.
  [[nodiscard]] int max_ranks_per_node() const {
    return comm_.max_ranks_per_node();
  }

  // --- Telemetry --------------------------------------------------------

  [[nodiscard]] CommStats& stats() { return comm_.stats(); }
  [[nodiscard]] const NetworkModel& network() const { return comm_.network(); }

  // --- Topology ---------------------------------------------------------

  /// Child substrate over the ranks sharing this rank's node (paper
  /// §IV-E). Always valid.
  [[nodiscard]] std::unique_ptr<Substrate> split_by_node();

  /// Child substrate over the first rank of each node (the paper's global
  /// communicator for the inter-node reduction). Non-leaders receive an
  /// invalid (valid() == false) substrate.
  [[nodiscard]] std::unique_ptr<Substrate> split_node_leaders();

  /// Window pre-reduce hook (paper §IV-E): creates or attaches to a
  /// node-shared window of `bytes` zeroed bytes. Collective; all ranks
  /// receive the same state. Used by comm::Window.
  [[nodiscard]] std::shared_ptr<mpisim::detail::WindowState>
  window_collective(std::size_t bytes) {
    return comm_.window_collective(bytes);
  }

  // --- Fixed-size collectives -------------------------------------------

  void barrier() { comm_.barrier(); }
  [[nodiscard]] Request ibarrier() { return comm_.ibarrier(); }

  template <typename T>
  void reduce(std::span<const T> send, std::span<T> recv, int root,
              ReduceOp op = ReduceOp::kSum) {
    DISTBC_ASSERT(rank() != root || recv.size() == send.size());
    comm_.reduce_bytes_impl(as_bytes(send.data()), send.size() * sizeof(T),
                            send.size(), as_bytes_mut(recv.data()),
                            mpisim::detail::combine_fn<T>(op), root);
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
    comm_.allreduce_bytes_impl(as_bytes(send.data()), send.size() * sizeof(T),
                               send.size(), as_bytes_mut(recv.data()),
                               mpisim::detail::combine_fn<T>(op));
  }

  template <typename T>
  void bcast(std::span<T> buffer, int root) {
    comm_.bcast_bytes_impl(as_bytes_mut(buffer.data()),
                           buffer.size() * sizeof(T), root);
  }

  template <typename T>
  [[nodiscard]] Request ibcast(std::span<T> buffer, int root) {
    return comm_.ibcast_bytes_impl(as_bytes_mut(buffer.data()),
                                   buffer.size() * sizeof(T), root);
  }

  // --- Variable-length collectives (frame wire images) -----------------
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
    comm_.mergev_bytes_impl(
        mpisim::detail::SlotKind::kReduceMerge, as_bytes(send.data()),
        send.size() * sizeof(T),
        erase_merge<T>(std::forward<MergeFn>(merge), root), root);
  }

  /// Decentralized merge reduction: like reduce_merge, but EVERY rank
  /// supplies its own `merge(src_rank, payload)` consumer, and each
  /// rank's consumer replays all size() contributions in rank order at
  /// that rank's own completion - identical inputs in identical order, so
  /// every rank reconstructs the root-side aggregate bitwise. Priced as
  /// an all-reduce butterfly at the largest contribution; there is no
  /// root, so nothing lands in root_ingest_bytes (the decentralized
  /// termination path this exists for). Consumers run under the
  /// communicator lock and must not call back into the communicator.
  template <typename T, typename MergeFn>
  void allreduce_merge(std::span<const T> send, MergeFn&& merge) {
    comm_.allmerge_bytes_impl(as_bytes(send.data()), send.size() * sizeof(T),
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
    return comm_.iallmerge_bytes_impl(
        as_bytes(send.data()), send.size() * sizeof(T),
        erase_merge_all<T>(std::forward<MergeFn>(merge)));
  }

  /// Tree-merge reduction: contributions combine at interior ranks of a
  /// radix-`radix` tree rooted at `root` instead of all landing at the
  /// root. Every rank supplies the same image combiner
  /// `combine(acc, contribution)` - an additive in-place re-encode (e.g.
  /// epoch::merge_images, which densifies mid-tree once the merged image
  /// stops paying). Each tree hop is charged a point-to-point alpha-beta
  /// cost and the completion deadline follows the tree's critical path, so
  /// latency grows with depth (log_radix P) while the root ingests only
  /// its direct children's merged images (root_ingest_bytes) instead of
  /// every per-rank payload. At completion the root's `merge` consumer
  /// receives the root's own contribution (src = root) and one merged
  /// image per direct child subtree (src = that child's rank). Both
  /// callables run under the communicator lock and must not call back
  /// into the communicator; decoding must be order-independent (additive).
  /// Lifetime: the slot stores the FIRST poster's combiner and invokes it
  /// at the last arrival - by which time a non-root's non-blocking form
  /// may already have completed - so the combiner must own its state
  /// (capture by value), never reference the caller's stack.
  template <typename T, typename CombineFn, typename MergeFn>
  void reduce_merge_tree(std::span<const T> send, CombineFn&& combine,
                         MergeFn&& merge, int root, int radix) {
    comm_.tree_bytes_impl(as_bytes(send.data()), send.size() * sizeof(T),
                          erase_combine<T>(std::forward<CombineFn>(combine)),
                          erase_merge<T>(std::forward<MergeFn>(merge), root),
                          root, radix);
  }

  /// Non-blocking tree merge (§IV-F progression penalty and poll tax
  /// apply). Interior combines are charged as each
  /// subtree's modeled deadline passes - any rank's test() advances them,
  /// the same progress-polling hook the engine uses for ibcast - so their
  /// compute cost overlaps the caller's sampling instead of extending the
  /// completion deadline (the blocking form keeps combine time on the
  /// critical path).
  template <typename T, typename CombineFn, typename MergeFn>
  [[nodiscard]] Request ireduce_merge_tree(std::span<const T> send,
                                           CombineFn&& combine,
                                           MergeFn&& merge, int root,
                                           int radix) {
    return comm_.itree_bytes_impl(
        as_bytes(send.data()), send.size() * sizeof(T),
        erase_combine<T>(std::forward<CombineFn>(combine)),
        erase_merge<T>(std::forward<MergeFn>(merge), root), root, radix);
  }

  /// Variable-length gather: at the root, `recv` is resized to size() and
  /// recv[r] receives rank r's contribution; untouched at non-roots.
  template <typename T>
  void gatherv(std::span<const T> send, std::vector<std::vector<T>>& recv,
               int root) {
    comm_.mergev_bytes_impl(mpisim::detail::SlotKind::kGatherv,
                            as_bytes(send.data()), send.size() * sizeof(T),
                            erase_gather<T>(recv, root), root);
  }

 private:
  static const std::byte* as_bytes(const void* p) {
    return static_cast<const std::byte*>(p);
  }
  static std::byte* as_bytes_mut(void* p) {
    return static_cast<std::byte*>(p);
  }

  /// Wraps a typed merge callable as the byte-level consumer stored in the
  /// slot; non-roots carry an empty function (their callable is ignored).
  template <typename T, typename MergeFn>
  mpisim::detail::MergeBytesFn erase_merge(MergeFn&& merge, int root) {
    if (rank() != root) return {};
    return erase_merge_all<T>(std::forward<MergeFn>(merge));
  }

  /// Like erase_merge, but every rank keeps its callable (the
  /// decentralized merge has a consumer per rank, not per root).
  template <typename T, typename MergeFn>
  mpisim::detail::MergeBytesFn erase_merge_all(MergeFn&& merge) {
    return [m = std::forward<MergeFn>(merge)](int src, const std::byte* data,
                                              std::size_t bytes) mutable {
      m(src, std::span<const T>(reinterpret_cast<const T*>(data),
                                bytes / sizeof(T)));
    };
  }

  template <typename T>
  mpisim::detail::MergeBytesFn erase_gather(std::vector<std::vector<T>>& recv,
                                            int root) {
    if (rank() != root) return {};
    recv.assign(static_cast<std::size_t>(size()), {});
    return [&recv](int src, const std::byte* data, std::size_t bytes) {
      const T* typed = reinterpret_cast<const T*>(data);
      recv[static_cast<std::size_t>(src)].assign(typed,
                                                 typed + bytes / sizeof(T));
    };
  }

  /// Wraps a typed in-place image combiner as the byte-level callable the
  /// tree-merge slot stores (reused word scratch; images are word-typed at
  /// the caller, byte-typed in slot storage).
  template <typename T, typename CombineFn>
  mpisim::detail::CombineImagesFn erase_combine(CombineFn&& combine) {
    return [c = std::forward<CombineFn>(combine), words = std::vector<T>()](
               std::vector<std::byte>& acc, const std::byte* in,
               std::size_t bytes) mutable {
      const T* acc_typed = reinterpret_cast<const T*>(acc.data());
      words.assign(acc_typed, acc_typed + acc.size() / sizeof(T));
      c(words, std::span<const T>(reinterpret_cast<const T*>(in),
                                  bytes / sizeof(T)));
      const auto* out = reinterpret_cast<const std::byte*>(words.data());
      acc.assign(out, out + words.size() * sizeof(T));
    };
  }

  mpisim::Comm comm_;
};

/// RMA-style shared window over a Substrate: the node-local pre-reduction
/// surface (paper §IV-E: passive-target one-sided communication over
/// node-local shared memory). Traffic is charged to the owning substrate's
/// stats.
template <typename T>
class Window {
  static_assert(std::is_trivially_copyable_v<T>);

 public:
  /// Collective over `substrate`: every rank must construct the window
  /// with the same element count. Contents start zeroed.
  Window(Substrate& substrate, std::size_t count)
      : substrate_(&substrate),
        count_(count),
        state_(substrate.window_collective(count * sizeof(T))) {
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
    substrate_->stats().p2p_messages.fetch_add(1, std::memory_order_relaxed);
    substrate_->stats().p2p_bytes.fetch_add(values.size_bytes(),
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
    substrate_->stats().p2p_messages.fetch_add(1, std::memory_order_relaxed);
    substrate_->stats().p2p_bytes.fetch_add(pairs.size_bytes(),
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

  /// Synchronization fence: a barrier over the owning substrate.
  void fence() { substrate_->barrier(); }

 private:
  Substrate* substrate_;
  std::size_t count_;
  std::shared_ptr<mpisim::detail::WindowState> state_;
};

}  // namespace distbc::comm
