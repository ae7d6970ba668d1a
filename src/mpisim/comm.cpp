#include "mpisim/comm.hpp"

#include <algorithm>
#include <cstring>
#include <set>
#include <thread>

namespace distbc::mpisim {

namespace detail {

CommState::CommState(std::vector<int> node_of_rank_in, NetworkModel model_in)
    : node_of_rank(std::move(node_of_rank_in)), model(model_in) {
  DISTBC_ASSERT(!node_of_rank.empty());
  std::map<int, int> per_node;
  for (const int node : node_of_rank) ++per_node[node];
  num_nodes = static_cast<int>(per_node.size());
  max_ranks_per_node = 0;
  for (const auto& [node, count] : per_node)
    max_ranks_per_node = std::max(max_ranks_per_node, count);
}

namespace {

Slot& acquire_slot(CommState& state, std::uint64_t ticket, SlotKind kind) {
  // Caller holds state.mu.
  auto [it, inserted] = state.slots.try_emplace(ticket);
  Slot& slot = it->second;
  if (inserted) {
    slot.kind = kind;
    slot.rank_ready.assign(state.size(), Clock::time_point{});
  } else {
    DISTBC_ASSERT_MSG(slot.kind == kind,
                      "collectives must be called in matching order");
  }
  return slot;
}

void depart_slot(CommState& state, std::uint64_t ticket, Slot& slot) {
  // Caller holds state.mu.
  if (++slot.departed == state.size()) state.slots.erase(ticket);
}

/// Blocks until pred() holds. With dedicated-core economics the wait
/// yield-spins (a rank blocked in a collective burns its core, as on the
/// paper's cluster); otherwise it sleeps on the shared condition variable.
template <typename Pred>
void wait_predicate(CommState& state, std::unique_lock<std::mutex>& lock,
                    Pred&& pred) {
  if (state.model.dedicated_cores) {
    while (!pred()) {
      lock.unlock();
      std::this_thread::yield();
      lock.lock();
    }
  } else {
    state.cv.wait(lock, std::forward<Pred>(pred));
  }
}

/// Blocks until the modeled completion deadline passes (same economics).
void wait_deadline(CommState& state, std::unique_lock<std::mutex>& lock,
                   Clock::time_point deadline) {
  if (state.model.dedicated_cores) {
    lock.unlock();
    while (Clock::now() < deadline) std::this_thread::yield();
    lock.lock();
  } else {
    while (Clock::now() < deadline) state.cv.wait_until(lock, deadline);
  }
}

/// Accumulates the elapsed blocked time of one wait_* call into a CommStats
/// counter (per-collective blocking-share telemetry).
class WaitCharge {
 public:
  explicit WaitCharge(std::atomic<std::uint64_t>& counter)
      : counter_(counter), start_(Clock::now()) {}
  ~WaitCharge() {
    counter_.fetch_add(
        static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                 start_)
                .count()),
        std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t>& counter_;
  Clock::time_point start_;
};

}  // namespace
}  // namespace detail

using detail::Clock;
using detail::CommState;
using detail::Slot;
using detail::SlotKind;
using detail::acquire_slot;
using detail::depart_slot;
using detail::WaitCharge;
using detail::wait_deadline;
using detail::wait_predicate;

// --- The slot protocol (reduce / reduce_merge / gatherv / all-reduce) -------
//
// Every reduction-shaped collective runs one post/poll/wait state machine.
// The §IV-F economics - the software-progression penalty stretching
// non-blocking completion deadlines and the poll tax burned by every
// unsuccessful test() - are therefore modeled exactly once; the flavors
// differ only in what post_collective records, how the completion deadline
// is priced at last arrival, and which completion action runs (elementwise
// combine, or the per-rank merge consumer).

namespace {

/// Everything a flavor contributes to the shared protocol. Built by the
/// Comm entry points; root-only fields are ignored at non-roots.
struct PostSpec {
  SlotKind kind{};
  int root = -1;
  bool nonblocking = false;
  // kReduce.
  std::size_t count = 0;
  detail::CombineFn combine = nullptr;
  std::byte* root_recv = nullptr;
  // kReduceMerge / kGatherv / kAllreduceMerge.
  detail::MergeBytesFn merge;
  /// Per-flavor non-root payload counter (reduce_bytes / reduce_merge_bytes
  /// / gatherv_bytes); null for flavors that account at last arrival.
  std::atomic<std::uint64_t>* byte_counter = nullptr;
};

std::chrono::nanoseconds stretch_nonblocking(
    const CommState& state, std::chrono::nanoseconds cost) {
  // §IV-F: software progression of non-blocking reductions is slower than
  // the synchronized blocking path.
  return std::chrono::nanoseconds(static_cast<std::int64_t>(
      static_cast<double>(cost.count()) *
      state.model.ireduce_progression_factor));
}

/// The all-reduce family completes symmetrically: every rank behaves
/// root-like (all arrivals plus the modeled butterfly deadline), then
/// performs its own copy-out or merge replay.
bool is_symmetric(SlotKind kind) {
  return kind == SlotKind::kAllreduce || kind == SlotKind::kAllreduceMerge;
}

/// Posts this rank's contribution. The last arrival prices the completion
/// deadline: the fixed payload for kReduce / kAllreduce, the largest
/// contribution for the variable-length flavors (the reduction tree's
/// critical path carries the biggest payload).
void post_collective(CommState& state, std::uint64_t ticket, int rank,
                     const std::byte* send, std::size_t bytes,
                     PostSpec&& spec) {
  std::lock_guard lock(state.mu);
  Slot& slot = acquire_slot(state, ticket, spec.kind);
  if (slot.arrived == 0) {
    slot.bytes = bytes;
    slot.count = spec.count;
    slot.combine = spec.combine;
    slot.root = spec.root;
    slot.nonblocking = spec.nonblocking;
    slot.contribs.resize(state.size());
  }
  const bool fixed_size =
      spec.kind == SlotKind::kReduce || spec.kind == SlotKind::kAllreduce;
  DISTBC_ASSERT_MSG(slot.root == spec.root &&
                        slot.nonblocking == spec.nonblocking &&
                        (!fixed_size || slot.bytes == bytes),
                    "mismatched collective participants");
  slot.contribs[rank].assign(send, send + bytes);
  if (spec.kind == SlotKind::kAllreduceMerge) {
    DISTBC_ASSERT_MSG(static_cast<bool>(spec.merge),
                      "decentralized merge needs a consumer on every rank");
    if (slot.rank_merge.empty()) slot.rank_merge.resize(state.size());
    slot.rank_merge[rank] = std::move(spec.merge);
  } else if (rank == spec.root && !is_symmetric(spec.kind)) {
    slot.root_recv = spec.root_recv;
    if (spec.kind != SlotKind::kReduce) {
      DISTBC_ASSERT_MSG(static_cast<bool>(spec.merge),
                        "merge collective needs a root-side consumer");
      slot.merge = std::move(spec.merge);
    }
  }

  const auto now = Clock::now();
  slot.rank_ready[rank] =
      now + state.model.injection_cost(bytes, state.num_nodes == 1);
  if (rank != spec.root && spec.byte_counter != nullptr) {
    spec.byte_counter->fetch_add(bytes, std::memory_order_relaxed);
    // Flat flavors ship every non-root contribution to the root whole.
    state.stats.root_ingest_bytes.fetch_add(bytes, std::memory_order_relaxed);
  }

  if (++slot.arrived == state.size()) {
    slot.all_arrived = true;
    std::chrono::nanoseconds cost{};
    std::size_t wire_bytes = slot.bytes;
    if (!fixed_size) {
      std::size_t max_bytes = 0;
      for (const auto& contrib : slot.contribs)
        max_bytes = std::max(max_bytes, contrib.size());
      slot.bytes = wire_bytes = max_bytes;
    }
    const std::uint64_t fan_bytes =
        static_cast<std::uint64_t>(wire_bytes) *
        static_cast<std::uint64_t>(state.size() - 1);
    switch (spec.kind) {
      case SlotKind::kAllreduce:
        // Reduce-scatter + all-gather butterfly; the up phase is reduce
        // traffic, the down phase distributes the result (bcast-shaped).
        cost = state.model.allreduce_cost(wire_bytes,
                                          state.max_ranks_per_node,
                                          state.num_nodes);
        state.stats.reduce_bytes.fetch_add(fan_bytes,
                                           std::memory_order_relaxed);
        state.stats.bcast_bytes.fetch_add(fan_bytes,
                                          std::memory_order_relaxed);
        break;
      case SlotKind::kAllreduceMerge: {
        // Butterfly at the largest image. Every rank's image crosses the
        // wire at least once (counted here); the down phase carries
        // merged images whose sizes the byte layer cannot know, so only
        // the up phase is accounted. No root, so no root_ingest_bytes.
        cost = state.model.allreduce_cost(wire_bytes,
                                          state.max_ranks_per_node,
                                          state.num_nodes);
        std::uint64_t contrib_total = 0;
        for (const auto& contrib : slot.contribs)
          contrib_total += contrib.size();
        state.stats.reduce_merge_bytes.fetch_add(contrib_total,
                                                 std::memory_order_relaxed);
        break;
      }
      default:
        cost = state.model.collective_cost(
            wire_bytes, state.max_ranks_per_node, state.num_nodes);
        break;
    }
    if (slot.nonblocking) cost = stretch_nonblocking(state, cost);
    state.stats.modeled_critical_ns.fetch_add(
        static_cast<std::uint64_t>(cost.count()), std::memory_order_relaxed);
    slot.ready_time = now + cost;
    state.cv.notify_all();
  }
}

/// Root-side completion action, run exactly once after all arrivals and
/// the modeled deadline. Caller holds state.mu.
void run_completion_action(CommState& state, Slot& slot) {
  if (slot.action_done) return;
  switch (slot.kind) {
    case SlotKind::kReduce: {
      DISTBC_ASSERT(slot.root_recv != nullptr);
      std::memcpy(slot.root_recv, slot.contribs[slot.root].data(),
                  slot.bytes);
      for (int r = 0; r < state.size(); ++r) {
        if (r == slot.root) continue;
        slot.combine(slot.root_recv, slot.contribs[r].data(), slot.count);
      }
      break;
    }
    case SlotKind::kReduceMerge:
    case SlotKind::kGatherv:
      // Feed every contribution to the consumer, in rank order.
      for (int r = 0; r < state.size(); ++r)
        slot.merge(r, slot.contribs[r].data(), slot.contribs[r].size());
      break;
    case SlotKind::kAllreduce:
      // One shared full reduction in rank order (bitwise identical to the
      // rooted combine); each rank copies it out at its own completion.
      slot.payload = slot.contribs[0];
      for (int r = 1; r < state.size(); ++r)
        slot.combine(slot.payload.data(), slot.contribs[r].data(),
                     slot.count);
      break;
    case SlotKind::kAllreduceMerge:
      break;  // per-rank consumers; nothing shared to do
    default:
      DISTBC_ASSERT_MSG(false, "slot kind has no completion action");
  }
  slot.action_done = true;
}

/// Per-rank completion of the all-reduce family, run at this rank's own
/// completing poll or wait (after the shared action) WITHOUT state.mu, so
/// the ranks' P merge replays run side by side. Safe unlocked: the
/// contributions and the shared payload are immutable once the action ran,
/// each rank touches only its own consumer, and the slot is erased only
/// after every rank departed (this one has not).
void complete_symmetric(CommState& state, Slot& slot, int rank,
                        std::byte* recv) {
  switch (slot.kind) {
    case SlotKind::kAllreduce: {
      DISTBC_ASSERT(recv != nullptr);
      std::memcpy(recv, slot.payload.data(), slot.bytes);
      break;
    }
    case SlotKind::kAllreduceMerge: {
      auto& merge = slot.rank_merge[rank];
      DISTBC_ASSERT(static_cast<bool>(merge));
      for (int r = 0; r < state.size(); ++r)
        merge(r, slot.contribs[r].data(), slot.contribs[r].size());
      break;
    }
    default:
      DISTBC_ASSERT_MSG(false, "not a symmetric collective");
  }
}

/// Non-blocking poll at `rank`. For the root (or every rank of a
/// symmetric flavor): all arrived and the modeled deadline passed, then
/// the completion action runs. For a non-root: own injection deadline
/// passed (eager send). An unsuccessful poll of
/// a non-blocking operation burns the modeled progression time (§IV-F) -
/// at the root for rooted flavors, at every rank for symmetric ones (all
/// of them progress the butterfly) - the library only advances the
/// reduction inside test(), at real CPU cost.
bool poll_collective(CommState& state, std::uint64_t ticket, int rank,
                     std::byte* recv) {
  bool progress_pending = false;
  {
    std::unique_lock lock(state.mu);
    Slot& slot = state.slots.at(ticket);
    const auto now = Clock::now();
    if (is_symmetric(slot.kind)) {
      if (!slot.all_arrived || now < slot.ready_time) {
        progress_pending = slot.nonblocking;
      } else {
        run_completion_action(state, slot);
        lock.unlock();
        complete_symmetric(state, slot, rank, recv);
        lock.lock();
        depart_slot(state, ticket, slot);
        return true;
      }
    } else if (rank == slot.root) {
      if (!slot.all_arrived || now < slot.ready_time) {
        progress_pending = slot.nonblocking;
      } else {
        run_completion_action(state, slot);
        depart_slot(state, ticket, slot);
        return true;
      }
    } else {
      if (now >= slot.rank_ready[rank]) {
        depart_slot(state, ticket, slot);
        return true;
      }
    }
  }
  if (progress_pending && state.model.enabled &&
      state.model.ireduce_poll_cost_s > 0) {
    const auto until =
        Clock::now() + std::chrono::nanoseconds(static_cast<std::int64_t>(
                           state.model.ireduce_poll_cost_s * 1e9));
    while (Clock::now() < until) {
    }
  }
  return false;
}

void wait_collective(CommState& state, std::uint64_t ticket, int rank,
                     std::byte* recv) {
  WaitCharge charge(state.stats.reduce_wait_ns);
  std::unique_lock lock(state.mu);
  Slot& slot = state.slots.at(ticket);
  if (is_symmetric(slot.kind)) {
    wait_predicate(state, lock, [&] { return slot.all_arrived; });
    wait_deadline(state, lock, slot.ready_time);
    run_completion_action(state, slot);
    lock.unlock();
    complete_symmetric(state, slot, rank, recv);
    lock.lock();
  } else if (rank == slot.root) {
    wait_predicate(state, lock, [&] { return slot.all_arrived; });
    wait_deadline(state, lock, slot.ready_time);
    run_completion_action(state, slot);
  } else {
    // Blocking participation models the reduction tree: the rank is
    // released once everybody has arrived (its subtree is drained), or
    // after its own injection deadline, whichever is later.
    wait_predicate(state, lock, [&] { return slot.all_arrived; });
    wait_deadline(state, lock, slot.rank_ready[rank]);
  }
  depart_slot(state, ticket, slot);
}

}  // namespace

// --- Entry points over the slot protocol -------------------------------------

void Comm::reduce_bytes_impl(const std::byte* send, std::size_t bytes,
                             std::size_t count, std::byte* recv,
                             detail::CombineFn combine, int root) {
  DISTBC_ASSERT(valid());
  const std::uint64_t ticket = next_ticket();
  state_->stats.reduce_calls.fetch_add(1, std::memory_order_relaxed);
  PostSpec spec;
  spec.kind = SlotKind::kReduce;
  spec.root = root;
  spec.count = count;
  spec.combine = combine;
  spec.root_recv = recv;
  spec.byte_counter = &state_->stats.reduce_bytes;
  post_collective(*state_, ticket, rank_, send, bytes, std::move(spec));
  wait_collective(*state_, ticket, rank_, nullptr);
}

void Comm::mergev_bytes_impl(detail::SlotKind kind, const std::byte* send,
                             std::size_t bytes, detail::MergeBytesFn merge,
                             int root) {
  DISTBC_ASSERT(valid());
  const std::uint64_t ticket = next_ticket();
  const bool gather = kind == SlotKind::kGatherv;
  (gather ? state_->stats.gatherv_calls : state_->stats.reduce_merge_calls)
      .fetch_add(1, std::memory_order_relaxed);
  PostSpec spec;
  spec.kind = kind;
  spec.root = root;
  spec.merge = std::move(merge);
  spec.byte_counter = gather ? &state_->stats.gatherv_bytes
                             : &state_->stats.reduce_merge_bytes;
  post_collective(*state_, ticket, rank_, send, bytes, std::move(spec));
  wait_collective(*state_, ticket, rank_, nullptr);
}

// --- All-reduce family (decentralized termination substrate) -----------------

namespace {

PostSpec symmetric_spec(SlotKind kind, bool nonblocking) {
  PostSpec spec;
  spec.kind = kind;
  spec.root = 0;  // sentinel; symmetric flavors have no root
  spec.nonblocking = nonblocking;
  // Priced and accounted at last arrival (butterfly, no root ingest).
  spec.byte_counter = nullptr;
  return spec;
}

}  // namespace

void Comm::allreduce_bytes_impl(const std::byte* send, std::size_t bytes,
                                std::size_t count, std::byte* recv,
                                detail::CombineFn combine) {
  DISTBC_ASSERT(valid());
  const std::uint64_t ticket = next_ticket();
  state_->stats.allreduce_calls.fetch_add(1, std::memory_order_relaxed);
  PostSpec spec = symmetric_spec(SlotKind::kAllreduce, /*nonblocking=*/false);
  spec.count = count;
  spec.combine = combine;
  post_collective(*state_, ticket, rank_, send, bytes, std::move(spec));
  wait_collective(*state_, ticket, rank_, recv);
}

void Comm::allmerge_bytes_impl(const std::byte* send, std::size_t bytes,
                               detail::MergeBytesFn merge) {
  DISTBC_ASSERT(valid());
  const std::uint64_t ticket = next_ticket();
  state_->stats.allreduce_merge_calls.fetch_add(1, std::memory_order_relaxed);
  PostSpec spec =
      symmetric_spec(SlotKind::kAllreduceMerge, /*nonblocking=*/false);
  spec.merge = std::move(merge);
  post_collective(*state_, ticket, rank_, send, bytes, std::move(spec));
  wait_collective(*state_, ticket, rank_, nullptr);
}

Request Comm::iallmerge_bytes_impl(const std::byte* send, std::size_t bytes,
                                   detail::MergeBytesFn merge) {
  DISTBC_ASSERT(valid());
  const std::uint64_t ticket = next_ticket();
  state_->stats.allreduce_merge_calls.fetch_add(1, std::memory_order_relaxed);
  PostSpec spec =
      symmetric_spec(SlotKind::kAllreduceMerge, /*nonblocking=*/true);
  spec.merge = std::move(merge);
  post_collective(*state_, ticket, rank_, send, bytes, std::move(spec));
  return make_request(ticket);
}

// --- Barrier ----------------------------------------------------------------

namespace {

void post_barrier(CommState& state, std::uint64_t ticket, int rank) {
  std::lock_guard lock(state.mu);
  Slot& slot = acquire_slot(state, ticket, SlotKind::kBarrier);
  slot.rank_ready[rank] = Clock::now();
  if (++slot.arrived == state.size()) {
    slot.all_arrived = true;
    const auto cost = state.model.collective_cost(
        0, state.max_ranks_per_node, state.num_nodes);
    state.stats.modeled_critical_ns.fetch_add(
        static_cast<std::uint64_t>(cost.count()), std::memory_order_relaxed);
    slot.ready_time = Clock::now() + cost;
    state.cv.notify_all();
  }
}

bool poll_barrier(CommState& state, std::uint64_t ticket, int rank) {
  std::lock_guard lock(state.mu);
  Slot& slot = state.slots.at(ticket);
  if (!slot.all_arrived || Clock::now() < slot.ready_time) return false;
  (void)rank;
  depart_slot(state, ticket, slot);
  return true;
}

void wait_barrier(CommState& state, std::uint64_t ticket) {
  WaitCharge charge(state.stats.barrier_wait_ns);
  std::unique_lock lock(state.mu);
  Slot& slot = state.slots.at(ticket);
  wait_predicate(state, lock, [&] { return slot.all_arrived; });
  wait_deadline(state, lock, slot.ready_time);
  depart_slot(state, ticket, slot);
}

}  // namespace

void Comm::barrier() {
  DISTBC_ASSERT(valid());
  const std::uint64_t ticket = next_ticket();
  state_->stats.barrier_calls.fetch_add(1, std::memory_order_relaxed);
  post_barrier(*state_, ticket, rank_);
  wait_barrier(*state_, ticket);
}

Request Comm::ibarrier() {
  DISTBC_ASSERT(valid());
  const std::uint64_t ticket = next_ticket();
  state_->stats.ibarrier_calls.fetch_add(1, std::memory_order_relaxed);
  post_barrier(*state_, ticket, rank_);
  return make_request(ticket);
}

// --- Broadcast ---------------------------------------------------------------

namespace {

void post_bcast(CommState& state, std::uint64_t ticket, int rank,
                std::byte* buffer, std::size_t bytes, int root) {
  std::lock_guard lock(state.mu);
  Slot& slot = acquire_slot(state, ticket, SlotKind::kBcast);
  if (slot.arrived == 0) {
    slot.bytes = bytes;
    slot.root = root;
  }
  DISTBC_ASSERT(slot.bytes == bytes && slot.root == root);
  ++slot.arrived;
  const auto now = Clock::now();
  if (rank == root) {
    slot.payload.assign(buffer, buffer + bytes);
    slot.action_done = true;  // payload available
    const auto cost = state.model.collective_cost(
        bytes, state.max_ranks_per_node, state.num_nodes);
    state.stats.modeled_critical_ns.fetch_add(
        static_cast<std::uint64_t>(cost.count()), std::memory_order_relaxed);
    slot.ready_time = now + cost;
    state.stats.bcast_bytes.fetch_add(bytes * (state.size() - 1),
                                      std::memory_order_relaxed);
    state.cv.notify_all();
  }
}

bool poll_bcast(CommState& state, std::uint64_t ticket, int rank,
                std::byte* recv) {
  std::lock_guard lock(state.mu);
  Slot& slot = state.slots.at(ticket);
  if (rank == slot.root) {
    depart_slot(state, ticket, slot);
    return true;  // eager: root's buffer was consumed at post
  }
  if (!slot.action_done || Clock::now() < slot.ready_time) return false;
  std::memcpy(recv, slot.payload.data(), slot.bytes);
  depart_slot(state, ticket, slot);
  return true;
}

void wait_bcast(CommState& state, std::uint64_t ticket, int rank,
                std::byte* recv) {
  WaitCharge charge(state.stats.bcast_wait_ns);
  std::unique_lock lock(state.mu);
  Slot& slot = state.slots.at(ticket);
  if (rank != slot.root) {
    wait_predicate(state, lock, [&] { return slot.action_done; });
    wait_deadline(state, lock, slot.ready_time);
    std::memcpy(recv, slot.payload.data(), slot.bytes);
  }
  depart_slot(state, ticket, slot);
}

}  // namespace

void Comm::bcast_bytes_impl(std::byte* buffer, std::size_t bytes,
                            int root) {
  DISTBC_ASSERT(valid());
  const std::uint64_t ticket = next_ticket();
  state_->stats.bcast_calls.fetch_add(1, std::memory_order_relaxed);
  post_bcast(*state_, ticket, rank_, buffer, bytes, root);
  wait_bcast(*state_, ticket, rank_, buffer);
}

Request Comm::ibcast_bytes_impl(std::byte* buffer, std::size_t bytes,
                                int root) {
  DISTBC_ASSERT(valid());
  const std::uint64_t ticket = next_ticket();
  state_->stats.bcast_calls.fetch_add(1, std::memory_order_relaxed);
  post_bcast(*state_, ticket, rank_, buffer, bytes, root);
  return make_request(ticket, buffer);
}

// --- Request ----------------------------------------------------------------

namespace {

bool poll_request(Request::Impl& impl, bool blocking);

}  // namespace

Request Comm::make_request(std::uint64_t ticket, std::byte* recv) {
  auto impl = std::make_shared<Request::Impl>();
  impl->state = state_;
  impl->ticket = ticket;
  impl->rank = rank_;
  impl->recv = recv;
  return Request(std::move(impl));
}

bool Request::test() {
  DISTBC_ASSERT_MSG(valid(), "test() on an empty request");
  if (impl_->done) return true;
  if (!poll_request(*impl_, /*blocking=*/false)) return false;
  impl_->done = true;
  return true;
}

void Request::wait() {
  DISTBC_ASSERT_MSG(valid(), "wait() on an empty request");
  if (impl_->done) return;
  poll_request(*impl_, /*blocking=*/true);
  impl_->done = true;
}

namespace {

bool poll_request(Request::Impl& impl, bool blocking) {
  CommState& state = *impl.state;
  SlotKind kind;
  {
    std::lock_guard lock(state.mu);
    kind = state.slots.at(impl.ticket).kind;
  }
  switch (kind) {
    case SlotKind::kBarrier:
      if (blocking) {
        wait_barrier(state, impl.ticket);
        return true;
      }
      return poll_barrier(state, impl.ticket, impl.rank);
    case SlotKind::kReduce:
    case SlotKind::kReduceMerge:
    case SlotKind::kGatherv:
    case SlotKind::kAllreduce:
    case SlotKind::kAllreduceMerge:
      if (blocking) {
        wait_collective(state, impl.ticket, impl.rank, impl.recv);
        return true;
      }
      return poll_collective(state, impl.ticket, impl.rank, impl.recv);
    case SlotKind::kBcast:
      if (blocking) {
        wait_bcast(state, impl.ticket, impl.rank, impl.recv);
        return true;
      }
      return poll_bcast(state, impl.ticket, impl.rank, impl.recv);
    case SlotKind::kSplit:
    case SlotKind::kWindow:
      break;
  }
  DISTBC_ASSERT_MSG(false, "request on a non-request slot");
  return false;
}

}  // namespace

// --- Split -------------------------------------------------------------------

Comm Comm::split(int color, int key) {
  DISTBC_ASSERT(valid());
  const std::uint64_t ticket = next_ticket();
  std::unique_lock lock(state_->mu);
  Slot& slot = acquire_slot(*state_, ticket, SlotKind::kSplit);
  if (slot.arrived == 0) slot.color_key.assign(size(), {kUndefinedColor, 0});
  slot.color_key[rank_] = {color, key};
  ++slot.arrived;
  if (slot.arrived == size()) {
    slot.all_arrived = true;
    state_->cv.notify_all();
  }
  state_->cv.wait(lock, [&] { return slot.all_arrived; });

  if (!slot.action_done) {
    // First rank past the barrier materializes every child communicator;
    // the computation is deterministic, so it does not matter which.
    std::set<int> colors;
    for (const auto& [c, k] : slot.color_key)
      if (c != kUndefinedColor) colors.insert(c);
    for (const int c : colors) {
      std::vector<std::pair<std::pair<int, int>, int>> members;  // ((key,rank),rank)
      for (int r = 0; r < size(); ++r)
        if (slot.color_key[r].first == c)
          members.push_back({{slot.color_key[r].second, r}, r});
      std::sort(members.begin(), members.end());
      // Compact node ids while preserving grouping.
      std::map<int, int> node_remap;
      std::vector<int> child_nodes;
      child_nodes.reserve(members.size());
      for (const auto& [sort_key, r] : members) {
        const int node = state_->node_of_rank[r];
        const auto it =
            node_remap.try_emplace(node, static_cast<int>(node_remap.size()))
                .first;
        child_nodes.push_back(it->second);
      }
      slot.children[c] =
          std::make_shared<CommState>(std::move(child_nodes), state_->model);
    }
    slot.action_done = true;
    state_->cv.notify_all();
  }
  state_->cv.wait(lock, [&] { return slot.action_done; });

  Comm child;
  if (color != kUndefinedColor) {
    // New rank = position in the (key, old rank) order within the group.
    int new_rank = 0;
    for (int r = 0; r < size(); ++r) {
      if (slot.color_key[r].first != color) continue;
      const auto mine = std::pair{key, rank_};
      const auto theirs = std::pair{slot.color_key[r].second, r};
      if (theirs < mine) ++new_rank;
    }
    child = Comm(slot.children.at(color), new_rank);
  }
  depart_slot(*state_, ticket, slot);
  return child;
}

Comm Comm::split_by_node() { return split(node(), rank()); }

Comm Comm::split_node_leaders() {
  // Leader = lowest rank on each node.
  int leader = -1;
  for (int r = 0; r < size(); ++r) {
    if (state_->node_of_rank[r] == node()) {
      leader = r;
      break;
    }
  }
  const bool is_leader = leader == rank_;
  return split(is_leader ? 0 : kUndefinedColor, node());
}

// --- Windows -------------------------------------------------------------------

std::shared_ptr<detail::WindowState> Comm::window_collective(
    std::size_t bytes) {
  DISTBC_ASSERT(valid());
  const std::uint64_t ticket = next_ticket();
  std::unique_lock lock(state_->mu);
  Slot& slot = acquire_slot(*state_, ticket, SlotKind::kWindow);
  if (slot.arrived == 0) {
    auto window = std::make_shared<detail::WindowState>();
    window->data.assign(bytes, std::byte{0});
    slot.window = std::move(window);
    slot.bytes = bytes;
  }
  DISTBC_ASSERT_MSG(slot.bytes == bytes, "window size mismatch across ranks");
  ++slot.arrived;
  if (slot.arrived == size()) {
    slot.all_arrived = true;
    state_->cv.notify_all();
  }
  state_->cv.wait(lock, [&] { return slot.all_arrived; });
  auto result = std::static_pointer_cast<detail::WindowState>(slot.window);
  depart_slot(*state_, ticket, slot);
  return result;
}

}  // namespace distbc::mpisim
