#include "mpisim/network.hpp"

#include <cmath>

namespace distbc::mpisim {

namespace {

int ceil_log2(int value) {
  int bits = 0;
  int running = 1;
  while (running < value) {
    running *= 2;
    ++bits;
  }
  return bits;
}

std::chrono::nanoseconds to_ns(double seconds) {
  return std::chrono::nanoseconds(
      static_cast<std::int64_t>(seconds * 1e9));
}

}  // namespace

std::chrono::nanoseconds NetworkModel::collective_cost(std::uint64_t bytes,
                                                       int ranks_per_node,
                                                       int num_nodes) const {
  if (!enabled) return std::chrono::nanoseconds::zero();
  const int local_hops = ceil_log2(ranks_per_node);
  const int remote_hops = ceil_log2(num_nodes);
  const double bytes_d = static_cast<double>(bytes);
  const double local =
      local_hops * (local_latency_s + bytes_d / local_bandwidth_bps);
  const double remote =
      remote_hops * (remote_latency_s + bytes_d / remote_bandwidth_bps);
  return to_ns(launch_latency_s + local + remote);
}

std::chrono::nanoseconds NetworkModel::butterfly_cost(
    std::uint64_t bytes, int ranks_per_node, int num_nodes) const {
  if (!enabled) return std::chrono::nanoseconds::zero();
  const int local_hops = ceil_log2(ranks_per_node);
  const int remote_hops = ceil_log2(num_nodes);
  const double bytes_d = static_cast<double>(bytes);
  // Each hop class moves a (P-1)/P share of the buffer in total across
  // its log2 steps (halving: B/2 + B/4 + ...), unlike collective_cost's
  // full-buffer-per-hop tree.
  const double local_share =
      ranks_per_node > 1
          ? static_cast<double>(ranks_per_node - 1) / ranks_per_node
          : 0.0;
  const double remote_share =
      num_nodes > 1 ? static_cast<double>(num_nodes - 1) / num_nodes : 0.0;
  const double local = local_hops * local_latency_s +
                       local_share * bytes_d / local_bandwidth_bps;
  const double remote = remote_hops * remote_latency_s +
                        remote_share * bytes_d / remote_bandwidth_bps;
  return to_ns(launch_latency_s + local + remote);
}

std::chrono::nanoseconds NetworkModel::allreduce_cost(std::uint64_t bytes,
                                                      int ranks_per_node,
                                                      int num_nodes) const {
  if (ring_allreduce) {
    if (!enabled) return std::chrono::nanoseconds::zero();
    const int total_ranks = ranks_per_node * num_nodes;
    if (total_ranks <= 1) return to_ns(launch_latency_s);
    // NCCL ring: reduce-scatter then all-gather, each (P-1) steps moving
    // B/P per step. The slowest link prices every step, so hop parameters
    // are remote as soon as the ring crosses a node boundary.
    const double alpha = num_nodes > 1 ? remote_latency_s : local_latency_s;
    const double beta =
        num_nodes > 1 ? remote_bandwidth_bps : local_bandwidth_bps;
    const double steps = 2.0 * (total_ranks - 1);
    const double share =
        steps / total_ranks * static_cast<double>(bytes) / beta;
    return to_ns(launch_latency_s + steps * alpha + share);
  }
  return butterfly_cost(bytes, ranks_per_node, num_nodes) +
         butterfly_cost(bytes, ranks_per_node, num_nodes);
}

std::chrono::nanoseconds NetworkModel::injection_cost(std::uint64_t bytes,
                                                      bool same_node) const {
  if (!enabled) return std::chrono::nanoseconds::zero();
  const double bytes_d = static_cast<double>(bytes);
  return to_ns(same_node ? bytes_d / local_bandwidth_bps
                         : bytes_d / remote_bandwidth_bps);
}

NetworkModel NetworkModel::disabled() {
  NetworkModel model;
  model.enabled = false;
  return model;
}

std::optional<NetworkModel> network_preset(std::string_view name,
                                           const NetworkModel& base) {
  if (name == "mpisim") return base;
  if (name != "ncclsim") return std::nullopt;
  NetworkModel model = base;
  // NVLink-like intra-node links: ~an order of magnitude more bandwidth
  // than the shared-memory MPI transport, with a somewhat higher latency
  // floor (device-side transfers).
  model.local_latency_s = 1e-6;
  model.local_bandwidth_bps = 200e9;
  // IB/RoCE-like inter-node links.
  model.remote_latency_s = 2.5e-6;
  model.remote_bandwidth_bps = 25e9;
  // A device-side progress engine: non-blocking collectives advance
  // without host polling, so no §IV-F progression penalty and free polls.
  model.ireduce_progression_factor = 1.0;
  model.ireduce_poll_cost_s = 0.0;
  // Every collective pays a kernel-launch latency before data moves.
  model.launch_latency_s = 3e-6;
  // All-reduces run the NCCL ring schedule.
  model.ring_allreduce = true;
  return model;
}

}  // namespace distbc::mpisim
