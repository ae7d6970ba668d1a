#include "comm/substrate.hpp"

namespace distbc::comm {

const char* substrate_name(SubstrateKind kind) {
  switch (kind) {
    case SubstrateKind::kMpisim:
      return "mpisim";
    case SubstrateKind::kNcclsim:
      return "ncclsim";
  }
  return "?";
}

std::optional<SubstrateKind> substrate_from_name(std::string_view name) {
  if (name == "mpisim") return SubstrateKind::kMpisim;
  if (name == "ncclsim") return SubstrateKind::kNcclsim;
  return std::nullopt;
}

NetworkModel network_model_for(SubstrateKind kind, const NetworkModel& base) {
  if (kind == SubstrateKind::kMpisim) return base;
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

std::unique_ptr<Substrate> Substrate::split_by_node() {
  return make_substrate(kind_, comm_.split_by_node());
}

std::unique_ptr<Substrate> Substrate::split_node_leaders() {
  return make_substrate(kind_, comm_.split_node_leaders());
}

std::unique_ptr<Substrate> make_substrate(SubstrateKind kind,
                                          mpisim::Comm comm) {
  return std::make_unique<Substrate>(kind, std::move(comm));
}

}  // namespace distbc::comm
