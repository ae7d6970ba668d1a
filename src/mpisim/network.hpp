// Interconnect cost model for the simulated MPI runtime.
//
// Real MPI on the paper's cluster pays per-message latency plus a
// bandwidth-proportional transfer time, with cheaper intra-node (shared
// memory) than inter-node (OmniPath) hops. mpisim reproduces that cost shape:
// a collective over P ranks spread across N nodes is charged a tree of
// log2-many hops, each alpha + bytes / beta, with local and remote hop
// parameters. Completion times are computed when the last participant
// arrives; requests become ready only after the charged time has elapsed on
// the real clock, so overlapped computation (the paper's central technique)
// is faithfully rewarded.
#pragma once

#include <chrono>
#include <cstdint>
#include <optional>
#include <string_view>

namespace distbc::mpisim {

struct NetworkModel {
  // Intra-node (shared-memory transport) hop parameters.
  double local_latency_s = 300e-9;
  double local_bandwidth_bps = 20e9;  // bytes per second
  // Inter-node hop parameters, modeled on Intel OmniPath.
  double remote_latency_s = 2e-6;
  double remote_bandwidth_bps = 12.5e9;
  // Paper §IV-F: "MPI_Ireduce progresses poorly" - non-blocking reductions
  // advance only inside library calls (test/wait), so their software
  // progression is slower than the synchronized path a blocking reduce
  // rides. Completion deadlines of non-blocking reductions are stretched
  // by this factor; 1.0 models an ideal asynchronous-progress engine.
  double ireduce_progression_factor = 3.0;
  // CPU time one unsuccessful test() of a pending non-blocking reduction
  // spends progressing the software tree - time stolen from the sampling
  // the caller interleaves with the polls (the §IV-F mechanism that makes
  // Ibarrier + blocking Reduce the better overlap strategy).
  double ireduce_poll_cost_s = 20e-6;
  // Fixed per-collective startup charge, independent of payload and hop
  // count. Zero for a CPU MPI stack; an NCCL-style substrate pays a
  // kernel-launch latency before any data moves.
  double launch_latency_s = 0.0;
  // Price all-reduces as a flat ring instead of butterfly halving +
  // doubling: 2(P-1) alpha steps and a 2(P-1)/P byte share, the NCCL
  // ring schedule. Hop parameters are remote when the communicator spans
  // nodes, local otherwise.
  bool ring_allreduce = false;
  // Master switch; disabled means zero-cost transport (useful in unit
  // tests that check semantics rather than timing).
  bool enabled = true;
  // Dedicated-core economics (the paper's cluster: one core per rank, an
  // idle core produces nothing). When set, ranks blocked in collectives
  // yield-spin instead of sleeping, so on an oversubscribed simulation
  // host a blocked rank consumes its fair CPU share while producing
  // nothing - transferring the wall-clock cost of blocking correctly.
  // Default off: semantic tests prefer sleeps (faster, quieter).
  bool dedicated_cores = false;

  /// Charged duration for a collective moving `bytes` per hop across
  /// `ranks_per_node`-rank nodes, `num_nodes` of them.
  [[nodiscard]] std::chrono::nanoseconds collective_cost(
      std::uint64_t bytes, int ranks_per_node, int num_nodes) const;

  /// Charged duration for one butterfly phase (recursive halving or
  /// doubling) over `bytes` of buffer: log2-many latency steps per hop
  /// class, but only a (P-1)/P share of the buffer crosses each class's
  /// wire in total - the alpha-beta shape that makes reduce-scatter +
  /// all-gather beat reduce + bcast at scale.
  [[nodiscard]] std::chrono::nanoseconds butterfly_cost(
      std::uint64_t bytes, int ranks_per_node, int num_nodes) const;

  /// Charged duration for an all-reduce: a recursive-halving
  /// reduce-scatter followed by a recursive-doubling all-gather.
  [[nodiscard]] std::chrono::nanoseconds allreduce_cost(
      std::uint64_t bytes, int ranks_per_node, int num_nodes) const;

  /// Charged duration for eagerly injecting a collective contribution:
  /// line-rate only - per-hop latency is paid by the collective's
  /// completion deadline, not by the sender.
  [[nodiscard]] std::chrono::nanoseconds injection_cost(std::uint64_t bytes,
                                                        bool same_node) const;

  /// A zero-cost model for semantic tests.
  static NetworkModel disabled();
};

/// The named network profiles (api::Config key `comm_substrate`, env
/// DISTBC_COMM_SUBSTRATE), layered onto `base`:
///   * "mpisim"  - base unchanged: the paper's CPU/OmniPath MPI stack;
///   * "ncclsim" - a modeled NCCL-style GPU collective stack: NVLink-like
///     local and IB-like remote links, ring all-reduce pricing, a per-
///     collective kernel-launch latency, and an ideal progress engine (no
///     Ireduce progression penalty, free polls), keeping base's master
///     switch and dedicated-core economics.
/// Unknown names return nullopt.
[[nodiscard]] std::optional<NetworkModel> network_preset(
    std::string_view name, const NetworkModel& base);

}  // namespace distbc::mpisim
