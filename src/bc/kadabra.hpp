// KADABRA betweenness approximation on the unified epoch-sampling engine.
//
// One implementation (kadabra_run) covers the three-phase algorithm -
// diameter, calibration, epoch-based adaptive sampling (Algorithm 2) - and
// the three deployment backends are thin configurations of it:
//   kadabra_sequential : 1 rank x 1 thread, no communicator - the bitwise-
//                        reproducible reference (Borassi & Natale's KADABRA);
//   kadabra_shm        : 1 rank x T threads, no communicator - the
//                        shared-memory algorithm of the paper's Ref. [24];
//   kadabra_mpi        : P ranks x T threads over mpisim - the paper's
//                        contribution, with selectable §IV-F aggregation
//                        strategies and §IV-E hierarchical reduction.
// All backends derive their RNG streams from global stream indices (engine
// streams), so a (seed, stream) pair samples the same sequence regardless
// of the deployment shape. In the engine's deterministic mode, any two
// KadabraOptions-driven runs (shm / mpi / kadabra_run) with the same seed
// and virtual-stream count produce bitwise-identical results across
// cluster shapes and aggregation strategies (tests/test_engine.cpp);
// kadabra_sequential is the fixed reference configuration and keeps its
// own denser stop-check schedule, so compare against kadabra_shm with one
// thread for cross-backend equivalence.
#pragma once

#include <memory>

#include "bc/kadabra_context.hpp"
#include "bc/result.hpp"
#include "engine/engine.hpp"
#include "graph/graph.hpp"

namespace distbc::bc {

/// Aggregation strategy vocabulary, re-exported from the engine.
using engine::Aggregation;

/// Everything KADABRA's phases 1-2 produce that phase 3 consumes: the
/// diameter estimate and the calibrated context (omega and the stop
/// rule's cached logs on every rank; delta_l/delta_u valid at world rank
/// 0 only). A fresh kadabra_run computes one and reports
/// it in BcResult::warm; handing it back through KadabraOptions::warm_start
/// skips phases 1-2 entirely (zero diameter/calibration work - the
/// kDiameter/kCalibration phase stats stay 0). Valid only for the same
/// (graph, params, engine shape) it was computed on: api::Session owns
/// that keying and is the intended consumer.
struct KadabraWarmState {
  std::uint32_t vertex_diameter = 0;
  KadabraContext context;

  // --- Provenance (filled at rank 0 on a fresh calibration) --------------
  // What the state was computed on, so consumers (Session::
  // preload_calibration, service::WarmStore) can validate a reuse instead
  // of silently mis-caching: the calibration content depends on the graph,
  // the statistical parameters (in context.params), and the stream layout
  // of the cluster shape below. Zero ranks / fingerprint mark a state from
  // before this accounting ("unknown", accepted as-is).
  std::uint64_t graph_fingerprint = 0;  // graph::fingerprint of the input
  int ranks = 0;
  int threads_per_rank = 0;
  bool deterministic = false;
  std::uint64_t virtual_streams = 0;
};

struct KadabraOptions {
  KadabraParams params;
  /// Engine configuration: threads per rank, aggregation strategy,
  /// hierarchical reduction, epoch-length rule,
  /// deterministic mode. Frames cross the wire as images of
  /// epoch::StateFrame sized by the samples they hold (index/count deltas
  /// while those are smaller than |V|).
  engine::EngineOptions engine;
  /// First-stop-check pacing knobs, applied through the one shared clamp
  /// implementation (engine::paced_epoch_cap in engine/streams.hpp): the
  /// total epoch length is capped at max(min_epoch_length,
  /// omega / omega_fraction) so easy instances do not sample far past
  /// termination before the first check.
  std::uint64_t omega_fraction = 2;
  std::uint64_t min_epoch_length = 1;
  /// Skip phases 1-2 using a previously computed state (see
  /// KadabraWarmState above). nullptr = compute them in this run.
  std::shared_ptr<const KadabraWarmState> warm_start;
  /// When > 0, the run additionally extracts the k highest betweenness
  /// scores and delivers them to *every* rank (BcResult::top_k_pairs):
  /// multi-rank runs keep per-rank local aggregates and run the TPUT-style
  /// distributed selection over gatherv (bc/topk.hpp) followed by one
  /// 2k-word broadcast - O(k + candidates) wire bytes instead of a full
  /// |V| score broadcast.
  std::size_t top_k = 0;
};

/// The unified driver: runs all three phases on `world` (nullptr = no
/// communicator, single-rank); collective, so every rank of `world` calls
/// it, e.g. from inside mpisim::Runtime::run. Scores and global statistics
/// are valid at world rank 0; other ranks carry local timing and work
/// counts.
[[nodiscard]] BcResult kadabra_run(const graph::Graph& graph,
                                   const KadabraOptions& options,
                                   mpisim::Comm* world);

/// Sequential reference configuration (1 rank x 1 thread, no comm).
[[nodiscard]] BcResult kadabra_sequential(const graph::Graph& graph,
                                          const KadabraParams& params);

/// Shared-memory configuration (1 rank x engine.threads_per_rank threads).
[[nodiscard]] BcResult kadabra_shm(const graph::Graph& graph,
                                   const KadabraOptions& options);

/// Convenience wrapper: spins up a simulated cluster of `num_ranks` ranks
/// (`ranks_per_node` per node) and returns rank zero's result.
[[nodiscard]] BcResult kadabra_mpi(const graph::Graph& graph,
                                   const KadabraOptions& options,
                                   int num_ranks, int ranks_per_node = 1,
                                   mpisim::NetworkModel network = {});

}  // namespace distbc::bc
