// The "simple" synchronous parallelization of adaptive sampling that the
// paper's §III-B rules out: every thread takes a fixed number of samples,
// then all threads and ranks synchronize with *blocking* collectives to
// check the stopping condition - no overlap of computation and
// communication whatsoever. Kept as an honest ablation baseline
// demonstrating why the epoch-based machinery exists.
#pragma once

#include "bc/kadabra_context.hpp"
#include "bc/result.hpp"
#include "graph/graph.hpp"
#include "comm/substrate.hpp"

namespace distbc::bc {

struct LockstepOptions {
  KadabraParams params;
  int threads_per_rank = 1;
  /// Samples per round per thread; 0 = the epoch rule divided by P*T.
  std::uint64_t round_share = 0;
  std::uint64_t epoch_base = 1000;
  double epoch_exponent = 1.33;
};

[[nodiscard]] BcResult lockstep_mpi_rank(const graph::Graph& graph,
                                         const LockstepOptions& options,
                                         comm::Substrate& world);

[[nodiscard]] BcResult lockstep_mpi(const graph::Graph& graph,
                                    const LockstepOptions& options,
                                    int num_ranks, int ranks_per_node = 1,
                                    comm::NetworkModel network = {});

}  // namespace distbc::bc
