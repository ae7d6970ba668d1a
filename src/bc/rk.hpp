// The Riondato-Kornaropoulos (RK) algorithm: fixed-budget shortest-path
// sampling with a VC-dimension bound (DMKD 2016). KADABRA's predecessor and
// the non-adaptive baseline: it always takes the full budget
//   r = (c/eps^2) (floor(log2(VD - 2)) + 1 + ln(1/delta))
// samples, where adaptive KADABRA usually stops far earlier.
#pragma once

#include "bc/result.hpp"
#include "graph/graph.hpp"

namespace distbc::bc {

struct RkParams {
  double epsilon = 0.01;
  double delta = 0.1;
  std::uint64_t seed = 0x5eed;
};

/// `num_threads` workers sample in parallel into private frames that are
/// merged once at the end (non-adaptive sampling parallelizes trivially -
/// the contrast motivating the paper's entire aggregation machinery).
[[nodiscard]] BcResult rk(const graph::Graph& graph, const RkParams& params,
                          int num_threads = 1);

}  // namespace distbc::bc
