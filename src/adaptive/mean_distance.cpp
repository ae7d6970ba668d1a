#include "adaptive/mean_distance.hpp"

#include <algorithm>
#include <cmath>

#include "api/session.hpp"
#include "engine/engine.hpp"
#include "graph/bidirectional_bfs.hpp"
#include "graph/components.hpp"
#include "graph/diameter.hpp"
#include "support/random.hpp"

namespace distbc::adaptive {

double distance_variance(const epoch::StateFrame& frame) {
  const std::uint64_t n = frame.tau();
  if (n < 2) return 0.0;
  const double mean_value = distance_mean(frame);
  const double raw_second =
      static_cast<double>(frame.payload()[1]) / static_cast<double>(n);
  const double biased = raw_second - mean_value * mean_value;
  return std::max(0.0, biased * static_cast<double>(n) /
                           static_cast<double>(n - 1));
}

double bernstein_half_width(double variance, double range, double delta,
                            std::uint64_t n) {
  DISTBC_ASSERT(n > 0);
  const double log_term = std::log(3.0 / delta);
  return std::sqrt(2.0 * variance * log_term / static_cast<double>(n)) +
         3.0 * range * log_term / static_cast<double>(n);
}

namespace {

/// One sample: a uniform distinct pair's shortest-path distance.
class DistanceSampler {
 public:
  DistanceSampler(const graph::Graph& graph, Rng rng)
      : graph_(&graph), bfs_(graph.num_vertices()), rng_(rng) {}

  void operator()(epoch::StateFrame& frame) {
    const auto [s, t] = rng_.next_distinct_pair(graph_->num_vertices());
    const auto pair = bfs_.run(*graph_, static_cast<graph::Vertex>(s),
                               static_cast<graph::Vertex>(t));
    DISTBC_ASSERT_MSG(pair.connected,
                      "mean_distance requires a connected graph");
    record_distance(frame, pair.distance);
  }

 private:
  const graph::Graph* graph_;
  graph::BidirectionalBfs bfs_;
  Rng rng_;
};

}  // namespace

MeanDistanceResult mean_distance_rank(const graph::Graph& graph,
                                      const MeanDistanceParams& params,
                                      mpisim::Comm& world) {
  DISTBC_ASSERT(graph.num_vertices() >= 2);
  const bool is_root = world.rank() == 0;

  // Range bound for the Bernstein term: cheap 2-approximate diameter,
  // computed once at rank 0 and broadcast (mirrors KADABRA's phase 1) -
  // or reused from a previous run via params.known_range.
  std::uint32_t range = params.known_range;
  if (range == 0) {
    if (is_root) {
      DISTBC_ASSERT_MSG(params.assume_connected ||
                            graph::is_connected(graph),
                        "mean_distance requires a connected graph");
      range = graph::vertex_diameter(graph, /*exact=*/false);
    }
    world.bcast(std::span{&range, 1}, 0);
  }

  auto make_sampler = [&](std::uint64_t stream) -> engine::Sampler {
    return DistanceSampler(graph, Rng(params.seed).split(stream));
  };
  auto should_stop = [&](const epoch::StateFrame& aggregate) {
    const std::uint64_t n = aggregate.tau();
    if (n < 2) return false;
    return bernstein_half_width(distance_variance(aggregate), range,
                                params.delta, n) <= params.epsilon;
  };

  auto driver_result = engine::run_epochs(&world, kMomentWords, make_sampler,
                                          should_stop, params.engine);

  MeanDistanceResult result;
  result.epochs = driver_result.epochs;
  result.stop_reason = driver_result.stop_reason;
  result.range = range;
  result.total_seconds = driver_result.total_seconds;
  result.engine_used = params.engine;
  if (is_root) {
    result.phases = driver_result.phases;
    result.comm_volume = driver_result.comm_volume;
    const epoch::StateFrame& frame = driver_result.aggregate;
    result.mean = distance_mean(frame);
    result.stddev = std::sqrt(distance_variance(frame));
    result.samples = frame.tau();
    result.half_width = bernstein_half_width(distance_variance(frame), range,
                                             params.delta, frame.tau());
  }
  return result;
}

MeanDistanceResult mean_distance_mpi(const graph::Graph& graph,
                                     const MeanDistanceParams& params,
                                     int num_ranks, int ranks_per_node,
                                     mpisim::NetworkModel network) {
  // Compatibility layer: one-shot api::Session owning the cluster
  // lifecycle; the session binds the caller's graph without copying it.
  api::Config config;
  config.ranks = num_ranks;
  config.ranks_per_node = ranks_per_node;
  config.network = network;
  api::Session session(
      std::shared_ptr<const graph::Graph>(&graph, [](const graph::Graph*) {}),
      std::move(config));
  return session.mean_distance(params);
}

}  // namespace distbc::adaptive
