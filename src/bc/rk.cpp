#include "bc/rk.hpp"

#include <cmath>
#include <thread>
#include <vector>

#include "bc/kadabra_context.hpp"
#include "bc/kadabra_math.hpp"
#include "bc/sampler.hpp"
#include "support/timer.hpp"

namespace distbc::bc {

BcResult rk(const graph::Graph& graph, const RkParams& params,
            int num_threads) {
  DISTBC_ASSERT(num_threads >= 1);
  WallTimer timer;
  BcResult result;
  const graph::Vertex n = graph.num_vertices();
  result.scores.assign(n, 0.0);
  if (n < 2) return result;

  PhaseTimer phases;
  const std::uint32_t vd = phases.timed(Phase::kDiameter, [&] {
    return kadabra_vertex_diameter(graph);
  });
  DISTBC_ASSERT_MSG(vd != 0, "rk expects the largest connected component");
  result.vertex_diameter = vd;

  // RK budget: like KADABRA's omega but with ln(1/delta) - RK needs no
  // union bound over the two-sided adaptive checks.
  constexpr double kUniversalConstant = 0.5;
  const std::uint64_t budget = budget_samples(
      kUniversalConstant / (params.epsilon * params.epsilon) *
      (diameter_bucket(vd) + 1.0 + std::log(1.0 / params.delta)));
  result.omega = budget;

  WallTimer sampling_timer;
  std::vector<epoch::StateFrame> frames(num_threads,
                                        epoch::StateFrame(n));
  auto worker = [&](int t) {
    PathSampler sampler(graph, Rng(params.seed).split(t));
    const std::uint64_t share =
        budget / num_threads + (t < static_cast<int>(budget % num_threads));
    for (std::uint64_t i = 0; i < share; ++i) sampler.sample(frames[t]);
  };
  std::vector<std::thread> threads;
  threads.reserve(num_threads);
  for (int t = 0; t < num_threads; ++t) threads.emplace_back(worker, t);
  for (auto& thread : threads) thread.join();

  epoch::StateFrame total(n);
  for (const auto& frame : frames) total.merge(frame);
  DISTBC_ASSERT(total.tau() == budget);

  scores_from_frame(total, result.scores);
  result.samples = total.tau();
  result.epochs = 1;
  phases.add(Phase::kSampling, sampling_timer.elapsed_s());
  result.adaptive_seconds = sampling_timer.elapsed_s();
  result.phases = phases;
  result.total_seconds = timer.elapsed_s();
  return result;
}

}  // namespace distbc::bc
