// Road networks are the paper's hard case for shared memory: high diameter
// makes every sample an expensive BFS and the algorithm needs many epochs
// (the largest road instance took 14 hours at eps = 0.001 on one node).
// This example finds the most "between" intersections of a road-like
// network and shows the distinctive statistics: many epochs, tiny
// communication volume per epoch.
//
//   ./road_network [width=220] [height=70] [eps=0.02] [ranks=8]
#include <cstdio>

#include "bc/kadabra.hpp"
#include "gen/road.hpp"
#include "graph/diameter.hpp"
#include "support/options.hpp"

int main(int argc, char** argv) {
  using namespace distbc;
  const Options options(argc, argv);
  options.describe("width", "road-grid width");
  options.describe("height", "road-grid height");
  options.describe("eps", "betweenness epsilon");
  options.describe("ranks", "simulated MPI ranks");
  options.finish("Betweenness on a high-diameter road proxy.");

  gen::RoadParams gen_params;
  gen_params.width =
      static_cast<std::uint32_t>(options.get_u64("width", 220));
  gen_params.height =
      static_cast<std::uint32_t>(options.get_u64("height", 70));
  const graph::Graph graph = gen::road(gen_params, /*seed=*/3);
  const auto diameter = graph::ifub_diameter(graph);
  std::printf("road proxy: %u intersections, %llu segments, diameter %u "
              "(found with %llu BFS)\n",
              graph.num_vertices(),
              static_cast<unsigned long long>(graph.num_edges()),
              diameter.diameter,
              static_cast<unsigned long long>(diameter.num_bfs));

  bc::KadabraOptions bc_options;
  bc_options.params.epsilon = options.get_double("eps", 0.02);
  bc_options.params.seed = 11;
  const int ranks = static_cast<int>(options.get_u64("ranks", 8));
  const bc::BcResult result = bc::kadabra_mpi(graph, bc_options, ranks);

  std::printf("\nKADABRA on %d ranks: %llu samples, %llu epochs, %.2f s "
              "(ADS %.2f s)\n",
              ranks, static_cast<unsigned long long>(result.samples),
              static_cast<unsigned long long>(result.epochs),
              result.total_seconds, result.adaptive_seconds);
  std::printf("communication: %.1f KiB per epoch (road graphs: many epochs, "
              "small frames)\n",
              result.epochs > 0
                  ? static_cast<double>(result.comm_volume.total()) /
                        result.epochs / 1024.0
                  : 0.0);

  std::printf("\nbusiest intersections (grid coordinates):\n");
  for (const graph::Vertex v : result.top_k(10)) {
    std::printf("  (%4u, %4u)  b~ = %.5f\n", v % gen_params.width,
                v / gen_params.width, result.scores[v]);
  }
  std::printf("\nExpected: the busiest intersections cluster around the "
              "grid's central\ncorridor - the cut all long routes cross.\n");
  return 0;
}
