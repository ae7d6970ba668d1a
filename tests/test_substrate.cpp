// The comm_substrate network preset (mpisim::network_preset) and its
// threading through api::Session: the preset changes the modeled link
// economics - never the traffic and never the scores. Deterministic-mode
// results must be bitwise identical across mpisim x ncclsim under every
// aggregation topology while the modeled clock differs; the ncclsim
// all-reduce must price the NCCL ring closed form; and Config rejects
// unknown preset names.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>

#include "api/session.hpp"
#include "gen/barabasi_albert.hpp"
#include "graph/components.hpp"
#include "mpisim/comm.hpp"
#include "mpisim/network.hpp"
#include "mpisim/runtime.hpp"

namespace distbc {
namespace {

// --- The modeled NCCL economics ---------------------------------------------

TEST(NcclSimModel, ProfileLayersOnTopOfTheBase) {
  mpisim::NetworkModel base;
  base.dedicated_cores = true;
  const mpisim::NetworkModel same = *mpisim::network_preset("mpisim", base);
  EXPECT_EQ(same.remote_latency_s, base.remote_latency_s);
  EXPECT_FALSE(same.ring_allreduce);

  const mpisim::NetworkModel nccl = *mpisim::network_preset("ncclsim", base);
  EXPECT_TRUE(nccl.ring_allreduce);
  EXPECT_GT(nccl.launch_latency_s, 0.0);
  EXPECT_EQ(nccl.ireduce_progression_factor, 1.0);
  EXPECT_EQ(nccl.ireduce_poll_cost_s, 0.0);
  // Base switches the profile must not clobber.
  EXPECT_TRUE(nccl.dedicated_cores);
  EXPECT_TRUE(nccl.enabled);

  mpisim::NetworkModel off = base;
  off.enabled = false;
  const mpisim::NetworkModel nccl_off = *mpisim::network_preset("ncclsim", off);
  EXPECT_FALSE(nccl_off.enabled);
  EXPECT_EQ(nccl_off.allreduce_cost(1 << 20, 4, 2).count(), 0);

  for (const char* name : {"nccl", "", "MPISIM"})
    EXPECT_FALSE(mpisim::network_preset(name, base).has_value()) << name;
}

TEST(NcclSimModel, AllreduceMatchesTheRingClosedForm) {
  const mpisim::NetworkModel nccl = *mpisim::network_preset("ncclsim", {});
  struct Shape {
    int ranks_per_node;
    int num_nodes;
  };
  for (const Shape shape : {Shape{4, 2}, Shape{8, 1}, Shape{2, 8}}) {
    const double total_ranks =
        static_cast<double>(shape.ranks_per_node * shape.num_nodes);
    const double alpha = shape.num_nodes > 1 ? nccl.remote_latency_s
                                             : nccl.local_latency_s;
    const double beta = shape.num_nodes > 1 ? nccl.remote_bandwidth_bps
                                            : nccl.local_bandwidth_bps;
    for (const std::uint64_t bytes :
         {std::uint64_t{4096}, std::uint64_t{1} << 20}) {
      const double steps = 2.0 * (total_ranks - 1.0);
      const double closed = nccl.launch_latency_s + steps * alpha +
                            steps / total_ranks *
                                static_cast<double>(bytes) / beta;
      const double charged =
          static_cast<double>(
              nccl.allreduce_cost(bytes, shape.ranks_per_node,
                                  shape.num_nodes)
                  .count()) *
          1e-9;
      // The model charges on an integer-nanosecond clock; allow that
      // quantum on top of the 1e-6 relative band.
      EXPECT_NEAR(charged, closed, 1e-6 * closed + 1.5e-9)
          << shape.ranks_per_node << "x" << shape.num_nodes << " @ "
          << bytes;
    }
  }
  // A single rank pays only the kernel launch.
  EXPECT_NEAR(static_cast<double>(nccl.allreduce_cost(1 << 20, 1, 1).count()),
              nccl.launch_latency_s * 1e9, 1.0);
}

TEST(NcclSimModel, SplitCommunicatorsChargeThePreset) {
  // The two-level path runs its node-local and leader collectives on split
  // children, so they must be charged on the runtime's preset too.
  mpisim::RuntimeConfig runtime_config;
  runtime_config.num_ranks = 4;
  runtime_config.ranks_per_node = 2;
  runtime_config.network = *mpisim::network_preset("ncclsim", {});
  mpisim::Runtime runtime(runtime_config);
  std::atomic<int> leaders{0};
  runtime.run([&](mpisim::Comm& world) {
    EXPECT_TRUE(world.split_by_node().network().ring_allreduce);
    auto leader = world.split_node_leaders();
    if (leader.valid()) {
      ++leaders;
      EXPECT_TRUE(leader.network().ring_allreduce);
    }
  });
  EXPECT_EQ(leaders.load(), 2);
}

// --- Bitwise parity through api::Session ------------------------------------

std::shared_ptr<const graph::Graph> parity_graph() {
  static const auto graph = std::make_shared<const graph::Graph>(
      graph::largest_component(gen::barabasi_albert(300, 3, 19)));
  return graph;
}

api::Config parity_config(const char* substrate, bool hierarchical) {
  api::Config config;
  config.ranks = 4;
  config.ranks_per_node = hierarchical ? 2 : 1;
  config.comm_substrate = substrate;
  config.seed = 97;
  config.deterministic = true;
  config.virtual_streams = 4;
  config.epoch_base = 64;
  config.epoch_exponent = 0.0;
  config.hierarchical = hierarchical;
  return config;
}

api::Result parity_run(const api::Config& config) {
  api::Session session(parity_graph(), config);
  api::BetweennessQuery query;
  query.epsilon = 0.15;
  api::Result result = session.run(query);
  EXPECT_TRUE(result.status.ok) << result.status.message;
  return result;
}

TEST(SubstrateParity, BitwiseScoresAcrossSubstratesAndTopologies) {
  struct Topology {
    const char* name;
    bool hierarchical;
  };
  const Topology topologies[] = {{"flat", false}, {"two_level", true}};
  const api::Result reference = parity_run(parity_config("mpisim", false));
  ASSERT_GT(reference.samples, 0u);

  for (const Topology& topology : topologies) {
    // Per topology: the two presets must agree bitwise with the reference
    // AND move identical traffic, yet charge a different modeled clock - a
    // preset changes the clock, never the bytes.
    const auto run = [&](const char* substrate) {
      const api::Result result =
          parity_run(parity_config(substrate, topology.hierarchical));
      const std::string label =
          std::string(topology.name) + "/" + substrate;
      EXPECT_EQ(result.samples, reference.samples) << label;
      EXPECT_EQ(result.epochs, reference.epochs) << label;
      EXPECT_EQ(result.scores.size(), reference.scores.size()) << label;
      for (std::size_t v = 0; v < result.scores.size(); ++v)
        if (result.scores[v] != reference.scores[v]) {
          ADD_FAILURE() << label << " vertex " << v;
          break;
        }
      return result.comm_volume;
    };
    const mpisim::CommVolume mpisim = run("mpisim");
    const mpisim::CommVolume ncclsim = run("ncclsim");
    EXPECT_EQ(ncclsim.total(), mpisim.total()) << topology.name;
    EXPECT_EQ(ncclsim.p2p_bytes, mpisim.p2p_bytes) << topology.name;
    EXPECT_EQ(ncclsim.root_ingest_bytes, mpisim.root_ingest_bytes)
        << topology.name;
    EXPECT_GT(mpisim.modeled_critical_ns, 0u) << topology.name;
    EXPECT_NE(ncclsim.modeled_critical_ns, mpisim.modeled_critical_ns)
        << topology.name;
  }
}

// --- Config key and profile round-trips -------------------------------------

TEST(SubstrateConfig, KeyParsesAndSerializes) {
  api::Config config;
  ASSERT_TRUE(config.set("comm_substrate", "ncclsim").ok);
  EXPECT_EQ(config.comm_substrate, "ncclsim");
  EXPECT_NE(config.serialize().find("comm_substrate = ncclsim"),
            std::string::npos);
  const auto status = config.set("comm_substrate", "infiniband");
  EXPECT_FALSE(status.ok);
  EXPECT_EQ(config.comm_substrate, "ncclsim")
      << "rejected values must not clobber the config";
  EXPECT_TRUE(config.validate().ok);

  // A direct field write bypasses set(); validate() still rejects it, so a
  // Session never runs on an unknown preset.
  config.comm_substrate = "infiniband";
  EXPECT_FALSE(config.validate().ok);
  EXPECT_FALSE(api::Session(parity_graph(), config).status().ok);
}

}  // namespace
}  // namespace distbc
