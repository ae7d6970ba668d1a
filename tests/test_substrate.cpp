// The pluggable comm-substrate API (comm/substrate.hpp) and its threading
// through api::Session: substrate selection changes the modeled link
// economics - never the traffic and never the scores. Deterministic-mode
// results must be bitwise identical across mpisim x ncclsim under every
// aggregation topology; the ncclsim all-reduce
// must price the NCCL ring closed form; and Results report the substrate
// that ran them.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "api/session.hpp"
#include "comm/substrate.hpp"
#include "gen/barabasi_albert.hpp"
#include "graph/components.hpp"
#include "mpisim/runtime.hpp"

namespace distbc {
namespace {

// --- Substrate naming -------------------------------------------------------

TEST(SubstrateNames, RoundTripAndRejection) {
  EXPECT_STREQ(comm::substrate_name(comm::SubstrateKind::kMpisim), "mpisim");
  EXPECT_STREQ(comm::substrate_name(comm::SubstrateKind::kNcclsim),
               "ncclsim");
  for (const auto kind :
       {comm::SubstrateKind::kMpisim, comm::SubstrateKind::kNcclsim}) {
    const auto parsed = comm::substrate_from_name(comm::substrate_name(kind));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, kind);
  }
  EXPECT_FALSE(comm::substrate_from_name("nccl").has_value());
  EXPECT_FALSE(comm::substrate_from_name("").has_value());
  EXPECT_FALSE(comm::substrate_from_name("MPISIM").has_value());
}

// --- The modeled NCCL economics ---------------------------------------------

TEST(NcclSimModel, ProfileLayersOnTopOfTheBase) {
  comm::NetworkModel base;
  base.dedicated_cores = true;
  const comm::NetworkModel same =
      comm::network_model_for(comm::SubstrateKind::kMpisim, base);
  EXPECT_EQ(same.remote_latency_s, base.remote_latency_s);
  EXPECT_FALSE(same.ring_allreduce);

  const comm::NetworkModel nccl =
      comm::network_model_for(comm::SubstrateKind::kNcclsim, base);
  EXPECT_TRUE(nccl.ring_allreduce);
  EXPECT_GT(nccl.launch_latency_s, 0.0);
  EXPECT_EQ(nccl.ireduce_progression_factor, 1.0);
  EXPECT_EQ(nccl.ireduce_poll_cost_s, 0.0);
  // Base switches the profile must not clobber.
  EXPECT_TRUE(nccl.dedicated_cores);
  EXPECT_TRUE(nccl.enabled);

  comm::NetworkModel off = base;
  off.enabled = false;
  const comm::NetworkModel nccl_off =
      comm::network_model_for(comm::SubstrateKind::kNcclsim, off);
  EXPECT_FALSE(nccl_off.enabled);
  EXPECT_EQ(nccl_off.allreduce_cost(1 << 20, 4, 2).count(), 0);
}

TEST(NcclSimModel, AllreduceMatchesTheRingClosedForm) {
  const comm::NetworkModel nccl =
      comm::network_model_for(comm::SubstrateKind::kNcclsim, {});
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

// --- Bitwise parity through api::Session ------------------------------------

std::shared_ptr<const graph::Graph> parity_graph() {
  static const auto graph = std::make_shared<const graph::Graph>(
      graph::largest_component(gen::barabasi_albert(300, 3, 19)));
  return graph;
}

api::Config parity_config(comm::SubstrateKind substrate, bool hierarchical,
                          int tree_radix, int leader_radix) {
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
  config.tree_radix = tree_radix;
  config.leader_radix = leader_radix;
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
    int tree_radix;
    int leader_radix;
  };
  const Topology topologies[] = {
      {"flat", false, 0, 0},
      {"tree", false, 2, 0},
      {"two_level", true, 0, 2},
  };
  const api::Result reference =
      parity_run(parity_config(comm::SubstrateKind::kMpisim, false, 0, 0));
  ASSERT_GT(reference.samples, 0u);

  for (const Topology& topology : topologies) {
    // Per topology: the two substrates must agree bitwise with the
    // reference AND move identical traffic - a backend changes the clock,
    // never the bytes.
    std::uint64_t mpisim_total = 0;
    for (const auto substrate :
         {comm::SubstrateKind::kMpisim, comm::SubstrateKind::kNcclsim}) {
      const api::Result result = parity_run(
          parity_config(substrate, topology.hierarchical, topology.tree_radix,
                        topology.leader_radix));
      const std::string label = std::string(topology.name) + "/" +
                                comm::substrate_name(substrate);
      EXPECT_EQ(result.samples, reference.samples) << label;
      EXPECT_EQ(result.epochs, reference.epochs) << label;
      ASSERT_EQ(result.scores.size(), reference.scores.size()) << label;
      for (std::size_t v = 0; v < result.scores.size(); ++v)
        ASSERT_EQ(result.scores[v], reference.scores[v])
            << label << " vertex " << v;
      if (substrate == comm::SubstrateKind::kMpisim)
        mpisim_total = result.comm_volume.total();
      else
        EXPECT_EQ(result.comm_volume.total(), mpisim_total) << label;
    }
  }
}

// --- Result attribution -----------------------------------------------------

TEST(SubstrateUsed, ResultsReportTheBackendThatRanThem) {
  const api::Result mpisim_result =
      parity_run(parity_config(comm::SubstrateKind::kMpisim, false, 0, 0));
  EXPECT_EQ(mpisim_result.substrate_used, "mpisim");
  EXPECT_STREQ(mpisim_result.comm_volume.substrate, "mpisim");

  const api::Result nccl_result =
      parity_run(parity_config(comm::SubstrateKind::kNcclsim, false, 2, 0));
  EXPECT_EQ(nccl_result.substrate_used, "ncclsim");
  EXPECT_STREQ(nccl_result.comm_volume.substrate, "ncclsim");
}

TEST(SubstrateUsed, CommunicatorFreeRunsLeaveItEmpty) {
  // Below the exact threshold the query runs single-process Brandes: no
  // communicator exists, so no substrate is attributed.
  api::Config config;
  config.exact_threshold = 100000;
  api::Session session(parity_graph(), config);
  api::BetweennessQuery query;
  query.epsilon = 0.15;
  const api::Result result = session.run(query);
  ASSERT_TRUE(result.status.ok) << result.status.message;
  EXPECT_TRUE(result.substrate_used.empty());
}

// --- Topology splits -------------------------------------------------------

TEST(SubstrateSplit, ChildrenKeepTheSubstrateKind) {
  // The hierarchical pipeline runs its node-local and leader collectives
  // on split children, so a split must hand back the parent's kind - a
  // child that fell back to mpisim would stamp its bytes with the wrong
  // profile (Result attribution only reads the world communicator).
  mpisim::RuntimeConfig runtime_config;
  runtime_config.num_ranks = 4;
  runtime_config.ranks_per_node = 2;
  runtime_config.network = comm::network_model_for(
      comm::SubstrateKind::kNcclsim, mpisim::NetworkModel::disabled());
  mpisim::Runtime runtime(runtime_config);
  std::atomic<int> leaders{0};
  runtime.run([&](auto& rank_comm) {
    const auto world =
        comm::make_substrate(comm::SubstrateKind::kNcclsim, rank_comm);
    const auto local = world->split_by_node();
    EXPECT_STREQ(local->name(), "ncclsim");
    EXPECT_STREQ(local->volume().substrate, "ncclsim");
    const auto leader = world->split_node_leaders();
    if (leader->valid()) {
      ++leaders;
      EXPECT_STREQ(leader->name(), "ncclsim");
      EXPECT_STREQ(leader->volume().substrate, "ncclsim");
    }
  });
  EXPECT_EQ(leaders.load(), 2);
}

TEST(CommVolumeTag, FirstNonEmptySubstrateWinsOnMerge) {
  comm::CommVolume sum;
  EXPECT_STREQ(sum.substrate, "");
  comm::CommVolume tagged;
  tagged.substrate = comm::substrate_name(comm::SubstrateKind::kNcclsim);
  tagged.reduce_bytes = 8;
  sum += tagged;
  EXPECT_STREQ(sum.substrate, "ncclsim");
  comm::CommVolume other;
  other.substrate = comm::substrate_name(comm::SubstrateKind::kMpisim);
  sum += other;  // already attributed: the first tag sticks
  EXPECT_STREQ(sum.substrate, "ncclsim");
}

// --- Config key and profile round-trips -------------------------------------

TEST(SubstrateConfig, KeyParsesAndSerializes) {
  api::Config config;
  ASSERT_TRUE(config.set("comm_substrate", "ncclsim").ok);
  EXPECT_EQ(config.comm_substrate, comm::SubstrateKind::kNcclsim);
  EXPECT_NE(config.serialize().find("comm_substrate = ncclsim"),
            std::string::npos);
  const auto status = config.set("comm_substrate", "infiniband");
  EXPECT_FALSE(status.ok);
  EXPECT_EQ(config.comm_substrate, comm::SubstrateKind::kNcclsim)
      << "rejected values must not clobber the config";
}

}  // namespace
}  // namespace distbc
