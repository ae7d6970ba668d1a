// Tests for the simulated MPI substrate: collectives, requests, topology,
// windows, statistics, and the interconnect cost model. Collectives run
// through mpisim::Comm, the typed surface over mpisim's byte plane.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "mpisim/comm.hpp"
#include "mpisim/network.hpp"
#include "mpisim/runtime.hpp"

namespace distbc::mpisim {
namespace {

RuntimeConfig quiet_config(int ranks, int ranks_per_node = 1) {
  RuntimeConfig config;
  config.num_ranks = ranks;
  config.ranks_per_node = ranks_per_node;
  config.network = NetworkModel::disabled();
  return config;
}

TEST(Runtime, RanksSeeTheirIdentity) {
  Runtime runtime(quiet_config(4, 2));
  std::vector<int> nodes(4, -1);
  runtime.run([&](Comm& comm) {
    EXPECT_EQ(comm.size(), 4);
    EXPECT_EQ(comm.num_nodes(), 2);
    nodes[comm.rank()] = comm.node();
  });
  EXPECT_EQ(nodes, (std::vector<int>{0, 0, 1, 1}));
}

TEST(Runtime, PropagatesExceptions) {
  Runtime runtime(quiet_config(3));
  // NB: a rank that throws abandons later collectives (like a crashed MPI
  // process), so the other ranks must not wait on it afterwards.
  EXPECT_THROW(runtime.run([&](Comm& comm) {
    comm.barrier();
    if (comm.rank() == 1) throw std::runtime_error("rank 1 exploded");
  }),
               std::runtime_error);
}

TEST(Runtime, CanRunMultipleTimes) {
  Runtime runtime(quiet_config(2));
  for (int i = 0; i < 3; ++i) {
    std::atomic<int> visits{0};
    runtime.run([&](Comm&) { ++visits; });
    EXPECT_EQ(visits, 2);
  }
}

TEST(Reduce, SumsVectorsAtRoot) {
  Runtime runtime(quiet_config(4));
  runtime.run([&](Comm& comm) {
    const std::vector<std::uint64_t> send(16, comm.rank() + 1);
    std::vector<std::uint64_t> recv(16, 0);
    comm.reduce(std::span<const std::uint64_t>(send), std::span(recv), 0);
    if (comm.rank() == 0) {
      for (const auto value : recv) {
        EXPECT_EQ(value, 1u + 2 + 3 + 4);
      }
    }
  });
}

TEST(Reduce, MinAndMaxOps) {
  Runtime runtime(quiet_config(3));
  runtime.run([&](Comm& comm) {
    const std::vector<double> send{static_cast<double>(comm.rank() * 10)};
    std::vector<double> lo(1), hi(1);
    comm.reduce(std::span<const double>(send), std::span(lo), 0,
                ReduceOp::kMin);
    comm.reduce(std::span<const double>(send), std::span(hi), 0,
                ReduceOp::kMax);
    if (comm.rank() == 0) {
      EXPECT_DOUBLE_EQ(lo[0], 0.0);
      EXPECT_DOUBLE_EQ(hi[0], 20.0);
    }
  });
}

TEST(Reduce, NonRootBufferReusableAfterReturn) {
  Runtime runtime(quiet_config(4));
  runtime.run([&](Comm& comm) {
    std::vector<std::uint64_t> send(8, 1);
    std::vector<std::uint64_t> recv(8, 0);
    comm.reduce(std::span<const std::uint64_t>(send), std::span(recv), 0);
    // Clobber immediately; eager copy must have protected the data.
    std::fill(send.begin(), send.end(), 0xdeadbeef);
    comm.barrier();
    if (comm.rank() == 0) {
      for (const auto value : recv) {
        EXPECT_EQ(value, 4u);
      }
    }
  });
}

TEST(Reduce, RootCanDifferFromZero) {
  Runtime runtime(quiet_config(3));
  runtime.run([&](Comm& comm) {
    const std::vector<std::uint64_t> send{1};
    std::vector<std::uint64_t> recv{0};
    comm.reduce(std::span<const std::uint64_t>(send), std::span(recv), 2);
    if (comm.rank() == 2) { EXPECT_EQ(recv[0], 3u); }
  });
}

/// Non-blocking merge all-reduce summing every rank's words into `recv`
/// (the consumer owns its state: it runs at this rank's completing poll).
Request isum_all(Comm& comm, const std::vector<std::uint64_t>& send,
                 std::vector<std::uint64_t>& recv) {
  return comm.iallreduce_merge(
      std::span<const std::uint64_t>(send),
      [out = recv.data()](int, std::span<const std::uint64_t> payload) {
        for (std::size_t i = 0; i < payload.size(); ++i) out[i] += payload[i];
      });
}

TEST(IallreduceMerge, CompletesAndSums) {
  Runtime runtime(quiet_config(4));
  runtime.run([&](Comm& comm) {
    const std::vector<std::uint64_t> send(4, comm.rank());
    std::vector<std::uint64_t> recv(4, 0);
    Request request = isum_all(comm, send, recv);
    std::uint64_t spins = 0;
    while (!request.test()) ++spins;  // overlap loop
    for (const auto value : recv) EXPECT_EQ(value, 0u + 1 + 2 + 3);
    (void)spins;
  });
}

TEST(IallreduceMerge, TestIsIdempotentAfterCompletion) {
  Runtime runtime(quiet_config(2));
  runtime.run([&](Comm& comm) {
    const std::vector<std::uint64_t> send{5};
    std::vector<std::uint64_t> recv{0};
    Request request = isum_all(comm, send, recv);
    request.wait();
    EXPECT_TRUE(request.test());
    EXPECT_TRUE(request.test());
    EXPECT_EQ(recv[0], 10u);  // the consumer ran exactly once
  });
}

TEST(Ibarrier, AllRanksPass) {
  Runtime runtime(quiet_config(8));
  std::atomic<int> passed{0};
  runtime.run([&](Comm& comm) {
    Request request = comm.ibarrier();
    request.wait();
    ++passed;
  });
  EXPECT_EQ(passed, 8);
}

TEST(Ibarrier, NotDoneUntilAllArrive) {
  Runtime runtime(quiet_config(2));
  runtime.run([&](Comm& comm) {
    if (comm.rank() == 0) {
      Request request = comm.ibarrier();
      // Rank 1 sleeps before posting; test() must report false meanwhile.
      EXPECT_FALSE(request.test());
      request.wait();
    } else {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      Request request = comm.ibarrier();
      request.wait();
    }
  });
}

TEST(Bcast, DeliversPayload) {
  Runtime runtime(quiet_config(5));
  runtime.run([&](Comm& comm) {
    std::vector<std::uint32_t> buffer(3, comm.rank() == 1 ? 7u : 0u);
    comm.bcast(std::span(buffer), 1);
    for (const auto value : buffer) {
      EXPECT_EQ(value, 7u);
    }
  });
}

TEST(Ibcast, OverlappedDelivery) {
  Runtime runtime(quiet_config(4));
  runtime.run([&](Comm& comm) {
    std::uint8_t flag = comm.rank() == 0 ? 1 : 0;
    Request request = comm.ibcast(std::span{&flag, 1}, 0);
    while (!request.test()) {
    }
    EXPECT_EQ(flag, 1);
  });
}

TEST(Allreduce, EveryRankGetsTheSum) {
  Runtime runtime(quiet_config(4));
  runtime.run([&](Comm& comm) {
    const std::vector<std::uint64_t> send{static_cast<std::uint64_t>(
        comm.rank())};
    std::vector<std::uint64_t> recv{0};
    comm.allreduce(std::span<const std::uint64_t>(send), std::span(recv));
    EXPECT_EQ(recv[0], 6u);
  });
}

TEST(Collectives, ManyRoundsStayMatched) {
  Runtime runtime(quiet_config(4));
  runtime.run([&](Comm& comm) {
    for (int round = 0; round < 100; ++round) {
      const std::vector<std::uint64_t> send{1};
      std::vector<std::uint64_t> recv{0};
      comm.reduce(std::span<const std::uint64_t>(send), std::span(recv), 0);
      std::uint8_t flag = comm.rank() == 0 ? (recv[0] == 4 ? 1 : 0) : 0;
      comm.bcast(std::span{&flag, 1}, 0);
      ASSERT_EQ(flag, 1);
    }
  });
}

TEST(Split, GroupsByColorOrderedByKey) {
  Runtime runtime(quiet_config(6));
  runtime.run([&](Comm& comm) {
    // Even ranks to color 0, odd to color 1; key reverses rank order.
    Comm child = comm.split(comm.rank() % 2, -comm.rank());
    ASSERT_TRUE(child.valid());
    EXPECT_EQ(child.size(), 3);
    // Highest old rank gets child rank 0 due to the negative key.
    if (comm.rank() == 4) { EXPECT_EQ(child.rank(), 0); }
    if (comm.rank() == 0) { EXPECT_EQ(child.rank(), 2); }
  });
}

TEST(Split, UndefinedColorYieldsInvalidComm) {
  Runtime runtime(quiet_config(4));
  runtime.run([&](Comm& comm) {
    Comm child =
        comm.split(comm.rank() == 0 ? 0 : kUndefinedColor, comm.rank());
    EXPECT_EQ(child.valid(), comm.rank() == 0);
    if (child.valid()) { EXPECT_EQ(child.size(), 1); }
  });
}

// One handle per rank and communicator: a copy would carry a second
// collective call counter, one stray call away from a mismatched slot.
static_assert(!std::is_copy_constructible_v<Comm>);
static_assert(!std::is_copy_assignable_v<Comm>);
static_assert(std::is_nothrow_move_constructible_v<Comm>);

TEST(Split, ChildMovedIntoAHolderStaysMatched) {
  // engine::Hierarchy holds its split children by value; a child moved
  // there after a collective must keep its call counter, so later
  // collectives still match slots across the node.
  struct Holder {
    Comm local;
  };
  Runtime runtime(quiet_config(6, 3));  // 2 nodes x 3 ranks
  std::vector<std::uint64_t> sums(6, 0), broadcast(6, 0);
  runtime.run([&](Comm& comm) {
    Comm child = comm.split_by_node();
    child.barrier();
    Holder holder{std::move(child)};
    EXPECT_FALSE(child.valid());  // NOLINT(bugprone-use-after-move)
    ASSERT_TRUE(holder.local.valid());

    const std::uint64_t mine = static_cast<std::uint64_t>(comm.rank()) + 1;
    std::uint64_t sum = 0;
    holder.local.allreduce(std::span<const std::uint64_t>(&mine, 1),
                           std::span(&sum, 1));
    std::uint64_t value = holder.local.rank() == 0 ? 100 + mine : 0;
    Request request = holder.local.ibcast(std::span(&value, 1), 0);
    request.wait();
    sums[comm.rank()] = sum;
    broadcast[comm.rank()] = value;
  });
  for (int r = 0; r < 6; ++r) {
    const bool first_node = r < 3;
    EXPECT_EQ(sums[r], first_node ? 1u + 2 + 3 : 4u + 5 + 6) << r;
    EXPECT_EQ(broadcast[r], first_node ? 101u : 104u) << r;
  }
}

TEST(Split, ByNodeAndLeaders) {
  Runtime runtime(quiet_config(6, 2));  // 3 nodes x 2 ranks
  runtime.run([&](Comm& comm) {
    auto local = comm.split_by_node();
    ASSERT_TRUE(local.valid());
    EXPECT_EQ(local.size(), 2);
    EXPECT_EQ(local.rank(), comm.rank() % 2);

    auto leaders = comm.split_node_leaders();
    if (comm.rank() % 2 == 0) {
      ASSERT_TRUE(leaders.valid());
      EXPECT_EQ(leaders.size(), 3);
      EXPECT_EQ(leaders.rank(), comm.rank() / 2);
    } else {
      EXPECT_FALSE(leaders.valid());
    }
  });
}

TEST(Split, ChildCollectivesWork) {
  Runtime runtime(quiet_config(4, 2));
  runtime.run([&](Comm& comm) {
    auto local = comm.split_by_node();
    const std::vector<std::uint64_t> send{1};
    std::vector<std::uint64_t> recv{0};
    local.reduce(std::span<const std::uint64_t>(send), std::span(recv), 0);
    if (local.rank() == 0) { EXPECT_EQ(recv[0], 2u); }
  });
}

TEST(Window, AccumulateAndRead) {
  Runtime runtime(quiet_config(4));
  runtime.run([&](Comm& comm) {
    Window<std::uint64_t> window(comm, 8);
    const std::vector<std::uint64_t> mine(8, comm.rank() + 1);
    window.accumulate(std::span<const std::uint64_t>(mine));
    window.fence();
    std::vector<std::uint64_t> out(8);
    window.read(std::span(out));
    for (const auto value : out) {
      EXPECT_EQ(value, 1u + 2 + 3 + 4);
    }
  });
}

TEST(Window, ClearResets) {
  Runtime runtime(quiet_config(2));
  runtime.run([&](Comm& comm) {
    Window<std::uint64_t> window(comm, 4);
    const std::vector<std::uint64_t> mine(4, 5);
    window.accumulate(std::span<const std::uint64_t>(mine));
    window.fence();
    if (comm.rank() == 0) window.clear();
    window.fence();
    std::vector<std::uint64_t> out(4);
    window.read(std::span(out));
    for (const auto value : out) {
      EXPECT_EQ(value, 0u);
    }
  });
}

TEST(Stats, CountsCallsAndBytes) {
  Runtime runtime(quiet_config(4));
  runtime.run([&](Comm& comm) {
    const std::vector<std::uint64_t> send(100, 1);
    std::vector<std::uint64_t> recv(100, 0);
    comm.reduce(std::span<const std::uint64_t>(send), std::span(recv), 0);
    comm.barrier();
  });
  const CommStats& stats = runtime.last_world_stats();
  EXPECT_EQ(stats.reduce_calls.load(), 4u);
  EXPECT_EQ(stats.barrier_calls.load(), 4u);
  // 3 non-root ranks x 800 bytes.
  EXPECT_EQ(stats.reduce_bytes.load(), 3u * 100 * sizeof(std::uint64_t));
}

TEST(NetworkModel, CostsScaleWithSizeAndTopology) {
  NetworkModel model;  // enabled defaults
  const auto small = model.collective_cost(1024, 1, 16);
  const auto large = model.collective_cost(1024 * 1024, 1, 16);
  EXPECT_LT(small.count(), large.count());

  const auto few_nodes = model.collective_cost(1024, 1, 2);
  const auto many_nodes = model.collective_cost(1024, 1, 16);
  EXPECT_LT(few_nodes.count(), many_nodes.count());
}

TEST(NetworkModel, DisabledIsFree) {
  const NetworkModel model = NetworkModel::disabled();
  EXPECT_EQ(model.collective_cost(1 << 20, 2, 16).count(), 0);
  EXPECT_EQ(model.injection_cost(1 << 20, false).count(), 0);
}

TEST(NetworkModel, EnabledDelaysBarrier) {
  RuntimeConfig config;
  config.num_ranks = 2;
  config.network.remote_latency_s = 20e-3;  // exaggerated for testability
  Runtime runtime(config);
  runtime.run([&](Comm& comm) {
    const auto start = std::chrono::steady_clock::now();
    comm.barrier();
    const auto elapsed = std::chrono::steady_clock::now() - start;
    EXPECT_GE(std::chrono::duration<double>(elapsed).count(), 0.015);
  });
}

TEST(Stats, ChargesBlockedWaitTime) {
  RuntimeConfig config;
  config.num_ranks = 2;
  config.ranks_per_node = 2;
  config.network.local_latency_s = 5e-3;  // exaggerated for testability
  Runtime runtime(config);
  runtime.run([&](Comm& comm) {
    // Topology accessors reflect the deployment shape.
    EXPECT_EQ(comm.max_ranks_per_node(), 2);

    std::uint64_t send = 1;
    std::uint64_t recv = 0;
    comm.reduce(std::span<const std::uint64_t>(&send, 1),
                std::span{&recv, 1}, 0);
    comm.barrier();
  });
  // Blocking collectives charged their wall time to the wait counters.
  const CommStats& stats = runtime.last_world_stats();
  EXPECT_GT(stats.reduce_wait_ns.load(), 0u);
  EXPECT_GT(stats.barrier_wait_ns.load(), 0u);
  EXPECT_GT(stats.total_wait_seconds(), 0.0);
}

}  // namespace
}  // namespace distbc::mpisim
