// Deeper mpisim coverage: mixed collectives on parent and child
// communicators, large buffers, request lifecycles, delayed completion
// under the network model, and hierarchical (window + leader) pipelines
// like the one §IV-E builds.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <ctime>
#include <numeric>
#include <span>
#include <thread>
#include <utility>
#include <vector>

#include "epoch/frame_codec.hpp"
#include "mpisim/comm.hpp"
#include "mpisim/runtime.hpp"

namespace distbc::mpisim {
namespace {

RuntimeConfig quiet(int ranks, int per_node = 1) {
  RuntimeConfig config;
  config.num_ranks = ranks;
  config.ranks_per_node = per_node;
  config.network = NetworkModel::disabled();
  return config;
}

TEST(Collectives, InterleavedParentAndChildOps) {
  Runtime runtime(quiet(6, 2));
  runtime.run([&](Comm& world) {
    auto local = world.split_by_node();
    for (int round = 0; round < 20; ++round) {
      // Local reduce feeds into a world allreduce - the §IV-E pipeline.
      const std::vector<std::uint64_t> mine{1};
      std::vector<std::uint64_t> node_sum{0};
      local.reduce(std::span<const std::uint64_t>(mine),
                   std::span(node_sum), 0);
      std::uint64_t contribution = local.rank() == 0 ? node_sum[0] : 0;
      std::vector<std::uint64_t> total{0};
      world.allreduce(
          std::span<const std::uint64_t>(&contribution, 1), std::span(total));
      ASSERT_EQ(total[0], 6u);
    }
  });
}

TEST(Collectives, LeaderReduceMatchesFlatReduce) {
  Runtime runtime(quiet(8, 2));
  runtime.run([&](Comm& world) {
    auto local = world.split_by_node();
    auto leaders = world.split_node_leaders();
    Window<std::uint64_t> window(local, 16);

    const std::vector<std::uint64_t> mine(16, world.rank() + 1);
    window.accumulate(std::span<const std::uint64_t>(mine));
    local.barrier();

    std::vector<std::uint64_t> hierarchical(16, 0);
    if (local.rank() == 0) {
      std::vector<std::uint64_t> node_sum(16);
      window.read(std::span(node_sum));
      leaders.reduce(std::span<const std::uint64_t>(node_sum),
                     std::span(hierarchical), 0);
    }

    std::vector<std::uint64_t> flat(16, 0);
    world.reduce(std::span<const std::uint64_t>(mine), std::span(flat), 0);

    if (world.rank() == 0) {
      for (std::size_t i = 0; i < 16; ++i)
        EXPECT_EQ(hierarchical[i], flat[i]);
    }
  });
}

TEST(Collectives, LargeBufferReduce) {
  constexpr std::size_t kCount = 1 << 18;  // 2 MiB of uint64 per rank
  Runtime runtime(quiet(4));
  runtime.run([&](Comm& comm) {
    std::vector<std::uint64_t> send(kCount);
    std::iota(send.begin(), send.end(), 0);
    std::vector<std::uint64_t> recv(kCount, 0);
    comm.reduce(std::span<const std::uint64_t>(send), std::span(recv), 0);
    if (comm.rank() == 0) {
      EXPECT_EQ(recv[0], 0u);
      EXPECT_EQ(recv[kCount - 1], 4 * (kCount - 1));
      EXPECT_EQ(recv[12345], 4u * 12345);
    }
  });
}

TEST(Requests, SeveralOutstandingRequestsCompleteIndependently) {
  Runtime runtime(quiet(3));
  runtime.run([&](Comm& comm) {
    // A barrier and a bcast in flight at once; they must be matched by
    // ticket order, not completion order.
    Request barrier = comm.ibarrier();
    std::uint8_t flag = comm.rank() == 1 ? 9 : 0;
    Request bcast = comm.ibcast(std::span{&flag, 1}, 1);
    bcast.wait();
    barrier.wait();
    EXPECT_EQ(flag, 9);
  });
}

TEST(Requests, CopiesShareCompletionState) {
  Runtime runtime(quiet(2));
  runtime.run([&](Comm& comm) {
    Request original = comm.ibarrier();
    Request copy = original;
    copy.wait();
    EXPECT_TRUE(original.test());  // same underlying operation
  });
}

TEST(NetworkModel, ReduceCompletionIsDelayedByBandwidth) {
  RuntimeConfig config;
  config.num_ranks = 2;
  config.network.remote_latency_s = 0.0;
  config.network.remote_bandwidth_bps = 1e6;  // 1 MB/s: 100 KB ~ 100 ms
  Runtime runtime(config);
  runtime.run([&](Comm& comm) {
    std::vector<std::uint64_t> send(12'500, 1);  // 100 KB
    const auto start = std::chrono::steady_clock::now();
    Request request = comm.iallreduce_merge(
        std::span<const std::uint64_t>(send),
        [](int, std::span<const std::uint64_t>) {});
    std::uint64_t polls = 0;
    while (!request.test()) ++polls;
    const double elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count();
    if (comm.rank() == 0) {
      EXPECT_GE(elapsed, 0.05);  // root waits out the modeled transfer
      EXPECT_GT(polls, 0u);      // and had time to overlap work
    }
  });
}

TEST(NetworkModel, IntraNodeCheaperThanInterNode) {
  NetworkModel model;
  // Same rank count, different placement: 8 ranks on 1 node vs 8 nodes.
  const auto one_node = model.collective_cost(1 << 20, 8, 1);
  const auto many_nodes = model.collective_cost(1 << 20, 1, 8);
  EXPECT_LT(one_node.count(), many_nodes.count());
}

TEST(Split, RepeatedAndNestedSplits) {
  Runtime runtime(quiet(8, 4));
  runtime.run([&](Comm& world) {
    Comm local = world.split_by_node();  // 2 nodes x 4 ranks
    ASSERT_EQ(local.size(), 4);
    // Split the node communicator again by parity.
    Comm pair = local.split(local.rank() % 2, local.rank());
    ASSERT_TRUE(pair.valid());
    EXPECT_EQ(pair.size(), 2);
    const std::vector<std::uint64_t> one{1};
    std::vector<std::uint64_t> sum{0};
    pair.allreduce(std::span<const std::uint64_t>(one), std::span(sum));
    EXPECT_EQ(sum[0], 2u);
  });
}

TEST(Split, StatsArePerCommunicator) {
  Runtime runtime(quiet(4, 2));
  runtime.run([&](Comm& world) {
    auto local = world.split_by_node();
    local.barrier();
    world.barrier();
    EXPECT_EQ(local.stats().barrier_calls.load(), 2u);   // 2 ranks/node
    EXPECT_EQ(world.stats().barrier_calls.load(), 4u);
  });
}

TEST(Window, ConcurrentAccumulatesAreAtomic) {
  Runtime runtime(quiet(8));
  runtime.run([&](Comm& comm) {
    Window<std::uint64_t> window(comm, 64);
    const std::vector<std::uint64_t> one(64, 1);
    for (int i = 0; i < 100; ++i)
      window.accumulate(std::span<const std::uint64_t>(one));
    window.fence();
    std::vector<std::uint64_t> out(64);
    window.read(std::span(out));
    for (const auto value : out) EXPECT_EQ(value, 800u);
  });
}

TEST(Window, MultipleWindowsCoexist) {
  Runtime runtime(quiet(3));
  runtime.run([&](Comm& comm) {
    Window<std::uint64_t> a(comm, 4);
    Window<double> b(comm, 4);
    const std::vector<std::uint64_t> ones(4, 1);
    const std::vector<double> halves(4, 0.5);
    a.accumulate(std::span<const std::uint64_t>(ones));
    b.accumulate(std::span<const double>(halves));
    a.fence();
    std::vector<std::uint64_t> out_a(4);
    std::vector<double> out_b(4);
    a.read(std::span(out_a));
    b.read(std::span(out_b));
    EXPECT_EQ(out_a[0], 3u);
    EXPECT_DOUBLE_EQ(out_b[0], 1.5);
  });
}

TEST(Window, TouchedBitmapReadBackIsSparse) {
  Runtime runtime(quiet(2));
  runtime.run([&](Comm& comm) {
    Window<std::uint64_t> window(comm, 256);
    // Rank r scatters pairs at overlapping indices.
    const std::vector<std::uint64_t> pairs{
        7, static_cast<std::uint64_t>(comm.rank() + 1), 200, 5};
    window.accumulate_pairs(std::span<const std::uint64_t>(pairs));
    window.fence();
    if (comm.rank() == 0) {
      std::vector<std::uint64_t> touched;
      ASSERT_TRUE(window.read_touched_pairs(touched));
      // Ascending (index, value) pairs over the union of touched slots.
      ASSERT_EQ(touched,
                (std::vector<std::uint64_t>{7, 3, 200, 10}));
      window.clear_touched();
      touched.clear();
      ASSERT_TRUE(window.read_touched_pairs(touched));
      EXPECT_TRUE(touched.empty());
    }
    window.fence();
    // A dense accumulate flips the window to the O(V) read-back path.
    const std::vector<std::uint64_t> dense(256, 1);
    window.accumulate(std::span<const std::uint64_t>(dense));
    window.fence();
    if (comm.rank() == 0) {
      std::vector<std::uint64_t> touched;
      EXPECT_FALSE(window.read_touched_pairs(touched));
      window.clear_touched();  // full sweep fallback
      std::vector<std::uint64_t> out(256);
      window.read(std::span(out));
      EXPECT_EQ(out[0], 0u);
      EXPECT_TRUE(window.read_touched_pairs(touched));  // tracking reset
      EXPECT_TRUE(touched.empty());
    }
  });
}

// --- Variable-length collectives (sparse frame images) ----------------------

TEST(VariableLength, GathervDeliversPerRankPayloads) {
  Runtime runtime(quiet(4));
  runtime.run([&](Comm& comm) {
    // Rank r contributes r+1 words holding its rank id.
    const std::vector<std::uint64_t> mine(
        static_cast<std::size_t>(comm.rank()) + 1,
        static_cast<std::uint64_t>(comm.rank()));
    std::vector<std::vector<std::uint64_t>> gathered;
    comm.gatherv(std::span<const std::uint64_t>(mine), gathered, 0);
    if (comm.rank() == 0) {
      ASSERT_EQ(gathered.size(), 4u);
      for (int r = 0; r < 4; ++r) {
        ASSERT_EQ(gathered[r].size(), static_cast<std::size_t>(r) + 1);
        for (const std::uint64_t word : gathered[r])
          EXPECT_EQ(word, static_cast<std::uint64_t>(r));
      }
    } else {
      EXPECT_TRUE(gathered.empty());
    }
  });
  // Non-root contributions cross the wire once: (2+3+4) words.
  EXPECT_EQ(runtime.last_world_stats().gatherv_bytes.load(), 9 * sizeof(std::uint64_t));
  EXPECT_EQ(runtime.last_world_stats().gatherv_calls.load(), 4u);
}

TEST(VariableLength, ReduceMergeVisitsContributionsInRankOrder) {
  Runtime runtime(quiet(4));
  runtime.run([&](Comm& comm) {
    const std::vector<std::uint64_t> mine(
        static_cast<std::size_t>(comm.rank()) + 1, 1);
    std::vector<int> order;
    std::uint64_t total = 0;
    comm.reduce_merge(
        std::span<const std::uint64_t>(mine),
        [&](int src, std::span<const std::uint64_t> payload) {
          order.push_back(src);
          for (const std::uint64_t word : payload) total += word;
        },
        0);
    if (comm.rank() == 0) {
      ASSERT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
      EXPECT_EQ(total, 1u + 2 + 3 + 4);
    } else {
      // Non-root callables are never invoked.
      EXPECT_TRUE(order.empty());
    }
  });
  EXPECT_EQ(runtime.last_world_stats().reduce_merge_bytes.load(),
            9 * sizeof(std::uint64_t));
  EXPECT_GT(runtime.last_world_stats().total_bytes(), 0u);
}

TEST(VariableLength, RepeatedRoundsInterleaveWithFixedCollectives) {
  Runtime runtime(quiet(4, 2));
  runtime.run([&](Comm& comm) {
    for (int round = 0; round < 12; ++round) {
      const std::vector<std::uint64_t> mine(
          static_cast<std::size_t>(round % 3) + 1,
          static_cast<std::uint64_t>(comm.rank()));
      std::uint64_t merged = 0;
      comm.reduce_merge(
          std::span<const std::uint64_t>(mine),
          [&](int, std::span<const std::uint64_t> payload) {
            for (const std::uint64_t word : payload) merged += word;
          },
          0);
      std::uint8_t flag = comm.rank() == 0 ? 1 : 0;
      comm.bcast(std::span{&flag, 1}, 0);
      ASSERT_EQ(flag, 1);
      if (comm.rank() == 0) {
        const auto width = static_cast<std::uint64_t>(round % 3) + 1;
        EXPECT_EQ(merged, width * (0 + 1 + 2 + 3));
      }
    }
  });
}

// --- All-reduce family (decentralized termination) ---------------------------
//
// The butterfly collectives exist so every rank can end an epoch holding
// the merged aggregate and evaluate the stop rule locally - no rooted
// reduce, no verdict broadcast. Their contracts: parity with the rooted
// composition they replace, and zero root_ingest_bytes (there is no root).

// Synthesizes rank r's sparse wire image: overlapping indices across ranks
// (every image shares index 0).
std::vector<std::uint64_t> rank_image(int rank) {
  const auto r = static_cast<std::uint64_t>(rank);
  // Pairs (0, 1), (r+1, 2), (r+40, 7): ascending indices, slot 0 shared.
  return {epoch::kSparseTag, 3, 0, 1, r + 1, 2, r + 40, 7};
}

TEST(AllReduceFamily, AllreduceMatchesReduceThenBcastOnOddRanks) {
  // Non-power-of-two rank count: the butterfly must handle the ragged
  // stage without dropping or double-counting a contribution.
  Runtime runtime(quiet(5));
  runtime.run([&](Comm& comm) {
    std::vector<std::uint64_t> mine(8);
    for (std::size_t i = 0; i < mine.size(); ++i)
      mine[i] = static_cast<std::uint64_t>(comm.rank() + 1) * (i + 1);

    std::vector<std::uint64_t> everywhere(8, 0);
    comm.allreduce(std::span<const std::uint64_t>(mine),
                   std::span(everywhere));

    // The rooted composition decentralized termination replaced.
    std::vector<std::uint64_t> rooted(8, 0);
    comm.reduce(std::span<const std::uint64_t>(mine), std::span(rooted), 0);
    comm.bcast(std::span(rooted), 0);

    ASSERT_EQ(everywhere, rooted);
    EXPECT_EQ(everywhere[3], (1u + 2 + 3 + 4 + 5) * 4);
  });
  // Only the rooted reduce ingested at a root (four non-root frames of
  // eight words); the rootless butterfly charged nothing.
  EXPECT_EQ(runtime.last_world_stats().root_ingest_bytes.load(),
            4u * 8 * sizeof(std::uint64_t));
  EXPECT_EQ(runtime.last_world_stats().allreduce_calls.load(), 5u);
}

TEST(AllReduceFamily, AllreduceMergeGivesEveryRankTheRootedAggregate) {
  constexpr int kRanks = 5;
  // Every rank decodes the replayed contributions; rank order makes the
  // result bitwise identical to the rooted merge at rank 0.
  std::vector<std::vector<std::uint64_t>> dense(
      kRanks, std::vector<std::uint64_t>(128, 0));
  std::vector<std::vector<int>> sources(kRanks);
  std::vector<std::uint64_t> rooted(128, 0);
  Runtime runtime(quiet(kRanks));
  runtime.run([&](Comm& comm) {
    const std::vector<std::uint64_t> mine = rank_image(comm.rank());
    comm.allreduce_merge(
        std::span<const std::uint64_t>(mine),
        [&, r = comm.rank()](int src, std::span<const std::uint64_t> image) {
          sources[r].push_back(src);
          epoch::decode_add_image(std::span<std::uint64_t>(dense[r]), image);
        });
    comm.reduce_merge(
        std::span<const std::uint64_t>(mine),
        [&](int, std::span<const std::uint64_t> image) {
          epoch::decode_add_image(std::span<std::uint64_t>(rooted), image);
        },
        0);
  });
  for (int r = 0; r < kRanks; ++r) {
    EXPECT_EQ(sources[r], (std::vector<int>{0, 1, 2, 3, 4})) << "rank " << r;
    EXPECT_EQ(dense[r], rooted) << "rank " << r;
  }
  EXPECT_EQ(runtime.last_world_stats().allreduce_merge_calls.load(),
            static_cast<std::uint64_t>(kRanks));
  // Only the rooted reduce_merge ingested at a root; the decentralized
  // merge contributed nothing to that counter.
  EXPECT_EQ(runtime.last_world_stats().root_ingest_bytes.load(),
            (kRanks - 1) * rank_image(1).size() * sizeof(std::uint64_t));
}

TEST(AllReduceFamily, NonBlockingFlavorsCompleteAtEveryRank) {
  Runtime runtime(quiet(6, 2));
  runtime.run([&](Comm& comm) {
    const std::vector<std::uint64_t> one{1, 2};
    const std::vector<std::uint64_t> two{3};
    std::uint64_t first = 0;
    std::uint64_t second = 0;
    Request first_merge = comm.iallreduce_merge(
        std::span<const std::uint64_t>(one),
        [&](int, std::span<const std::uint64_t> payload) {
          first += payload[0] + payload[1];
        });
    Request second_merge = comm.iallreduce_merge(
        std::span<const std::uint64_t>(two),
        [&](int, std::span<const std::uint64_t> payload) {
          second += payload[0];
        });
    // Completion out of post order: each request matches its own slot.
    second_merge.wait();
    first_merge.wait();
    EXPECT_EQ(first, 18u);   // all six (1 + 2) contributions replayed
    EXPECT_EQ(second, 18u);  // all six 3s
  });
}

TEST(AllReduceFamily, MergeReplaysRunConcurrently) {
  // Every rank replays all P images into its own consumer; the replays run
  // outside the communicator lock, so they overlap instead of running one
  // after another. Each consumer announces itself on its first image and
  // then waits (bounded) until every rank's consumer is inside: replays
  // serialized under one lock would each see only their predecessors.
  constexpr int kRanks = 4;
  std::atomic<int> inside{0};
  std::vector<int> seen(kRanks, 0);
  Runtime runtime(quiet(kRanks));
  runtime.run([&](Comm& comm) {
    const std::uint64_t one = 1;
    comm.allreduce_merge(
        std::span<const std::uint64_t>(&one, 1),
        [&, r = comm.rank()](int src, std::span<const std::uint64_t>) {
          if (src != 0) return;
          inside.fetch_add(1);
          const auto deadline =
              detail::Clock::now() + std::chrono::milliseconds(500);
          while (inside.load() < kRanks && detail::Clock::now() < deadline)
            std::this_thread::yield();
          seen[r] = inside.load();
        });
  });
  for (int r = 0; r < kRanks; ++r) EXPECT_EQ(seen[r], kRanks) << "rank " << r;
}

TEST(AllReduceFamily, ButterflySlotsReuseCleanlyAcrossRounds) {
  // Repeated rounds interleaving every butterfly flavor with the rooted
  // ones: slot reuse must not leak state between rounds or flavors.
  Runtime runtime(quiet(4, 2));
  runtime.run([&](Comm& comm) {
    for (int round = 0; round < 10; ++round) {
      const std::uint64_t mine =
          static_cast<std::uint64_t>(comm.rank() + round);
      std::vector<std::uint64_t> sum{0};
      comm.allreduce(std::span<const std::uint64_t>(&mine, 1),
                     std::span(sum));
      ASSERT_EQ(sum[0], static_cast<std::uint64_t>(0 + 1 + 2 + 3 + 4 * round));

      std::uint64_t merged = 0;
      comm.allreduce_merge(
          std::span<const std::uint64_t>(&mine, 1),
          [&](int, std::span<const std::uint64_t> payload) {
            merged += payload[0];
          });
      ASSERT_EQ(merged, sum[0]);

      std::vector<std::uint64_t> rooted{0};
      comm.reduce(std::span<const std::uint64_t>(&mine, 1),
                  std::span(rooted), 0);
      if (comm.rank() == 0) { ASSERT_EQ(rooted[0], sum[0]); }
    }
  });
}

// --- Slot-protocol parity ----------------------------------------------------
//
// The §IV-F economics of the factored protocol must hold for the
// non-blocking merge the engine's kIreduce strategy uses (the all-reduce
// merge), and leave the blocking calls at their plain deadline: the
// progression penalty stretches the non-blocking completion deadline, and
// the poll tax burns CPU on every unsuccessful poll.

double thread_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

TEST(SlotProtocol, ProgressionPenaltyIsUniformAcrossFlavors) {
  RuntimeConfig config;
  config.num_ranks = 2;
  config.network.remote_latency_s = 20e-3;  // modeled cost dominated by alpha
  config.network.remote_bandwidth_bps = 1e12;
  config.network.ireduce_progression_factor = 3.0;
  config.network.ireduce_poll_cost_s = 0.0;

  // Per flavor: elapsed wall time of the blocking call and of the
  // non-blocking wait(), measured at the root.
  struct Timing {
    double blocking_s = 0.0;
    double nonblocking_s = 0.0;
  };
  const auto time_flavor = [&](auto blocking, auto nonblocking) {
    Timing timing;
    Runtime runtime(config);
    runtime.run([&](Comm& comm) {
      const auto start = detail::Clock::now();
      blocking(comm);
      const auto mid = detail::Clock::now();
      Request request = nonblocking(comm);
      request.wait();
      const auto end = detail::Clock::now();
      if (comm.rank() == 0) {
        timing.blocking_s = std::chrono::duration<double>(mid - start).count();
        timing.nonblocking_s = std::chrono::duration<double>(end - mid).count();
      }
    });
    return timing;
  };
  // Blocking-only calls (the sample-count reduce and the top-k merge):
  // elapsed wall time at the root.
  const auto time_blocking = [&](auto blocking) {
    double blocking_s = 0.0;
    Runtime runtime(config);
    runtime.run([&](Comm& comm) {
      const auto start = detail::Clock::now();
      blocking(comm);
      const auto end = detail::Clock::now();
      if (comm.rank() == 0) {
        blocking_s = std::chrono::duration<double>(end - start).count();
      }
    });
    return blocking_s;
  };

  const std::vector<std::uint64_t> payload(64, 1);
  std::vector<std::uint64_t> recv(64, 0);
  const auto merge = [](int, std::span<const std::uint64_t>) {};
  const double reduce_s = time_blocking([&](Comm& comm) {
    comm.reduce(std::span<const std::uint64_t>(payload), std::span(recv), 0);
  });
  const double mergev_s = time_blocking([&](Comm& comm) {
    comm.reduce_merge(std::span<const std::uint64_t>(payload), merge, 0);
  });
  const Timing butterfly = time_flavor(
      [&](Comm& comm) {
        comm.allreduce_merge(std::span<const std::uint64_t>(payload), merge);
      },
      [&](Comm& comm) {
        return comm.iallreduce_merge(std::span<const std::uint64_t>(payload),
                                     merge);
      });

  // The blocking deadline is >= one modeled alpha; the non-blocking one is
  // stretched by the progression factor. Lower bounds only: upper bounds
  // are scheduler-dependent on a loaded host.
  EXPECT_GE(reduce_s, 0.9 * 20e-3);
  EXPECT_GE(mergev_s, 0.9 * 20e-3);
  EXPECT_GE(butterfly.blocking_s, 0.9 * 20e-3);
  EXPECT_GE(butterfly.nonblocking_s, 0.9 * 3.0 * 20e-3);
}

TEST(SlotProtocol, PollTaxAccruesForEveryNonBlockingFlavor) {
  RuntimeConfig config;
  config.num_ranks = 2;
  config.network.remote_latency_s = 60e-3;  // stays pending through the polls
  config.network.remote_bandwidth_bps = 1e12;
  config.network.ireduce_poll_cost_s = 2e-3;

  const std::vector<std::uint64_t> payload(16, 1);
  const auto merge = [](int, std::span<const std::uint64_t>) {};
  const auto cpu_of_failed_polls = [&](auto start_op) {
    double cpu_s = 0.0;
    Runtime runtime(config);
    runtime.run([&](Comm& comm) {
      Request request = start_op(comm);
      if (comm.rank() == 0) {
        const double before = thread_cpu_seconds();
        for (int i = 0; i < 8; ++i) (void)request.test();
        cpu_s = thread_cpu_seconds() - before;
      }
      request.wait();
    });
    return cpu_s;
  };

  const double butterfly_cpu = cpu_of_failed_polls([&](Comm& comm) {
    return comm.iallreduce_merge(std::span<const std::uint64_t>(payload),
                                 merge);
  });
  // Eight unsuccessful rank-0 polls burn ~8 x 2ms of modeled progression
  // CPU. The spin deadline is wall time, so a descheduled
  // thread records less CPU - assert a third as the floor so loaded CI
  // hosts stay green while a missing poll tax (near-zero CPU) still fails.
  EXPECT_GE(butterfly_cpu, 8 * 2e-3 / 3);
}

TEST(SlotProtocol, OutstandingFlavorsMatchByTicketOrder) {
  Runtime runtime(quiet(4));
  runtime.run([&](Comm& comm) {
    // Three different slot kinds in flight at once; completion out of post
    // order must still match each request to its own slot.
    Request barrier = comm.ibarrier();
    std::uint64_t root_word = comm.rank() == 0 ? 7 : 0;
    Request bcast = comm.ibcast(std::span{&root_word, 1}, 0);
    const std::vector<std::uint64_t> one{1};
    std::uint64_t merged = 0;
    Request merge = comm.iallreduce_merge(
        std::span<const std::uint64_t>(one),
        [&merged](int, std::span<const std::uint64_t> payload) {
          merged += payload[0];
        });
    merge.wait();
    bcast.wait();
    barrier.wait();
    EXPECT_EQ(root_word, 7u);
    EXPECT_EQ(merged, 4u);
  });
}

TEST(Runtime, ManyRanksStress) {
  Runtime runtime(quiet(24));
  std::atomic<std::uint64_t> total{0};
  runtime.run([&](Comm& comm) {
    const std::vector<std::uint64_t> one{1};
    std::vector<std::uint64_t> sum{0};
    for (int round = 0; round < 10; ++round) {
      comm.allreduce(std::span<const std::uint64_t>(one), std::span(sum));
      ASSERT_EQ(sum[0], 24u);
    }
    total += sum[0];
  });
  EXPECT_EQ(total.load(), 24u * 24);
}

}  // namespace
}  // namespace distbc::mpisim
