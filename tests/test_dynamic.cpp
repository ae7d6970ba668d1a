// Tests for src/dynamic/: EdgeBatch validation must reject every batch
// that could corrupt the CSR or the ledger accounting, MutableGraph must
// serve small batches in place and rebuild on slot overflow (and revert
// exactly), IncrementalBc must keep clean samples across churn, replay
// bitwise-deterministically, and recalibrate only when a vertex-diameter
// bound grows omega, Bloom sketch false positives must cost only extra
// resamples (never wrong scores), SampleLedger verdicts must match golden
// digests and scanned-set membership while its allocations stay flat
// across refreshes, DynamicState must skip the bound only for batches
// that keep its reference snapshot (scores bitwise those of an exactly
// bounded twin) and reject queries on a split graph typed, and the
// Session/pool/dispatcher apply paths must reject typed, keep the
// connectivity verdict and warm-state bounds sound, and stay bitwise
// identical across pool sizes.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <memory>
#include <thread>
#include <vector>

#include "api/config.hpp"
#include "api/session.hpp"
#include "dynamic/dynamic_state.hpp"
#include "dynamic/edge_batch.hpp"
#include "dynamic/incremental_bc.hpp"
#include "dynamic/mutable_graph.hpp"
#include "gen/erdos_renyi.hpp"
#include "graph/bfs.hpp"
#include "graph/builder.hpp"
#include "graph/components.hpp"
#include "graph/diameter.hpp"
#include "graph/stats.hpp"
#include "service/dispatcher.hpp"
#include "service/session_pool.hpp"
#include "support/random.hpp"

namespace distbc {
namespace {

graph::Graph churn_graph(std::uint64_t seed = 777) {
  return graph::largest_component(gen::erdos_renyi(120, 360, seed));
}

bc::KadabraParams churn_params(double epsilon = 0.1) {
  bc::KadabraParams params;
  params.epsilon = epsilon;
  params.delta = 0.1;
  params.seed = 0x5eed;
  return params;
}

dynamic::SketchParams exact_sketch() {
  dynamic::SketchParams sketch;
  sketch.exact_cap = 1u << 20;  // every record stays an exact list
  return sketch;
}

dynamic::SketchParams bloom_sketch() {
  dynamic::SketchParams sketch;
  sketch.exact_cap = 0;  // every record falls back to a Bloom filter
  return sketch;
}

/// First missing edge (u, v) with u < v and u >= `from`.
dynamic::Edge missing_edge(const graph::Graph& graph, graph::Vertex from = 0) {
  for (graph::Vertex u = from; u < graph.num_vertices(); ++u)
    for (graph::Vertex v = u + 1; v < graph.num_vertices(); ++v)
      if (!graph.has_edge(u, v)) return {u, v};
  ADD_FAILURE() << "graph is complete";
  return {0, 0};
}

/// First present edge (u, v) with u < v and u >= `from`.
dynamic::Edge present_edge(const graph::Graph& graph, graph::Vertex from = 0) {
  for (graph::Vertex u = from; u < graph.num_vertices(); ++u)
    for (const graph::Vertex v : graph.neighbors(u))
      if (v > u) return {u, v};
  ADD_FAILURE() << "graph is empty";
  return {0, 0};
}

/// A random edge absent from `graph` and from `queued`; `anchor` (when
/// valid) is one of its endpoints.
dynamic::Edge random_absent_edge(const graph::Graph& graph, Rng& rng,
                                 const std::vector<dynamic::Edge>& queued,
                                 graph::Vertex anchor = graph::kInvalidVertex) {
  for (;;) {
    auto [a, b] = rng.next_distinct_pair(graph.num_vertices());
    if (anchor != graph::kInvalidVertex) {
      if (b == anchor) continue;
      a = anchor;
    }
    const dynamic::Edge edge{static_cast<graph::Vertex>(std::min(a, b)),
                             static_cast<graph::Vertex>(std::max(a, b))};
    if (graph.has_edge(edge.u, edge.v) ||
        std::find(queued.begin(), queued.end(), edge) != queued.end())
      continue;
    return edge;
  }
}

/// Two 30-vertex cycles with no edge between them.
std::shared_ptr<const graph::Graph> two_cycles() {
  std::vector<std::pair<graph::Vertex, graph::Vertex>> edges;
  for (graph::Vertex base : {0u, 30u})
    for (graph::Vertex i = 0; i < 30; ++i)
      edges.emplace_back(base + i, base + (i + 1) % 30);
  return std::make_shared<const graph::Graph>(graph::from_edges(60, edges));
}

/// A batch of `count` random absent edges (deterministic in `rng`), none
/// already queued in `inserted`.
dynamic::EdgeBatch random_insert_batch(const graph::Graph& graph, int count,
                                       Rng& rng,
                                       std::vector<dynamic::Edge>* inserted) {
  dynamic::EdgeBatch batch;
  for (int added = 0; added < count; ++added) {
    const dynamic::Edge edge = random_absent_edge(graph, rng, *inserted);
    batch.insert(edge.u, edge.v);
    inserted->push_back(edge);
  }
  return batch;
}

// --- EdgeBatch validation ----------------------------------------------------

TEST(EdgeBatch, ValidationRejectsEveryMalformedBatch) {
  const graph::Graph graph = churn_graph();
  const dynamic::Edge absent = missing_edge(graph);
  const dynamic::Edge existing = present_edge(graph);

  {
    dynamic::EdgeBatch batch;  // empty batches validate (apply rejects them)
    EXPECT_TRUE(batch.validate(graph).ok);
  }
  {
    dynamic::EdgeBatch batch;
    batch.insert(3, 3);  // self-loop
    EXPECT_FALSE(batch.validate(graph).ok);
    EXPECT_FALSE(batch.validated());
  }
  {
    dynamic::EdgeBatch batch;
    batch.insert(0, graph.num_vertices());  // endpoint out of range
    EXPECT_FALSE(batch.validate(graph).ok);
  }
  {
    dynamic::EdgeBatch batch;  // duplicate (orientation-insensitive)
    batch.insert(absent.u, absent.v);
    batch.insert(absent.v, absent.u);
    EXPECT_FALSE(batch.validate(graph).ok);
  }
  {
    dynamic::EdgeBatch batch;  // same edge inserted AND deleted
    batch.insert(absent.u, absent.v);
    batch.remove(absent.u, absent.v);
    EXPECT_FALSE(batch.validate(graph).ok);
  }
  {
    dynamic::EdgeBatch batch;  // inserting an edge the graph already has
    batch.insert(existing.u, existing.v);
    EXPECT_FALSE(batch.validate(graph).ok);
  }
  {
    dynamic::EdgeBatch batch;  // deleting an edge the graph lacks
    batch.remove(absent.u, absent.v);
    EXPECT_FALSE(batch.validate(graph).ok);
  }
  {
    dynamic::EdgeBatch batch;  // a well-formed batch seals...
    batch.insert(absent.v, absent.u);  // free orientation
    batch.remove(existing.u, existing.v);
    ASSERT_TRUE(batch.validate(graph).ok);
    EXPECT_TRUE(batch.validated());
    EXPECT_EQ(batch.inserts().front(), absent);  // normalized to u < v
    batch.insert(5, 7);  // ...and any later edit un-seals it
    EXPECT_FALSE(batch.validated());
  }
}

// --- MutableGraph -------------------------------------------------------------

TEST(MutableGraph, ServesInPlaceRebuildOnOverflowAndRevertsExactly) {
  const auto initial = std::make_shared<const graph::Graph>(churn_graph());
  const std::uint64_t fp0 = graph::fingerprint(*initial);
  dynamic::MutableGraph mutable_graph(initial);
  EXPECT_EQ(mutable_graph.version(), 0u);

  // One insert + one delete fit every vertex's slack slots: in place.
  const dynamic::Edge added = missing_edge(*initial);
  const dynamic::Edge dropped = present_edge(*initial);
  dynamic::EdgeBatch small;
  small.insert(added.u, added.v);
  small.remove(dropped.u, dropped.v);
  ASSERT_TRUE(small.validate(*initial).ok);
  EXPECT_TRUE(mutable_graph.apply(small));
  EXPECT_EQ(mutable_graph.stats().in_place, 1u);
  EXPECT_EQ(mutable_graph.version(), 1u);
  EXPECT_NE(mutable_graph.fingerprint(), fp0);
  EXPECT_TRUE(mutable_graph.snapshot()->has_edge(added.u, added.v));
  EXPECT_FALSE(mutable_graph.snapshot()->has_edge(dropped.u, dropped.v));
  EXPECT_EQ(mutable_graph.snapshot()->num_edges(), initial->num_edges());

  // revert() restores the exact edge set - the content fingerprint is the
  // original one again.
  mutable_graph.revert(small);
  EXPECT_EQ(mutable_graph.fingerprint(), fp0);
  EXPECT_FALSE(mutable_graph.snapshot()->has_edge(added.u, added.v));
  EXPECT_TRUE(mutable_graph.snapshot()->has_edge(dropped.u, dropped.v));

  // Concentrating many inserts on one vertex overflows its slots: the
  // apply takes the rebuild path and every edge still lands.
  const graph::Vertex hub = 0;
  dynamic::EdgeBatch heavy;
  int queued = 0;
  for (graph::Vertex v = 1; v < initial->num_vertices() && queued < 24; ++v) {
    if (mutable_graph.snapshot()->has_edge(hub, v)) continue;
    heavy.insert(hub, v);
    ++queued;
  }
  ASSERT_EQ(queued, 24);
  ASSERT_TRUE(heavy.validate(*mutable_graph.snapshot()).ok);
  EXPECT_FALSE(mutable_graph.apply(heavy));
  EXPECT_EQ(mutable_graph.stats().rebuilds, 1u);
  for (const dynamic::Edge& edge : heavy.inserts())
    EXPECT_TRUE(mutable_graph.snapshot()->has_edge(edge.u, edge.v));
  EXPECT_EQ(mutable_graph.snapshot()->num_edges(),
            initial->num_edges() + 24);
}

// --- IncrementalBc ------------------------------------------------------------

TEST(IncrementalBc, CleanSamplesSurviveChurn) {
  const auto initial = std::make_shared<const graph::Graph>(churn_graph());
  dynamic::IncrementalBc engine(churn_params(), exact_sketch());
  engine.run(initial);
  ASSERT_TRUE(engine.ran());
  const std::uint64_t samples0 = engine.samples();
  ASSERT_GT(samples0, 0u);
  EXPECT_EQ(engine.ledger().size(), samples0);

  dynamic::MutableGraph mutable_graph(initial);
  dynamic::EdgeBatch batch;
  const dynamic::Edge e1 = missing_edge(*initial, 10);
  const dynamic::Edge e2 = missing_edge(*initial, 40);
  batch.insert(e1.u, e1.v);
  batch.insert(e2.u, e2.v);
  ASSERT_TRUE(batch.validate(*initial).ok);
  mutable_graph.apply(batch);

  const auto stats =
      engine.refresh(mutable_graph.snapshot(), batch, /*diameter_bound=*/0);
  // The whole point of the ledger: most samples never scanned the touched
  // region and survive the batch untouched.
  EXPECT_GT(stats.retained, 0u);
  EXPECT_LT(stats.dirty, samples0);
  EXPECT_EQ(stats.retained + stats.dirty, samples0);
  EXPECT_EQ(stats.resampled, stats.dirty);
  EXPECT_FALSE(stats.recalibrated);
  // Slot replacement keeps the estimator an average over exactly
  // ledger-many samples; only the re-run stop rule can grow it.
  EXPECT_EQ(engine.samples(), samples0 + stats.topup);
  EXPECT_EQ(engine.ledger().size(), engine.samples());
}

TEST(IncrementalBc, RunPlusRefreshSequencesReplayBitwise) {
  const auto initial = std::make_shared<const graph::Graph>(churn_graph());
  const dynamic::Edge added = missing_edge(*initial, 5);
  const dynamic::Edge dropped = present_edge(*initial, 20);

  const auto replay = [&] {
    dynamic::MutableGraph mutable_graph(initial);
    dynamic::IncrementalBc engine(churn_params(), exact_sketch());
    engine.run(initial);
    dynamic::EdgeBatch first;
    first.insert(added.u, added.v);
    EXPECT_TRUE(first.validate(*mutable_graph.snapshot()).ok);
    mutable_graph.apply(first);
    engine.refresh(mutable_graph.snapshot(), first, 0);
    dynamic::EdgeBatch second;
    second.remove(added.u, added.v);
    second.remove(dropped.u, dropped.v);
    EXPECT_TRUE(second.validate(*mutable_graph.snapshot()).ok);
    mutable_graph.apply(second);
    EXPECT_TRUE(graph::is_connected(*mutable_graph.snapshot()));
    engine.refresh(
        mutable_graph.snapshot(), second,
        graph::vertex_diameter(*mutable_graph.snapshot(), /*exact=*/true));
    return std::tuple{engine.scores(), engine.samples(), engine.next_stream(),
                      engine.epochs()};
  };

  const auto [scores_a, samples_a, stream_a, epochs_a] = replay();
  const auto [scores_b, samples_b, stream_b, epochs_b] = replay();
  EXPECT_EQ(samples_a, samples_b);
  EXPECT_EQ(stream_a, stream_b);
  EXPECT_EQ(epochs_a, epochs_b);
  ASSERT_EQ(scores_a.size(), scores_b.size());
  for (std::size_t v = 0; v < scores_a.size(); ++v)
    EXPECT_EQ(scores_a[v], scores_b[v]) << "vertex " << v;
}

TEST(IncrementalBc, RecalibratesOnlyWhenTheBoundIsViolated) {
  // Seed 21's phase-1 bound, VD 7, sits below the top of its bucket (9),
  // so a larger bound of the same omega exists; the default churn graph's
  // bound is that top.
  const auto initial = std::make_shared<const graph::Graph>(churn_graph(21));
  dynamic::IncrementalBc engine(churn_params(), exact_sketch());
  engine.run(initial);
  // A twin that sees every batch but is refreshed with bound 0 where the
  // engine gets a larger bound of the same omega.
  dynamic::IncrementalBc twin(churn_params(), exact_sketch());
  twin.run(initial);
  const std::uint32_t vd0 = engine.vertex_diameter();
  const std::uint64_t omega0 = engine.context().omega;

  dynamic::MutableGraph mutable_graph(initial);
  const auto apply_one_insert = [&](graph::Vertex from) {
    dynamic::EdgeBatch batch;
    const dynamic::Edge edge = missing_edge(*mutable_graph.snapshot(), from);
    batch.insert(edge.u, edge.v);
    EXPECT_TRUE(batch.validate(*mutable_graph.snapshot()).ok);
    mutable_graph.apply(batch);
    return batch;
  };

  // Bound 0: the caller asserts the cached bound still holds (insert-only).
  dynamic::EdgeBatch batch = apply_one_insert(3);
  auto stats = engine.refresh(mutable_graph.snapshot(), batch, 0);
  twin.refresh(mutable_graph.snapshot(), batch, 0);
  EXPECT_FALSE(stats.recalibrated);
  EXPECT_EQ(engine.vertex_diameter(), vd0);
  EXPECT_EQ(engine.context().omega, omega0);

  // A recomputed bound at or below the cached one keeps omega too.
  batch = apply_one_insert(17);
  stats = engine.refresh(mutable_graph.snapshot(), batch, vd0);
  twin.refresh(mutable_graph.snapshot(), batch, vd0);
  EXPECT_FALSE(stats.recalibrated);
  EXPECT_EQ(engine.context().omega, omega0);

  // A larger bound in the same omega bucket - the bucket's top VD, where
  // VD - 2 = 2^(b + 1) - 1 - is adopted without recalibrating: the scores
  // are bitwise those of a bound-0 refresh.
  const std::uint32_t bucket_top = (2u << bc::diameter_bucket(vd0)) + 1;
  ASSERT_GT(bucket_top, vd0);
  ASSERT_EQ(bc::compute_omega(bucket_top, engine.params().epsilon,
                              engine.params().delta),
            omega0);
  batch = apply_one_insert(23);
  stats = engine.refresh(mutable_graph.snapshot(), batch, bucket_top);
  twin.refresh(mutable_graph.snapshot(), batch, 0);
  EXPECT_FALSE(stats.recalibrated);
  EXPECT_EQ(engine.vertex_diameter(), bucket_top);
  EXPECT_EQ(engine.context().omega, omega0);
  EXPECT_EQ(engine.scores(), twin.scores());

  // Only a bound that grows omega, the next bucket's first VD, re-derives
  // it and the stopping radii.
  stats = engine.refresh(mutable_graph.snapshot(), apply_one_insert(31),
                         bucket_top + 1);
  EXPECT_TRUE(stats.recalibrated);
  EXPECT_EQ(engine.vertex_diameter(), bucket_top + 1);
  EXPECT_GT(engine.context().omega, omega0);
  // The regrown omega re-ran the stop rule on the merged aggregate.
  EXPECT_EQ(engine.samples(), engine.ledger().size());
}

// --- Bloom-sketch property: false positives never change scores ---------------

TEST(SampleLedger, BloomFalsePositivesOnlyCostExtraResamples) {
  const auto initial = std::make_shared<const graph::Graph>(churn_graph(42));
  const bc::KadabraParams params = churn_params(0.05);

  dynamic::IncrementalBc exact_engine(params, exact_sketch());
  dynamic::IncrementalBc bloom_engine(params, bloom_sketch());
  exact_engine.run(initial);
  bloom_engine.run(initial);
  EXPECT_EQ(bloom_engine.ledger().bloom_sketches(),
            bloom_engine.ledger().size());
  EXPECT_EQ(exact_engine.ledger().bloom_sketches(), 0u);

  // Random churn: every round inserts fresh random edges, later rounds
  // also delete edges inserted earlier (connectivity is preserved by
  // construction - the original edges never leave).
  Rng rng(1234);
  dynamic::MutableGraph mutable_graph(initial);
  std::vector<dynamic::Edge> inserted;
  std::uint64_t exact_dirty = 0;
  std::uint64_t bloom_dirty = 0;
  for (int round = 0; round < 4; ++round) {
    dynamic::EdgeBatch batch = random_insert_batch(
        *mutable_graph.snapshot(), /*count=*/3, rng, &inserted);
    bool deletes = false;
    if (round >= 2) {
      const dynamic::Edge victim = inserted.front();
      inserted.erase(inserted.begin());
      batch.remove(victim.u, victim.v);
      deletes = true;
    }
    ASSERT_TRUE(batch.validate(*mutable_graph.snapshot()).ok);
    mutable_graph.apply(batch);
    ASSERT_TRUE(graph::is_connected(*mutable_graph.snapshot()));
    const std::uint32_t bound =
        deletes ? graph::vertex_diameter(*mutable_graph.snapshot(), true) : 0;
    const auto exact_stats =
        exact_engine.refresh(mutable_graph.snapshot(), batch, bound);
    const auto bloom_stats =
        bloom_engine.refresh(mutable_graph.snapshot(), batch, bound);
    exact_dirty += exact_stats.dirty;
    bloom_dirty += bloom_stats.dirty;
    EXPECT_EQ(exact_stats.bloom_dirty, 0u);
  }

  // False positives can only ADD dirty verdicts...
  EXPECT_GE(bloom_dirty, exact_dirty);

  // ...and every extra verdict costs one resample, never a wrong score:
  // both estimators agree with a from-scratch run on the final snapshot
  // within the KADABRA error budget.
  dynamic::IncrementalBc reference(params, exact_sketch());
  reference.run(mutable_graph.snapshot());
  const std::vector<double> ref = reference.scores();
  for (const auto* engine : {&exact_engine, &bloom_engine}) {
    const std::vector<double> scores = engine->scores();
    ASSERT_EQ(scores.size(), ref.size());
    for (std::size_t v = 0; v < ref.size(); ++v)
      EXPECT_NEAR(scores[v], ref[v], 3 * params.epsilon) << "vertex " << v;
    // Statistical contract: the estimator is an average over exactly
    // ledger-many samples.
    EXPECT_EQ(engine->samples(), engine->ledger().size());
  }
}

// --- SampleLedger verdicts -----------------------------------------------------

/// FNV-1a over 64-bit words: order-sensitive, so any change in a dirty
/// index, the dirty count, or bloom_dirty changes the digest.
class Fnv {
 public:
  void add(std::uint64_t word) {
    for (int byte = 0; byte < 8; ++byte) {
      hash_ ^= (word >> (8 * byte)) & 0xffU;
      hash_ *= 0x100000001b3ULL;
    }
  }
  [[nodiscard]] std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

void add_verdict(Fnv& fnv,
                 const dynamic::SampleLedger::Classification& verdict) {
  fnv.add(verdict.dirty.size());
  for (const std::uint32_t index : verdict.dirty) fnv.add(index);
  fnv.add(verdict.bloom_dirty);
}

enum class BatchKind { kInsertOnly, kDeleteOnly, kMixed, kSharedEndpoints };

/// One seeded batch of `kind` against `graph`, validated. Deletions take
/// the oldest edges in `churned` (inserted by earlier batches), so the
/// original edges never leave and the graph stays connected; this batch's
/// inserts are appended to `churned`. Shared-endpoint batches insert three
/// edges on one hub and delete an edge whose endpoint another insert
/// reuses, so endpoints repeat within and across the two lists.
dynamic::EdgeBatch seeded_batch(BatchKind kind, const graph::Graph& graph,
                                Rng& rng, std::deque<dynamic::Edge>& churned) {
  std::vector<dynamic::Edge> inserts;
  std::vector<dynamic::Edge> deletes;
  const auto take_oldest = [&] {
    deletes.push_back(churned.front());
    churned.pop_front();
  };
  switch (kind) {
    case BatchKind::kInsertOnly:
      for (int i = 0; i < 3; ++i)
        inserts.push_back(random_absent_edge(graph, rng, inserts));
      break;
    case BatchKind::kDeleteOnly:
      take_oldest();
      take_oldest();
      break;
    case BatchKind::kMixed:
      for (int i = 0; i < 2; ++i)
        inserts.push_back(random_absent_edge(graph, rng, inserts));
      take_oldest();
      break;
    case BatchKind::kSharedEndpoints: {
      const auto hub =
          static_cast<graph::Vertex>(rng.next_bounded(graph.num_vertices()));
      for (int i = 0; i < 3; ++i)
        inserts.push_back(random_absent_edge(graph, rng, inserts, hub));
      take_oldest();
      inserts.push_back(
          random_absent_edge(graph, rng, inserts, deletes.front().v));
      break;
    }
  }
  dynamic::EdgeBatch batch;
  for (const dynamic::Edge& edge : inserts) batch.insert(edge.u, edge.v);
  for (const dynamic::Edge& edge : deletes) batch.remove(edge.u, edge.v);
  EXPECT_TRUE(batch.validate(graph).ok);
  churned.insert(churned.end(), inserts.begin(), inserts.end());
  return batch;
}

/// Every batch kind three times, interleaved, in a fixed order.
constexpr BatchKind kPinnedKinds[] = {
    BatchKind::kInsertOnly,      BatchKind::kInsertOnly,
    BatchKind::kMixed,           BatchKind::kDeleteOnly,
    BatchKind::kSharedEndpoints, BatchKind::kMixed,
    BatchKind::kDeleteOnly,      BatchKind::kSharedEndpoints,
    BatchKind::kInsertOnly,      BatchKind::kMixed,
    BatchKind::kDeleteOnly,      BatchKind::kSharedEndpoints};

/// Digest of every classification a seeded run + refresh sequence makes
/// at sketch cap `exact_cap`: the verdicts AND, through the resampled
/// slots they feed, the ledger every later verdict is made on. The Bloom
/// filters are two words wide so that false positives occur and the
/// digest pins every probe position, not only the exact-list verdicts.
std::uint64_t verdict_digest(std::uint32_t exact_cap,
                             std::uint64_t* bloom_sketches = nullptr,
                             std::uint64_t* records = nullptr) {
  const auto initial = std::make_shared<const graph::Graph>(churn_graph());
  dynamic::SketchParams sketch;
  sketch.exact_cap = exact_cap;
  sketch.bloom_words = 2;
  dynamic::IncrementalBc engine(churn_params(), sketch);
  engine.run(initial);
  if (bloom_sketches != nullptr)
    *bloom_sketches = engine.ledger().bloom_sketches();
  if (records != nullptr) *records = engine.ledger().size();

  dynamic::MutableGraph mutable_graph(initial);
  std::deque<dynamic::Edge> churned;
  Rng rng(2718);
  Fnv fnv;
  for (const BatchKind kind : kPinnedKinds) {
    const dynamic::EdgeBatch batch =
        seeded_batch(kind, *mutable_graph.snapshot(), rng, churned);
    mutable_graph.apply(batch);
    fnv.add(engine.ledger().size());
    add_verdict(fnv, engine.ledger().classify(batch));
    const std::uint32_t bound =
        batch.deletes().empty()
            ? 0
            : graph::vertex_diameter(*mutable_graph.snapshot(), true);
    (void)engine.refresh(mutable_graph.snapshot(), batch, bound);
  }
  return fnv.value();
}

// The stored paths are what refresh subtracts when a later batch dirties
// their records, so after every refresh each connected record must hold a
// shortest path of the NEW snapshot between its stream's own pair: a
// clean record's path survived the batch, a dirty one was redrawn on it.
// Replaying the streams bitwise is not the oracle here (a retained
// sample's draw may differ from a redraw on the new graph and still be a
// uniform shortest path), so the check is the path property itself:
// s, path..., t is a walk over edges of the snapshot whose length is the
// BFS distance d(s, t).
TEST(IncrementalBc, RefreshedLedgerPathsAreShortestPathsOfTheNewSnapshot) {
  const auto initial = std::make_shared<const graph::Graph>(churn_graph());
  const bc::KadabraParams params = churn_params();
  dynamic::IncrementalBc engine(params, dynamic::SketchParams{});
  engine.run(initial);
  dynamic::MutableGraph mutable_graph(initial);
  std::deque<dynamic::Edge> churned;
  Rng rng(1618);
  std::uint64_t checked = 0;
  std::uint64_t deletion_batches = 0;
  for (const BatchKind kind : kPinnedKinds) {
    const dynamic::EdgeBatch batch =
        seeded_batch(kind, *mutable_graph.snapshot(), rng, churned);
    mutable_graph.apply(batch);
    const std::shared_ptr<const graph::Graph> snapshot =
        mutable_graph.snapshot();
    ASSERT_TRUE(graph::is_connected(*snapshot));
    deletion_batches += !batch.deletes().empty();
    const std::uint32_t bound =
        batch.deletes().empty() ? 0 : graph::vertex_diameter(*snapshot, true);
    (void)engine.refresh(snapshot, batch, bound);

    const dynamic::SampleLedger& ledger = engine.ledger();
    for (std::size_t i = 0; i < ledger.size(); ++i) {
      // Connected snapshot: every pair is connected.
      ASSERT_TRUE(ledger.connected(i)) << "record " << i;
      const auto [s, t] = Rng(params.seed)
                              .split(ledger.stream(i))
                              .next_distinct_pair(snapshot->num_vertices());
      std::vector<graph::Vertex> walk{static_cast<graph::Vertex>(s)};
      const auto path = ledger.path(i);
      walk.insert(walk.end(), path.begin(), path.end());
      walk.push_back(static_cast<graph::Vertex>(t));
      for (std::size_t k = 0; k + 1 < walk.size(); ++k)
        ASSERT_TRUE(snapshot->has_edge(walk[k], walk[k + 1]))
            << "record " << i << " hop " << k;
      const std::vector<std::uint32_t> distance =
          graph::bfs_distances(*snapshot, walk.front());
      ASSERT_EQ(walk.size() - 1, distance[walk.back()]) << "record " << i;
      ++checked;
    }
  }
  EXPECT_GE(deletion_batches, 3u);
  EXPECT_GT(checked, 0u);
}

TEST(SampleLedger, VerdictDigestsArePinned) {
  std::uint64_t bloom = 0;
  std::uint64_t records = 0;
  EXPECT_EQ(verdict_digest(0, &bloom, &records),
            12880189114524491050ULL);
  EXPECT_EQ(bloom, records);  // every record a Bloom filter

  EXPECT_EQ(verdict_digest(8, &bloom, &records),
            18299572991299874412ULL);
  EXPECT_GT(bloom, 0u);  // both sketch kinds in one ledger
  EXPECT_LT(bloom, records);

  EXPECT_EQ(verdict_digest(256, &bloom, &records),
            2821710544694617154ULL);
  EXPECT_EQ(bloom, 0u);  // every record an exact list
}

TEST(SampleLedger, ExactVerdictIsScannedSetMembershipAndBloomASuperset) {
  const auto initial = std::make_shared<const graph::Graph>(churn_graph());
  const graph::Vertex n = initial->num_vertices();
  Rng rng(31337);

  // Hand-made records: random scanned sets (duplicates and unsorted input
  // included, sizes 0..59) recorded into an all-exact and an all-Bloom
  // ledger.
  dynamic::SampleLedger exact(exact_sketch());
  dynamic::SampleLedger bloom(bloom_sketch());
  std::vector<std::vector<graph::Vertex>> scanned_sets;
  for (std::uint64_t i = 0; i < 400; ++i) {
    std::vector<graph::Vertex> scanned(rng.next_bounded(60));
    for (graph::Vertex& v : scanned)
      v = static_cast<graph::Vertex>(rng.next_bounded(n));
    exact.record(i, true, {}, scanned);
    bloom.record(i, true, {}, scanned);
    scanned_sets.push_back(std::move(scanned));
  }

  dynamic::MutableGraph mutable_graph(initial);
  std::deque<dynamic::Edge> churned;
  std::uint64_t dirty_total = 0;
  for (int round = 0; round < 3; ++round) {
    for (const BatchKind kind : kPinnedKinds) {
      const dynamic::EdgeBatch batch =
          seeded_batch(kind, *mutable_graph.snapshot(), rng, churned);
      mutable_graph.apply(batch);

      std::vector<graph::Vertex> endpoints;
      for (const auto list : {batch.inserts(), batch.deletes()})
        for (const dynamic::Edge& edge : list) {
          endpoints.push_back(edge.u);
          endpoints.push_back(edge.v);
        }
      std::vector<std::uint32_t> expected;
      for (std::uint32_t i = 0; i < scanned_sets.size(); ++i) {
        const auto& scanned = scanned_sets[i];
        const bool hit = std::any_of(
            endpoints.begin(), endpoints.end(), [&](graph::Vertex e) {
              return std::find(scanned.begin(), scanned.end(), e) !=
                     scanned.end();
            });
        if (hit) expected.push_back(i);
      }
      dirty_total += expected.size();

      const auto exact_verdict = exact.classify(batch);
      EXPECT_EQ(exact_verdict.dirty, expected);
      EXPECT_EQ(exact_verdict.bloom_dirty, 0u);

      const auto bloom_verdict = bloom.classify(batch);
      EXPECT_TRUE(std::includes(bloom_verdict.dirty.begin(),
                                bloom_verdict.dirty.end(), expected.begin(),
                                expected.end()));
      EXPECT_EQ(bloom_verdict.bloom_dirty, bloom_verdict.dirty.size());
    }
  }
  // The batches hit some records and missed others.
  EXPECT_GT(dirty_total, 0u);
  EXPECT_LT(dirty_total, std::size(kPinnedKinds) * 3 * scanned_sets.size());
}

TEST(SampleLedger, UnsortedExactSketchesMatchABruteForceSetTest) {
  // Exact lists are kept as scanned - unsorted, duplicates included - so
  // classify() is a plain membership scan. Batch endpoints stay below
  // kLow, so many listed vertices lie past the largest endpoint and past
  // the end of classify()'s endpoint bitmap: the scan must bounds-check
  // them (the sanitizer build turns a missing check into a hard error).
  const auto initial = std::make_shared<const graph::Graph>(churn_graph());
  const graph::Vertex n = initial->num_vertices();
  constexpr graph::Vertex kLow = 40;
  ASSERT_GT(n, 64u);  // some vertices sit a bitmap word past any endpoint
  Rng rng(2718);

  dynamic::SampleLedger ledger(exact_sketch());
  std::vector<std::vector<graph::Vertex>> lists;
  for (std::uint64_t i = 0; i < 300; ++i) {
    std::vector<graph::Vertex> list;
    const std::uint64_t size = rng.next_bounded(30);
    for (std::uint64_t k = 0; k < size; ++k) {
      // Half low (where endpoints live), half anywhere up to n - 1, and
      // every fourth entry a repeat of an earlier one.
      if (!list.empty() && rng.next_bounded(4) == 0)
        list.push_back(list[rng.next_bounded(list.size())]);
      else if (rng.next_bounded(2) == 0)
        list.push_back(static_cast<graph::Vertex>(rng.next_bounded(kLow)));
      else
        list.push_back(static_cast<graph::Vertex>(rng.next_bounded(n)));
    }
    ledger.record(i, true, {}, list);
    lists.push_back(std::move(list));
  }
  ASSERT_EQ(ledger.bloom_sketches(), 0u);

  std::uint64_t dirty_total = 0;
  for (int round = 0; round < 40; ++round) {
    // One to three absent low edges, and every other round a present low
    // edge deleted as well.
    dynamic::EdgeBatch batch;
    std::vector<dynamic::Edge> queued;
    const std::uint64_t inserts = 1 + rng.next_bounded(3);
    while (queued.size() < inserts) {
      auto [a, b] = rng.next_distinct_pair(kLow);
      const dynamic::Edge edge{static_cast<graph::Vertex>(std::min(a, b)),
                               static_cast<graph::Vertex>(std::max(a, b))};
      if (initial->has_edge(edge.u, edge.v) ||
          std::find(queued.begin(), queued.end(), edge) != queued.end())
        continue;
      batch.insert(edge.u, edge.v);
      queued.push_back(edge);
    }
    if (round % 2 == 1) {
      const dynamic::Edge edge = present_edge(
          *initial, static_cast<graph::Vertex>(rng.next_bounded(kLow / 2)));
      ASSERT_LT(edge.v, n);
      if (edge.v < kLow) batch.remove(edge.u, edge.v);
    }
    ASSERT_TRUE(batch.validate(*initial).ok);

    std::vector<graph::Vertex> endpoints;
    for (const auto list : {batch.inserts(), batch.deletes()})
      for (const dynamic::Edge& edge : list) {
        endpoints.push_back(edge.u);
        endpoints.push_back(edge.v);
      }
    std::vector<std::uint32_t> expected;
    for (std::uint32_t i = 0; i < lists.size(); ++i) {
      const bool hit = std::any_of(
          lists[i].begin(), lists[i].end(), [&](graph::Vertex v) {
            return std::find(endpoints.begin(), endpoints.end(), v) !=
                   endpoints.end();
          });
      if (hit) expected.push_back(i);
    }
    dirty_total += expected.size();

    const auto verdict = ledger.classify(batch);
    EXPECT_EQ(verdict.dirty, expected) << "round " << round;
    EXPECT_EQ(verdict.bloom_dirty, 0u);
  }
  EXPECT_GT(dirty_total, 0u);
  EXPECT_LT(dirty_total, 40 * lists.size());
}

TEST(SampleLedger, HeapBytesDoNotGrowWithRefreshes) {
  // A stationary stream: every round inserts two random absent edges and,
  // once five rounds' worth exist, deletes the two oldest churned ones.
  // Both sketch mixes: all exact, and exact/Bloom slots turning into each
  // other on resample.
  for (const std::uint32_t exact_cap : {256u, 8u}) {
    const auto initial = std::make_shared<const graph::Graph>(churn_graph());
    dynamic::SketchParams sketch;
    sketch.exact_cap = exact_cap;
    dynamic::IncrementalBc engine(churn_params(), sketch);
    engine.run(initial);
    const std::size_t after_run = engine.ledger().heap_bytes();
    ASSERT_GT(after_run, 0u);

    dynamic::MutableGraph mutable_graph(initial);
    std::deque<dynamic::Edge> churned;
    Rng rng(exact_cap);
    std::uint64_t resampled = 0;
    for (int round = 0; round < 300; ++round) {
      const graph::Graph& graph = *mutable_graph.snapshot();
      std::vector<dynamic::Edge> inserts;
      for (int i = 0; i < 2; ++i)
        inserts.push_back(random_absent_edge(graph, rng, inserts));
      dynamic::EdgeBatch batch;
      for (const dynamic::Edge& edge : inserts) batch.insert(edge.u, edge.v);
      if (churned.size() >= 10) {
        for (int i = 0; i < 2; ++i) {
          batch.remove(churned.front().u, churned.front().v);
          churned.pop_front();
        }
      }
      churned.insert(churned.end(), inserts.begin(), inserts.end());
      ASSERT_TRUE(batch.validate(graph).ok);
      mutable_graph.apply(batch);
      const std::uint32_t bound =
          batch.deletes().empty()
              ? 0
              : graph::vertex_diameter(*mutable_graph.snapshot(), true);
      resampled +=
          engine.refresh(mutable_graph.snapshot(), batch, bound).resampled;
      EXPECT_LE(engine.ledger().heap_bytes(), after_run * 5 / 4)
          << "cap " << exact_cap << " round " << round;
    }
    // The stream really did cycle the slots many times over.
    EXPECT_GT(resampled, 3 * engine.ledger().size()) << "cap " << exact_cap;
  }
}

// --- DynamicState --------------------------------------------------------------

TEST(DynamicState, RejectsBadBatchesTransactionally) {
  const auto initial = std::make_shared<const graph::Graph>(churn_graph());
  dynamic::DynamicState state(initial, exact_sketch());
  const std::uint64_t fp0 = state.fingerprint();

  EXPECT_FALSE(state.apply(dynamic::EdgeBatch{}).status.ok);  // empty

  dynamic::EdgeBatch self_loop;
  self_loop.insert(4, 4);
  EXPECT_FALSE(state.apply(std::move(self_loop)).status.ok);
  EXPECT_EQ(state.fingerprint(), fp0);
  EXPECT_EQ(state.version(), 0u);

  // Deleting every edge of one vertex isolates it: the batch is valid in
  // isolation but disconnects the graph, so apply reverts and rejects.
  graph::Vertex loner = 0;
  for (graph::Vertex v = 0; v < initial->num_vertices(); ++v)
    if (initial->degree(v) < initial->degree(loner)) loner = v;
  dynamic::EdgeBatch isolate;
  for (const graph::Vertex v : initial->neighbors(loner))
    isolate.remove(loner, v);
  const dynamic::ApplyReport rejected = state.apply(std::move(isolate));
  EXPECT_FALSE(rejected.status.ok);
  EXPECT_NE(rejected.status.message.find("disconnect"), std::string::npos);
  // No engine has run, so there is no reference snapshot to vouch for it.
  EXPECT_EQ(rejected.bound_path, dynamic::BoundPath::kRecomputed);
  EXPECT_EQ(state.fingerprint(), fp0);  // revert restored the content

  // A well-formed insert touches no cached bound and no calibration.
  const dynamic::Edge edge = missing_edge(*initial);
  dynamic::EdgeBatch good;
  good.insert(edge.u, edge.v);
  const dynamic::ApplyReport applied = state.apply(std::move(good));
  ASSERT_TRUE(applied.status.ok);
  EXPECT_EQ(applied.edges_inserted, 1u);
  EXPECT_EQ(applied.diameter_bound, 0u);
  EXPECT_EQ(applied.bound_path, dynamic::BoundPath::kNone);
  EXPECT_EQ(applied.recalibrations, 0u);
  EXPECT_NE(state.fingerprint(), fp0);
  EXPECT_EQ(state.fingerprint(), graph::fingerprint(*state.snapshot()));
  EXPECT_EQ(applied.engines_refreshed, 0u);  // no engine live yet
}

TEST(DynamicState, RejectsSplitsOnEitherSideOfTheHub) {
  // A star joined to a cycle by one bridge from a leaf. Deleting the
  // bridge splits the graph; the rejection comes from the diameter pass,
  // whose first sweep starts at the star's centre (the max-degree hub),
  // whether the star is the larger side or the smaller one.
  const auto star_and_cycle = [](graph::Vertex leaves, graph::Vertex cycle) {
    std::vector<std::pair<graph::Vertex, graph::Vertex>> edges;
    for (graph::Vertex v = 1; v <= leaves; ++v) edges.emplace_back(0, v);
    for (graph::Vertex i = 0; i < cycle; ++i)
      edges.emplace_back(leaves + 1 + i, leaves + 1 + (i + 1) % cycle);
    edges.emplace_back(1, leaves + 1);  // the bridge
    return std::make_shared<const graph::Graph>(
        graph::from_edges(leaves + 1 + cycle, edges));
  };
  for (const auto& [leaves, cycle] :
       {std::pair<graph::Vertex, graph::Vertex>{30, 10}, {10, 40}}) {
    const auto initial = star_and_cycle(leaves, cycle);
    dynamic::DynamicState state(initial, exact_sketch());
    const std::uint64_t fp0 = state.fingerprint();

    dynamic::EdgeBatch split;
    split.remove(1, leaves + 1);
    const dynamic::ApplyReport rejected = state.apply(std::move(split));
    EXPECT_FALSE(rejected.status.ok) << leaves << " leaves";
    EXPECT_NE(rejected.status.message.find("disconnect"), std::string::npos);
    EXPECT_EQ(rejected.bound_path, dynamic::BoundPath::kRecomputed);
    EXPECT_EQ(state.fingerprint(), fp0);  // revert restored the content

    // Cutting the cycle instead leaves one path: accepted, with a bound
    // at least the new exact vertex diameter.
    dynamic::EdgeBatch cut;
    cut.remove(leaves + 1, leaves + 2);
    const dynamic::ApplyReport applied = state.apply(std::move(cut));
    ASSERT_TRUE(applied.status.ok) << applied.status.message;
    EXPECT_GE(applied.diameter_bound,
              graph::vertex_diameter(*state.snapshot(), /*exact=*/true));
  }
}

TEST(DynamicState, RefreshAccountingCoversEveryRetainedSample) {
  const auto initial = std::make_shared<const graph::Graph>(churn_graph());
  dynamic::DynamicState state(initial, exact_sketch());

  const auto first = state.query(churn_params());
  ASSERT_TRUE(first.status.ok);
  EXPECT_TRUE(first.first_run);
  ASSERT_GT(first.samples, 0u);
  EXPECT_EQ(state.engine_count(), 1u);

  const dynamic::Edge edge = missing_edge(*initial, 25);
  dynamic::EdgeBatch batch;
  batch.insert(edge.u, edge.v);
  const dynamic::ApplyReport report = state.apply(std::move(batch));
  ASSERT_TRUE(report.status.ok);
  EXPECT_EQ(report.engines_refreshed, 1u);
  EXPECT_EQ(report.samples_retained + report.samples_dirty, first.samples);
  EXPECT_EQ(report.samples_resampled, report.samples_dirty);
  EXPECT_GT(report.samples_retained, 0u);
  EXPECT_LT(report.dirty_fraction(), 1.0);

  const auto second = state.query(churn_params());
  ASSERT_TRUE(second.status.ok);
  EXPECT_FALSE(second.first_run);  // served from the refreshed engine
  EXPECT_EQ(second.samples, first.samples + report.samples_topup);
}

TEST(DynamicState, QueryRejectsADisconnectedSnapshotTyped) {
  dynamic::DynamicState state(two_cycles(), exact_sketch());
  const auto split = state.query(churn_params());
  EXPECT_FALSE(split.status.ok);
  EXPECT_NE(split.status.message.find("not connected"), std::string::npos)
      << split.status.message;
  EXPECT_EQ(state.engine_count(), 0u);

  // A bridge joins the cycles; the engine is built on the joined graph.
  dynamic::EdgeBatch bridge;
  bridge.insert(7, 37);
  ASSERT_TRUE(state.apply(std::move(bridge)).status.ok);
  const auto joined = state.query(churn_params());
  ASSERT_TRUE(joined.status.ok) << joined.status.message;
  EXPECT_TRUE(joined.first_run);
  EXPECT_EQ(state.engine_count(), 1u);
}

TEST(DynamicState, ReferenceSkipMatchesAnExactlyBoundedTwin) {
  // Seeded mixed streams: insert-only batches, deletes of churned edges
  // only, deletes of original edges (some of them bridges), and deletes
  // that isolate a vertex. A twin engine refreshed with the exact vertex
  // diameter on every accepted deletion must stay bitwise equal to the
  // DynamicState engine, whichever bound path the state took.
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    const auto initial =
        std::make_shared<const graph::Graph>(churn_graph(seed));
    dynamic::DynamicState state(initial, exact_sketch());
    ASSERT_TRUE(state.query(churn_params()).status.ok);
    dynamic::IncrementalBc twin(churn_params(), exact_sketch());
    twin.run(initial);

    // The reference the state should hold, and the edges inserted since it
    // was taken that are still present (their deletion is covered).
    std::shared_ptr<const graph::Graph> reference = initial;
    std::vector<dynamic::Edge> churned;
    // Original: an edge of the initial graph that never left.
    const auto is_original = [&](graph::Vertex a, graph::Vertex b) {
      const dynamic::Edge edge{std::min(a, b), std::max(a, b)};
      return initial->has_edge(edge.u, edge.v) &&
             std::ranges::find(churned, edge) == churned.end();
    };
    Rng rng = Rng(seed).split(77);
    int covered = 0, recomputed = 0, rejected = 0;
    for (int round = 0; round < 40; ++round) {
      const auto before = state.snapshot();
      std::vector<dynamic::Edge> inserted;
      dynamic::EdgeBatch batch =
          random_insert_batch(*before, /*count=*/2, rng, &inserted);
      bool touches_original = false;
      switch (rng.next_bounded(4)) {
        case 0:  // insert-only
          break;
        case 1: {  // churned edges only
          std::vector<dynamic::Edge> pool = churned;
          for (int i = 0; i < 2 && !pool.empty(); ++i) {
            const auto pick = static_cast<std::ptrdiff_t>(
                rng.next_bounded(pool.size()));
            batch.remove(pool[pick].u, pool[pick].v);
            pool.erase(pool.begin() + pick);
          }
          break;
        }
        case 2: {  // one original edge
          std::vector<dynamic::Edge> originals;
          for (graph::Vertex u = 0; u < before->num_vertices(); ++u)
            for (const graph::Vertex v : before->neighbors(u))
              if (u < v && is_original(u, v)) originals.push_back({u, v});
          const dynamic::Edge edge =
              originals[rng.next_bounded(originals.size())];
          batch.remove(edge.u, edge.v);
          touches_original = true;
          break;
        }
        default: {  // isolate the lowest-degree vertex
          graph::Vertex loner = 0;
          for (graph::Vertex v = 0; v < before->num_vertices(); ++v)
            if (before->degree(v) < before->degree(loner)) loner = v;
          for (const graph::Vertex v : before->neighbors(loner)) {
            batch.remove(loner, v);
            touches_original |= is_original(loner, v);
          }
          break;
        }
      }
      ASSERT_TRUE(batch.validate(*before).ok);
      dynamic::MutableGraph would_be(before);
      would_be.apply(batch);
      const bool connected = graph::is_connected(*would_be.snapshot());
      const bool deletes = !batch.deletes().empty();
      const bool expect_covered =
          deletes &&
          std::ranges::none_of(batch.deletes(), [&](const dynamic::Edge& e) {
            return reference->has_edge(e.u, e.v);
          });

      const dynamic::ApplyReport report = state.apply(batch);
      const auto context = ::testing::Message()
                           << "seed " << seed << " round " << round;
      ASSERT_EQ(report.status.ok, connected) << context;
      const dynamic::BoundPath expected_path =
          !deletes         ? dynamic::BoundPath::kNone
          : expect_covered ? dynamic::BoundPath::kReference
                           : dynamic::BoundPath::kRecomputed;
      EXPECT_EQ(report.bound_path, expected_path) << context;
      if (touches_original) {
        EXPECT_EQ(report.bound_path, dynamic::BoundPath::kRecomputed)
            << context;
      }
      if (!report.status.ok) {
        ++rejected;
        // A batch that keeps the connected reference cannot disconnect.
        EXPECT_FALSE(expect_covered) << context;
        EXPECT_EQ(state.fingerprint(), graph::fingerprint(*before)) << context;
        continue;
      }
      const auto after = state.snapshot();
      churned.insert(churned.end(), inserted.begin(), inserted.end());
      std::erase_if(churned, [&](const dynamic::Edge& e) {
        return !after->has_edge(e.u, e.v);
      });
      std::uint32_t twin_bound = 0;
      if (deletes) {
        twin_bound = graph::vertex_diameter(*after, /*exact=*/true);
        EXPECT_GE(report.diameter_bound, twin_bound) << context;
        if (expect_covered) {
          ++covered;
        } else {
          ++recomputed;
          EXPECT_GT(report.bound_seconds, 0.0) << context;
          reference = after;
          churned.clear();  // now reference edges
        }
      }
      twin.refresh(after, batch, twin_bound);
      const auto view = state.query(churn_params());
      ASSERT_TRUE(view.status.ok) << context;
      EXPECT_FALSE(view.first_run);
      // The state's bounds are bucket-tight, the twin's exact: the same
      // omega from a diameter at or above the twin's.
      EXPECT_EQ(bc::diameter_bucket(view.vertex_diameter),
                bc::diameter_bucket(twin.vertex_diameter()))
          << context;
      EXPECT_GE(view.vertex_diameter, twin.vertex_diameter()) << context;
      ASSERT_EQ(view.scores, twin.scores()) << context;
    }
    // Every path ran on every stream.
    EXPECT_GT(covered, 0) << "seed " << seed;
    EXPECT_GT(recomputed, 0) << "seed " << seed;
    EXPECT_GT(rejected, 0) << "seed " << seed;
  }
}

// --- Session / pool / dispatcher apply paths -----------------------------------

api::Config dynamic_config(int pool_size = 2) {
  api::Config config;
  config.seed = 4321;
  config.service_pool_size = pool_size;
  return config;
}

TEST(SessionApply, IncrementalQueriesSurviveChurn) {
  const auto graph = std::make_shared<const graph::Graph>(churn_graph());
  api::Session session(graph, dynamic_config());
  ASSERT_TRUE(session.status().ok);

  api::BetweennessQuery query;
  query.epsilon = 0.1;
  query.incremental = true;
  query.top_k = 5;
  const api::Result cold = session.run(query);
  ASSERT_TRUE(cold.status.ok) << cold.status.message;
  EXPECT_EQ(cold.algorithm, "kadabra-incremental");
  EXPECT_FALSE(cold.calibration_reused);
  EXPECT_EQ(cold.scores.size(), graph->num_vertices());
  ASSERT_EQ(cold.top_k.size(), 5u);

  // Same query again: the engine (and its sample set) is warm.
  const api::Result warm = session.run(query);
  ASSERT_TRUE(warm.status.ok);
  EXPECT_TRUE(warm.calibration_reused);
  EXPECT_EQ(warm.scores, cold.scores);

  // Churn, then query the mutated graph through the same session.
  const dynamic::Edge edge = missing_edge(*graph, 12);
  dynamic::EdgeBatch batch;
  batch.insert(edge.u, edge.v);
  const dynamic::ApplyReport report = session.apply(std::move(batch));
  ASSERT_TRUE(report.status.ok) << report.status.message;
  EXPECT_EQ(report.recalibrations, 0u);
  const api::Result after = session.run(query);
  ASSERT_TRUE(after.status.ok);
  EXPECT_TRUE(after.calibration_reused);
  EXPECT_EQ(after.scores.size(), graph->num_vertices());

  // A malformed batch rejects typed and leaves the session serving.
  dynamic::EdgeBatch bad;
  bad.insert(2, 2);
  EXPECT_FALSE(session.apply(std::move(bad)).status.ok);
  EXPECT_TRUE(session.run(query).status.ok);
}

TEST(SessionApply, InsertOnlyBatchesRecheckASplitGraphsConnectivity) {
  const auto split = two_cycles();

  for (const bool incremental : {false, true}) {
    api::Session session(split, dynamic_config(1));
    ASSERT_TRUE(session.status().ok);
    api::BetweennessQuery query;
    query.epsilon = 0.1;
    query.incremental = incremental;
    const api::Result before = session.run(query);
    EXPECT_FALSE(before.status.ok);
    EXPECT_NE(before.status.message.find("not connected"), std::string::npos);

    // A chord inside one cycle leaves the graph split.
    dynamic::EdgeBatch chord;
    chord.insert(0, 15);
    ASSERT_TRUE(session.apply(std::move(chord)).status.ok);
    const api::Result still_split = session.run(query);
    EXPECT_FALSE(still_split.status.ok);
    EXPECT_NE(still_split.status.message.find("not connected"),
              std::string::npos)
        << still_split.status.message;

    // A bridge joins the cycles: queries succeed from here on.
    dynamic::EdgeBatch bridge;
    bridge.insert(7, 37);
    ASSERT_TRUE(session.apply(std::move(bridge)).status.ok);
    const api::Result joined = session.run(query);
    ASSERT_TRUE(joined.status.ok) << joined.status.message;
    EXPECT_EQ(joined.scores.size(), 60u);
  }
}

TEST(SessionApply, CoveredDeletionKeepsOnlyWarmStatesThatBoundTheDiameter) {
  const auto graph = std::make_shared<const graph::Graph>(churn_graph());
  api::Session session(graph, dynamic_config(1));
  ASSERT_TRUE(session.status().ok);
  api::BetweennessQuery query;
  query.epsilon = 0.1;
  ASSERT_TRUE(session.run(query).status.ok);  // caches a warm state
  query.incremental = true;
  ASSERT_TRUE(session.run(query).status.ok);  // takes the reference

  Rng rng(31);
  std::vector<dynamic::Edge> inserted;
  ASSERT_TRUE(
      session.apply(random_insert_batch(session.graph(), 4, rng, &inserted))
          .status.ok);
  dynamic::EdgeBatch churn_out;
  for (const dynamic::Edge& edge : inserted) churn_out.remove(edge.u, edge.v);
  const dynamic::ApplyReport report = session.apply(std::move(churn_out));
  ASSERT_TRUE(report.status.ok) << report.status.message;
  EXPECT_EQ(report.bound_path, dynamic::BoundPath::kReference);

  const std::uint32_t vd = graph::vertex_diameter(session.graph(), true);
  EXPECT_GE(report.diameter_bound, vd);
  const auto survivors = session.calibrations();
  EXPECT_FALSE(survivors.empty());
  for (const auto& warm : survivors) {
    EXPECT_GE(warm->vertex_diameter, vd);
    EXPECT_EQ(warm->vertex_diameter, warm->context.vertex_diameter);
  }
}

TEST(SessionApply, RecomputedDeletionKeepsWarmStatesWhoseBucketCoversIt) {
  // A warm state survives a recomputed deletion batch when its diameter
  // bucket, all omega reads, is at or above the new bound's; its diameter
  // is then raised to the bound, and it keeps serving queries.
  const auto graph = std::make_shared<const graph::Graph>(churn_graph());
  api::Session session(graph, dynamic_config(1));
  ASSERT_TRUE(session.status().ok);
  api::BetweennessQuery query;
  query.epsilon = 0.1;
  ASSERT_TRUE(session.run(query).status.ok);  // caches a warm state
  ASSERT_EQ(session.calibrations().size(), 1u);
  const std::uint32_t warm_vd = session.calibrations()[0]->vertex_diameter;

  // The first original edge whose deletion keeps the graph connected (no
  // reference snapshot exists yet, so the bound is recomputed).
  dynamic::ApplyReport report;
  report.status = api::Status::error("no deletion tried");
  for (graph::Vertex u = 0; u < graph->num_vertices() && !report.status.ok;
       ++u) {
    for (const graph::Vertex v : graph->neighbors(u)) {
      dynamic::EdgeBatch batch;
      batch.remove(u, v);
      report = session.apply(std::move(batch));
      if (report.status.ok) break;
    }
  }
  ASSERT_TRUE(report.status.ok) << report.status.message;
  EXPECT_EQ(report.bound_path, dynamic::BoundPath::kRecomputed);
  ASSERT_LE(bc::diameter_bucket(report.diameter_bound),
            bc::diameter_bucket(warm_vd));
  ASSERT_EQ(session.calibrations().size(), 1u);
  const bc::KadabraWarmState& warm = *session.calibrations()[0];
  EXPECT_EQ(warm.vertex_diameter, std::max(warm_vd, report.diameter_bound));
  EXPECT_EQ(warm.context.vertex_diameter, warm.vertex_diameter);
  EXPECT_GE(warm.vertex_diameter,
            graph::vertex_diameter(session.graph(), /*exact=*/true));
  const api::Result result = session.run(query);
  ASSERT_TRUE(result.status.ok) << result.status.message;
  EXPECT_TRUE(result.calibration_reused);
}

TEST(SessionApply, InsertRestampsTheWarmStateWithTheNewFingerprint) {
  const auto graph = std::make_shared<const graph::Graph>(churn_graph());
  api::Session session(graph, dynamic_config(1));
  ASSERT_TRUE(session.status().ok);
  api::BetweennessQuery query;
  query.epsilon = 0.1;
  const api::Result cold = session.run(query);  // caches a warm state
  ASSERT_TRUE(cold.status.ok) << cold.status.message;
  EXPECT_FALSE(cold.calibration_reused);
  ASSERT_EQ(session.calibrations().size(), 1u);
  EXPECT_EQ(session.calibrations()[0]->graph_fingerprint,
            graph::fingerprint(*graph));

  Rng rng(5);
  std::vector<dynamic::Edge> inserted;
  const dynamic::ApplyReport report = session.apply(
      random_insert_batch(session.graph(), 3, rng, &inserted));
  ASSERT_TRUE(report.status.ok) << report.status.message;

  // The survivor carries the NEW snapshot's fingerprint, as does the
  // shared state's on-demand one.
  const std::uint64_t fingerprint = graph::fingerprint(session.graph());
  EXPECT_NE(fingerprint, graph::fingerprint(*graph));
  EXPECT_EQ(session.dynamic_state()->fingerprint(), fingerprint);
  const auto survivors = session.calibrations();
  ASSERT_EQ(survivors.size(), 1u);
  EXPECT_EQ(survivors[0]->graph_fingerprint, fingerprint);

  const api::Result hot = session.run(query);
  ASSERT_TRUE(hot.status.ok) << hot.status.message;
  EXPECT_TRUE(hot.calibration_reused);
}

TEST(SessionPoolApply, PostApplyResponsesBitwiseIdenticalAcrossPoolSizes) {
  const auto graph = std::make_shared<const graph::Graph>(churn_graph());
  api::BetweennessQuery query;
  query.epsilon = 0.1;
  query.incremental = true;

  const dynamic::Edge edge = missing_edge(*graph, 8);

  std::vector<std::vector<double>> before;
  std::vector<std::vector<double>> after;
  std::vector<std::uint64_t> fingerprints;
  for (const int pool_size : {1, 3}) {
    service::SessionPool pool(graph, dynamic_config(pool_size));
    ASSERT_TRUE(pool.status().ok) << pool.status().message;

    service::Ticket cold = pool.submit(query, "tenant", "g");
    pool.drain();
    const service::Response& cold_response = cold.wait();
    ASSERT_TRUE(cold_response.status.ok) << cold_response.status.message;
    before.push_back(cold_response.result.scores);

    dynamic::EdgeBatch batch;
    batch.insert(edge.u, edge.v);
    const dynamic::ApplyReport report = pool.apply(std::move(batch));
    ASSERT_TRUE(report.status.ok) << report.status.message;
    EXPECT_EQ(pool.stats().applies, 1u);
    EXPECT_EQ(pool.graph_fingerprint(),
              graph::fingerprint(*pool.graph_snapshot()));
    EXPECT_NE(pool.graph_fingerprint(), graph::fingerprint(*graph));
    EXPECT_TRUE(pool.graph_snapshot()->has_edge(edge.u, edge.v));
    fingerprints.push_back(pool.graph_fingerprint());

    service::Ticket hot = pool.submit(query, "tenant", "g");
    pool.drain();
    const service::Response& hot_response = hot.wait();
    ASSERT_TRUE(hot_response.status.ok) << hot_response.status.message;
    EXPECT_TRUE(hot_response.result.calibration_reused);
    after.push_back(hot_response.result.scores);
  }

  // The pool serves incremental queries from ONE shared engine: pre- and
  // post-apply score vectors are bitwise independent of the pool size.
  ASSERT_EQ(before.size(), 2u);
  EXPECT_EQ(before[0], before[1]);
  EXPECT_EQ(after[0], after[1]);
  EXPECT_EQ(fingerprints[0], fingerprints[1]);
}

TEST(DispatcherApply, DrainsTheShardAndRejectsMidApplySubmissionsTyped) {
  // Big enough that the fresh-engine query below runs for hundreds of
  // milliseconds - the window in which the apply quiesces the shard.
  const auto graph = std::make_shared<const graph::Graph>(
      graph::largest_component(gen::erdos_renyi(1500, 4500, 99)));
  service::Dispatcher dispatcher;
  ASSERT_TRUE(dispatcher.bind("g", graph, dynamic_config()).ok);

  // Unknown ids reject typed, exactly like query submission.
  dynamic::EdgeBatch stray;
  stray.insert(0, 1);
  EXPECT_FALSE(dispatcher.apply("nope", std::move(stray)).status.ok);

  api::BetweennessQuery warm;
  warm.epsilon = 0.1;
  warm.incremental = true;
  ASSERT_TRUE(
      dispatcher.submit({"tenant", "g", warm}).wait().status.ok);

  // A long fresh-engine query keeps the shard busy while the apply
  // quiesces it: submissions landing in that window get the typed
  // mid-apply rejection instead of queueing behind the mutation.
  api::BetweennessQuery slow;
  slow.epsilon = 0.02;
  slow.incremental = true;
  service::Ticket slow_ticket = dispatcher.submit({"tenant", "g", slow});

  std::atomic<bool> done{false};
  dynamic::ApplyReport report;
  std::thread applier([&] {
    const dynamic::Edge edge = missing_edge(*graph, 30);
    dynamic::EdgeBatch batch;
    batch.insert(edge.u, edge.v);
    report = dispatcher.apply("g", std::move(batch));
    done = true;
  });

  // Fire-and-collect: waiting on a probe here would block behind the slow
  // query and sleep straight through the mutating window.
  std::vector<service::Ticket> probes;
  while (!done.load()) {
    probes.push_back(dispatcher.submit({"tenant", "g", warm}));
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  applier.join();
  dispatcher.drain();
  bool saw_mid_apply = false;
  for (service::Ticket& probe : probes) {
    const service::Response& response = probe.wait();
    if (response.status.ok) continue;
    EXPECT_NE(response.status.message.find("mid-apply"), std::string::npos)
        << response.status.message;
    saw_mid_apply = true;
  }

  ASSERT_TRUE(report.status.ok) << report.status.message;
  EXPECT_TRUE(saw_mid_apply);
  EXPECT_TRUE(slow_ticket.wait().status.ok);  // pre-apply work completed
  const service::DispatcherStats stats = dispatcher.stats();
  EXPECT_EQ(stats.applies, 1u);
  EXPECT_GE(stats.rejected_mutating, 1u);

  // The shard reopens after the apply.
  EXPECT_TRUE(dispatcher.submit({"tenant", "g", warm}).wait().status.ok);
}

}  // namespace
}  // namespace distbc
