#include "graph/bidirectional_bfs.hpp"

#include <algorithm>
#include <bit>
#include <functional>
#include <span>

#include "graph/bfs.hpp"

#if (defined(__GNUC__) || defined(__clang__)) && !defined(DISTBC_NO_SW_PREFETCH)
#define DISTBC_PREFETCH_W(addr) __builtin_prefetch((addr), 1, 1)
#else
#define DISTBC_PREFETCH_W(addr) ((void)(addr))
#endif

namespace distbc::graph {

namespace {
/// Adjacency lookahead for the software prefetches: far enough to cover
/// one miss latency, near enough to stay inside typical hub lists.
constexpr std::size_t kPrefetchAhead = 8;
}  // namespace

BidirectionalBfs::BidirectionalBfs(Vertex num_vertices)
    : visit_(num_vertices, VisitRecord{}) {
  for (Side& side : sides_) {
    side.sigma.assign(num_vertices, 0.0);
    side.order.reserve(1024);
    side.level_starts.reserve(64);
  }
  predecessors_.reserve(64);
  meeting_vertices_.reserve(64);
  meeting_weights_.reserve(64);
}

void BidirectionalBfs::reset(Vertex s, Vertex t) {
  ++generation_;
  if (generation_ == 0) {  // stamp wraparound: rare full clear
    std::fill(visit_.begin(), visit_.end(), VisitRecord{});
    generation_ = 1;
  }
  s_ = s;
  t_ = t;
  connected_ = false;
  distance_ = 0;
  meeting_vertices_.clear();
  meeting_weights_.clear();
  num_paths_ = 0.0;
  touched_ = 0;

  const Vertex roots[2] = {s, t};
  for (int si = 0; si < 2; ++si) {
    Side& side = sides_[si];
    side.order.clear();
    side.level_starts.clear();
    side.completed_levels = 0;
    side.volume_valid = false;
    visit_[roots[si]].side[si] = {generation_, 0};
    side.sigma[roots[si]] = 1.0;
    side.order.push_back(roots[si]);
    side.level_starts.push_back(0);
  }
}

bool BidirectionalBfs::expand_level(const Graph& graph, int side_index) {
  Side& side = sides_[side_index];
  const int other_index = side_index ^ 1;
  const std::uint32_t level = side.completed_levels;
  const std::uint32_t begin = side.level_starts[level];
  const std::uint32_t end = static_cast<std::uint32_t>(side.order.size());
  side.level_starts.push_back(end);  // level + 1 starts here

  VisitRecord* visit = visit_.data();
  double* sigma = side.sigma.data();
  const std::uint32_t gen = generation_;

  // Intersection check folded into discovery: the balls were disjoint
  // before this expansion, so any intersection vertex is freshly
  // discovered, and the fused record in hand answers the other-side
  // probe. The minimum over the fresh set is order-independent.
  std::uint32_t best = kUnreachable;
  for (std::uint32_t i = begin; i < end; ++i) {
    const Vertex u = side.order[i];
    const double sigma_u = sigma[u];
    const std::span<const Vertex> nbrs = graph.neighbors(u);
    touched_ += nbrs.size();
    for (std::size_t j = 0; j < nbrs.size(); ++j) {
      if (j + kPrefetchAhead < nbrs.size()) {
        const auto p = static_cast<std::size_t>(nbrs[j + kPrefetchAhead]);
        DISTBC_PREFETCH_W(&visit[p]);
        DISTBC_PREFETCH_W(&sigma[p]);
      }
      const Vertex w = nbrs[j];
      VisitRecord& r = visit[w];
      if (r.side[side_index].stamp == gen) {
        // Already discovered by this side; accumulate counts if w sits on
        // the next level (another shortest path into w).
        if (r.side[side_index].dist == level + 1) sigma[w] += sigma_u;
        continue;
      }
      r.side[side_index] = {gen, level + 1};
      sigma[w] = sigma_u;
      side.order.push_back(w);
      if (r.side[other_index].stamp == gen)
        best = std::min(best, level + 1 + r.side[other_index].dist);
    }
  }
  side.completed_levels = level + 1;
  side.volume_valid = false;  // the frontier just advanced one level

  if (best == kUnreachable) return false;
  connected_ = true;
  distance_ = best;
  return true;
}

BidirectionalBfs::PairResult BidirectionalBfs::run(const Graph& graph,
                                                   Vertex s, Vertex t) {
  DISTBC_ASSERT(s < graph.num_vertices() && t < graph.num_vertices());
  DISTBC_ASSERT_MSG(s != t, "betweenness pairs must be distinct");
  reset(s, t);

  auto frontier_volume = [&](Side& side) {
    if (!side.volume_valid) {
      std::uint64_t volume = 0;
      const std::uint32_t begin = side.level_starts[side.completed_levels];
      for (std::uint32_t i = begin; i < side.order.size(); ++i)
        volume += graph.degree(side.order[i]);
      side.frontier_volume = volume;
      side.volume_valid = true;
    }
    return side.frontier_volume;
  };

  while (true) {
    for (const Side& side : sides_) {
      // One ball covers its whole component without meeting the other:
      // s and t are disconnected.
      if (side.level_starts[side.completed_levels] == side.order.size())
        return {};
    }
    const int grow =
        frontier_volume(sides_[kS]) <= frontier_volume(sides_[kT]) ? kS : kT;
    if (expand_level(graph, grow)) break;
  }

  collect_meeting_set();
  return {connected_, distance_, num_paths_};
}

void BidirectionalBfs::collect_meeting_set() {
  const Side& s_side = sides_[kS];
  const Side& t_side = sides_[kT];
  const std::uint32_t level_s = s_side.completed_levels;
  const std::uint32_t level_t = t_side.completed_levels;
  DISTBC_ASSERT(distance_ <= level_s + level_t);

  // Any m with L - level_t <= m <= level_s (clamped to [0, L]) works; both
  // sides have final sigma values up to their completed level. Prefer the
  // midpoint to keep the meeting set small.
  const std::uint32_t lo = distance_ > level_t ? distance_ - level_t : 0;
  const std::uint32_t hi = std::min(level_s, distance_);
  DISTBC_ASSERT(lo <= hi);
  const std::uint32_t meet = std::clamp((distance_ + 1) / 2, lo, hi);

  const std::uint32_t begin = s_side.level_starts[meet];
  const std::uint32_t end =
      meet + 1 <= s_side.completed_levels
          ? s_side.level_starts[meet + 1]
          : static_cast<std::uint32_t>(s_side.order.size());
  for (std::uint32_t i = begin; i < end; ++i) {
    const Vertex v = s_side.order[i];
    const VisitRecord::PerSide& from_t = visit_[v].side[kT];
    if (from_t.stamp != generation_ || from_t.dist != distance_ - meet)
      continue;
    meeting_vertices_.push_back(v);
    meeting_weights_.push_back(s_side.sigma[v] * t_side.sigma[v]);
    num_paths_ += meeting_weights_.back();
  }
  DISTBC_ASSERT_MSG(!meeting_vertices_.empty(),
                    "connected pair must have a meeting vertex");
}

void BidirectionalBfs::walk_to_root(const Graph& graph, int side_index,
                                    Vertex v, Rng& rng,
                                    std::vector<Vertex>& out) {
  const Side& side = sides_[side_index];
  std::uint32_t depth = visit_[v].side[side_index].dist;
  Vertex current = v;
  // Reservoir-style predecessor pick: a predecessor u (at depth - 1) is the
  // previous hop of a uniform path with probability sigma(u) / sum(sigma),
  // one RNG draw per candidate in adjacency order.
  while (depth > 1) {
    double total = 0.0;
    Vertex choice = kInvalidVertex;
    auto offer = [&](Vertex w) {
      total += side.sigma[w];
      if (rng.next_double() * total < side.sigma[w]) choice = w;
    };
    const std::span<const Vertex> nbrs = graph.neighbors(current);
    const std::uint32_t level_begin = side.level_starts[depth - 1];
    const std::uint32_t level_size = side.level_starts[depth] - level_begin;
    // The candidates are the vertices of the level below that `current`
    // is adjacent to. Scan the level below, binary-searching `current`'s
    // list per vertex, when that costs well under scanning the list:
    // 4 |level| ceil(log2 deg) < deg. The 4x weight is measured, not
    // derived; at 1x the walk on sparse BA graphs ran slower than the
    // plain list scan. Road-like graphs (degree <= 5) never take it.
    if (4ULL * level_size * std::bit_width(nbrs.size() - 1) < nbrs.size()) {
      // The level is in discovery order. Adjacency lists are strictly
      // increasing, so sorting the hits by id puts them in adjacency
      // order: the same draws over the same candidates as the list scan,
      // bit for bit.
      predecessors_.clear();
      for (std::uint32_t i = level_begin; i < level_begin + level_size; ++i) {
        const Vertex w = side.order[i];
        if (std::binary_search(nbrs.begin(), nbrs.end(), w))
          predecessors_.push_back(w);
      }
      std::sort(predecessors_.begin(), predecessors_.end());
      DISTBC_DEBUG_ASSERT(std::adjacent_find(predecessors_.begin(),
                                             predecessors_.end(),
                                             std::greater_equal<>()) ==
                          predecessors_.end());
      for (const Vertex w : predecessors_) offer(w);
    } else {
      for (const Vertex w : nbrs) {
        const VisitRecord::PerSide& r = visit_[w].side[side_index];
        if (r.stamp == generation_ && r.dist == depth - 1) offer(w);
      }
    }
    DISTBC_ASSERT_MSG(choice != kInvalidVertex,
                      "BFS predecessor must exist above the root");
    --depth;
    current = choice;
    out.push_back(current);
  }
  // Root hop (depth 1): the root is the only vertex at depth 0, so it is
  // the predecessor, found without scanning `current`'s adjacency list -
  // on a hub meeting vertex that scan dominated the whole walk. The scan
  // would have drawn once per depth-0 candidate with total = sigma(root)
  // = 1, and such a draw always accepts; consuming exactly one draw keeps
  // the rest of the stream as the scan left it. What each CSR property
  // buys here (graph::Builder, both readers, and MutableGraph snapshots
  // guarantee all of them; read_binary rejects files that break one):
  //   * in-range ids and monotone offsets: every visit and sigma read of
  //     the search and the walk stays in bounds;
  //   * no parallel arcs: the scan met the root exactly once, so one draw
  //     is bitwise identical to it (with k parallel arcs it drew k times);
  //   * symmetric arcs: the root is in `current`'s list at all;
  //   * no self-loops: nothing at this step - a self-loop sits at depth 1,
  //     never a depth-0 candidate.
  // The hop is a correct uniform-path step on any graph: only the draw
  // count, not the chosen predecessor, depends on these properties.
  if (depth == 1) (void)rng.next_double();
}

void BidirectionalBfs::sample_path(const Graph& graph, Rng& rng,
                                   std::vector<Vertex>& out) {
  DISTBC_ASSERT_MSG(connected_, "sample_path requires a connected pair");
  const std::size_t pick =
      pick_weighted(rng, meeting_weights_.data(), meeting_weights_.size());
  const Vertex v = meeting_vertices_[pick];

  // Prefix: interior vertices from s to v, in s -> v order.
  const std::size_t prefix_begin = out.size();
  walk_to_root(graph, kS, v, rng, out);
  std::reverse(out.begin() + static_cast<std::ptrdiff_t>(prefix_begin),
               out.end());
  if (v != s_ && v != t_) out.push_back(v);
  // Suffix: interior vertices from v to t, already in v -> t order.
  walk_to_root(graph, kT, v, rng, out);
}

void BidirectionalBfs::append_scanned(std::vector<Vertex>& out) const {
  for (const Side& side : sides_) {
    const std::uint32_t end = side.level_starts[side.completed_levels];
    out.insert(out.end(), side.order.begin(), side.order.begin() + end);
  }
}

}  // namespace distbc::graph
