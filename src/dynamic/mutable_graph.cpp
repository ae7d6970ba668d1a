#include "dynamic/mutable_graph.hpp"

#include <algorithm>
#include <utility>

#include "graph/stats.hpp"
#include "support/assert.hpp"

namespace distbc::dynamic {

MutableGraph::MutableGraph(std::shared_ptr<const graph::Graph> initial)
    : snapshot_(std::move(initial)) {
  DISTBC_ASSERT(snapshot_ != nullptr);
}

std::uint64_t MutableGraph::fingerprint() const {
  if (!fingerprint_.has_value()) fingerprint_ = graph::fingerprint(*snapshot_);
  return *fingerprint_;
}

void MutableGraph::materialize() {
  const graph::Graph& graph = *snapshot_;
  const graph::Vertex n = graph.num_vertices();
  begin_.assign(static_cast<std::size_t>(n) + 1, 0);
  degree_.assign(n, 0);
  cap_.assign(n, 0);
  std::uint64_t total = 0;
  for (graph::Vertex v = 0; v < n; ++v) {
    const auto degree = static_cast<std::uint32_t>(graph.degree(v));
    begin_[v] = total;
    degree_[v] = degree;
    cap_[v] = degree + slack_for(degree);
    total += cap_[v];
  }
  begin_[n] = total;
  slots_.assign(total, 0);
  for (graph::Vertex v = 0; v < n; ++v) {
    const std::span<const graph::Vertex> nbrs = graph.neighbors(v);
    std::copy(nbrs.begin(), nbrs.end(), slots_.begin() + begin_[v]);
  }
  materialized_ = true;
}

void MutableGraph::insert_arc(graph::Vertex u, graph::Vertex v) {
  DISTBC_DEBUG_ASSERT(degree_[u] < cap_[u]);
  const auto first = slots_.begin() + static_cast<std::ptrdiff_t>(begin_[u]);
  const auto last = first + degree_[u];
  const auto pos = std::upper_bound(first, last, v);
  std::copy_backward(pos, last, last + 1);
  *pos = v;
  ++degree_[u];
}

void MutableGraph::remove_arc(graph::Vertex u, graph::Vertex v) {
  const auto first = slots_.begin() + static_cast<std::ptrdiff_t>(begin_[u]);
  const auto last = first + degree_[u];
  const auto pos = std::lower_bound(first, last, v);
  DISTBC_ASSERT_MSG(pos != last && *pos == v,
                    "removing an arc the slack CSR does not hold");
  std::copy(pos + 1, last, pos);
  --degree_[u];
}

void MutableGraph::rebuild(std::span<const Edge> inserts,
                           std::span<const Edge> deletes) {
  const graph::Vertex n = snapshot_->num_vertices();
  // Post-batch degrees first, then fresh slack on top of them.
  std::vector<std::uint32_t> new_degree(degree_);
  for (const Edge& e : inserts) {
    ++new_degree[e.u];
    ++new_degree[e.v];
  }
  for (const Edge& e : deletes) {
    --new_degree[e.u];
    --new_degree[e.v];
  }
  std::vector<std::uint64_t> new_begin(static_cast<std::size_t>(n) + 1, 0);
  std::vector<std::uint32_t> new_cap(n, 0);
  std::uint64_t total = 0;
  for (graph::Vertex v = 0; v < n; ++v) {
    new_begin[v] = total;
    // The pre-batch list is copied below and the batch replayed on top of
    // it, so the range must hold max(old, new) neighbors plus fresh slack.
    new_cap[v] = std::max(degree_[v],
                          new_degree[v] + slack_for(new_degree[v]));
    total += new_cap[v];
  }
  new_begin[n] = total;
  std::vector<graph::Vertex> new_slots(total, 0);
  // Copy the old (still pre-batch) lists into the new ranges; the caller
  // replays the batch through insert_arc/remove_arc afterwards.
  for (graph::Vertex v = 0; v < n; ++v) {
    std::copy(slots_.begin() + static_cast<std::ptrdiff_t>(begin_[v]),
              slots_.begin() + static_cast<std::ptrdiff_t>(begin_[v]) +
                  degree_[v],
              new_slots.begin() + static_cast<std::ptrdiff_t>(new_begin[v]));
  }
  begin_ = std::move(new_begin);
  cap_ = std::move(new_cap);
  slots_ = std::move(new_slots);
  // degree_ stays pre-batch: the arc replay below updates it edge by edge.
}

bool MutableGraph::apply_spans(std::span<const Edge> inserts,
                               std::span<const Edge> deletes) {
  if (!materialized_) materialize();
  // Slack-slot or rebuild: in place iff every touched vertex's post-batch
  // degree fits its current capacity.
  std::vector<std::int64_t> delta;  // parallel to touched
  std::vector<graph::Vertex> touched;
  auto bump = [&](graph::Vertex v, std::int64_t by) {
    const auto it = std::find(touched.begin(), touched.end(), v);
    if (it == touched.end()) {
      touched.push_back(v);
      delta.push_back(by);
    } else {
      delta[static_cast<std::size_t>(it - touched.begin())] += by;
    }
  };
  for (const Edge& e : inserts) {
    bump(e.u, 1);
    bump(e.v, 1);
  }
  for (const Edge& e : deletes) {
    bump(e.u, -1);
    bump(e.v, -1);
  }
  bool fits = true;
  for (std::size_t i = 0; i < touched.size(); ++i) {
    const std::int64_t after = degree_[touched[i]] + delta[i];
    DISTBC_ASSERT(after >= 0);
    if (after > cap_[touched[i]]) {
      fits = false;
      break;
    }
  }
  if (!fits) rebuild(inserts, deletes);
  for (const Edge& e : deletes) {
    remove_arc(e.u, e.v);
    remove_arc(e.v, e.u);
  }
  for (const Edge& e : inserts) {
    insert_arc(e.u, e.v);
    insert_arc(e.v, e.u);
  }
  publish();
  return fits;
}

void MutableGraph::publish() {
  const graph::Vertex n = snapshot_->num_vertices();
  std::vector<graph::EdgeId> offsets(static_cast<std::size_t>(n) + 1, 0);
  std::uint64_t total = 0;
  for (graph::Vertex v = 0; v < n; ++v) {
    offsets[v] = total;
    total += degree_[v];
  }
  offsets[n] = total;
  std::vector<graph::Vertex> adjacency(total);
  for (graph::Vertex v = 0; v < n; ++v) {
    std::copy(slots_.begin() + static_cast<std::ptrdiff_t>(begin_[v]),
              slots_.begin() + static_cast<std::ptrdiff_t>(begin_[v]) +
                  degree_[v],
              adjacency.begin() + static_cast<std::ptrdiff_t>(offsets[v]));
  }
  snapshot_ = std::make_shared<const graph::Graph>(std::move(offsets),
                                                   std::move(adjacency));
  ++version_;
  fingerprint_.reset();
}

bool MutableGraph::apply(const EdgeBatch& batch) {
  DISTBC_ASSERT_MSG(batch.validated(),
                    "MutableGraph::apply requires a validated EdgeBatch");
  const bool in_place = apply_spans(batch.inserts(), batch.deletes());
  ++stats_.applies;
  if (in_place)
    ++stats_.in_place;
  else
    ++stats_.rebuilds;
  stats_.edges_inserted += batch.inserts().size();
  stats_.edges_deleted += batch.deletes().size();
  return in_place;
}

void MutableGraph::revert(const EdgeBatch& batch) {
  (void)apply_spans(batch.deletes(), batch.inserts());
  stats_.edges_inserted -= batch.inserts().size();
  stats_.edges_deleted -= batch.deletes().size();
}

}  // namespace distbc::dynamic
