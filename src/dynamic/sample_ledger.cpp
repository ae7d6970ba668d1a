#include "dynamic/sample_ledger.hpp"

#include <algorithm>
#include <array>

#include "support/assert.hpp"

namespace distbc::dynamic {

namespace {

// splitmix64 finalizer: one well-mixed 64-bit word per vertex, split into
// four 16-bit probe lanes below. Deterministic across platforms.
std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// The four filter bits vertex `v` sets (and a membership test checks) in
/// a Bloom filter of `total` bits.
std::array<std::uint64_t, 4> probe_bits(graph::Vertex v, std::uint64_t total) {
  const std::uint64_t h = mix(v);
  std::array<std::uint64_t, 4> bits{};
  for (int probe = 0; probe < 4; ++probe)
    bits[probe] = ((h >> (16 * probe)) & 0xffffULL) % total;
  return bits;
}

}  // namespace

std::uint32_t SampleLedger::bloom_words() const {
  return std::max<std::uint32_t>(1, params_.bloom_words);
}

void SampleLedger::fill(Record& record, std::uint64_t stream, bool connected,
                        std::span<const graph::Vertex> path,
                        std::span<const graph::Vertex> scanned) {
  record.stream = stream;
  record.connected = connected;
  // Every list is stored at its exact size: assign() would keep a replaced
  // record's capacity, so each slot would grow to the largest sample it
  // ever held and the ledger's allocations would climb with every refresh.
  record.path = std::vector<graph::Vertex>(path.begin(), path.end());
  if (scanned.size() <= params_.exact_cap) {
    record.bloom = false;
    record.touched = std::vector<graph::Vertex>(scanned.begin(), scanned.end());
    record.bits = std::vector<std::uint64_t>();
  } else {
    record.bloom = true;
    record.touched = std::vector<graph::Vertex>();
    record.bits.assign(bloom_words(), 0);
    const std::uint64_t total = record.bits.size() * 64;
    for (const graph::Vertex v : scanned)
      for (const std::uint64_t bit : probe_bits(v, total))
        record.bits[bit / 64] |= 1ULL << (bit % 64);
  }
}

void SampleLedger::record(std::uint64_t stream, bool connected,
                          std::span<const graph::Vertex> path,
                          std::span<const graph::Vertex> scanned) {
  Record& slot = records_.emplace_back();
  fill(slot, stream, connected, path, scanned);
  if (slot.bloom) ++bloom_sketches_;
}

void SampleLedger::replace(std::size_t index, std::uint64_t stream,
                           bool connected,
                           std::span<const graph::Vertex> path,
                           std::span<const graph::Vertex> scanned) {
  DISTBC_ASSERT(index < records_.size());
  Record& slot = records_[index];
  if (slot.bloom) --bloom_sketches_;
  fill(slot, stream, connected, path, scanned);
  if (slot.bloom) ++bloom_sketches_;
}

std::size_t SampleLedger::heap_bytes() const {
  std::size_t bytes = records_.capacity() * sizeof(Record);
  for (const Record& record : records_) {
    bytes += (record.path.capacity() + record.touched.capacity()) *
                 sizeof(graph::Vertex) +
             record.bits.capacity() * sizeof(std::uint64_t);
  }
  return bytes;
}

SampleLedger::Classification SampleLedger::classify(
    const EdgeBatch& batch) const {
  DISTBC_ASSERT_MSG(batch.validated(),
                    "SampleLedger::classify requires a validated EdgeBatch");
  Classification result;

  // Batch side, once per call: the sorted distinct endpoints, a bitmap
  // over them, and each endpoint's four Bloom probe positions.
  std::vector<graph::Vertex> endpoints;
  endpoints.reserve(2 * batch.size());
  for (std::span<const Edge> list : {batch.inserts(), batch.deletes()}) {
    for (const Edge& edge : list) {
      endpoints.push_back(edge.u);
      endpoints.push_back(edge.v);
    }
  }
  if (endpoints.empty()) return result;
  std::sort(endpoints.begin(), endpoints.end());
  endpoints.erase(std::unique(endpoints.begin(), endpoints.end()),
                  endpoints.end());
  const graph::Vertex largest = endpoints.back();
  std::vector<std::uint64_t> bitmap(largest / 64 + 1, 0);
  for (const graph::Vertex v : endpoints) bitmap[v / 64] |= 1ULL << (v % 64);

  std::vector<std::array<std::uint64_t, 4>> probes;
  if (bloom_sketches_ > 0) {
    const std::uint64_t total = std::uint64_t{bloom_words()} * 64;
    probes.reserve(endpoints.size());
    for (const graph::Vertex v : endpoints)
      probes.push_back(probe_bits(v, total));
  }

  // Record side: an exact record scans its list against the bitmap until
  // the first hit (vertices past the largest endpoint lie outside the
  // bitmap and are never endpoints); a Bloom record tests the precomputed
  // probe positions.
  const auto bloom_hit = [&](const std::vector<std::uint64_t>& bits) {
    return std::any_of(probes.begin(), probes.end(), [&](const auto& probe) {
      return std::all_of(probe.begin(), probe.end(), [&](std::uint64_t bit) {
        return (bits[bit / 64] >> (bit % 64)) & 1ULL;
      });
    });
  };
  const auto exact_hit = [&](const std::vector<graph::Vertex>& touched) {
    return std::ranges::any_of(touched, [&](graph::Vertex v) {
      return v <= largest && ((bitmap[v / 64] >> (v % 64)) & 1ULL);
    });
  };
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const Record& record = records_[i];
    if (record.bloom ? bloom_hit(record.bits) : exact_hit(record.touched)) {
      result.dirty.push_back(static_cast<std::uint32_t>(i));
      if (record.bloom) ++result.bloom_dirty;
    }
  }
  return result;
}

}  // namespace distbc::dynamic
