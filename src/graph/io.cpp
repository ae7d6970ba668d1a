#include "graph/io.hpp"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <span>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "graph/builder.hpp"

namespace distbc::graph {

namespace {

constexpr std::uint64_t kBinaryMagic = 0x44425443'52535631ULL;  // "DBTCRSV1"

[[noreturn]] void io_error(const std::string& path, const std::string& what) {
  throw std::runtime_error("graph io: " + path + ": " + what);
}

/// Names the first way the CSR arrays break the Graph invariants every
/// traversal relies on, or returns empty when they hold: offsets start at
/// 0, never decrease, and end at the arc count (in-bounds slices); every
/// neighbor id is below n (in-bounds visits); each list is strictly
/// increasing (has_edge's binary search, and no parallel arcs - the
/// bidirectional BFS's root hop is draw-for-draw identical to a
/// predecessor scan only without them); no self-loops; and every arc has
/// its reverse (an undirected graph, which the bidirectional search's
/// t side walks backwards).
std::string csr_defect(const std::vector<EdgeId>& offsets,
                       const std::vector<Vertex>& adjacency) {
  const std::size_t n = offsets.size() - 1;
  if (offsets.front() != 0) return "offsets do not start at 0";
  if (offsets.back() != adjacency.size())
    return "last offset does not match the arc count";
  for (std::size_t v = 0; v < n; ++v) {
    if (offsets[v] > offsets[v + 1]) return "offsets decrease";
  }
  auto list = [&](std::size_t v) {
    return std::span<const Vertex>(adjacency.data() + offsets[v],
                                   adjacency.data() + offsets[v + 1]);
  };
  for (std::size_t v = 0; v < n; ++v) {
    const std::span<const Vertex> nbrs = list(v);
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      if (nbrs[i] >= n) return "neighbor id out of range";
      if (nbrs[i] == v) return "self-loop";
      if (i > 0 && nbrs[i] <= nbrs[i - 1])
        return "adjacency list not strictly increasing (parallel arcs?)";
    }
  }
  for (std::size_t u = 0; u < n; ++u) {
    for (const Vertex v : list(u)) {
      const std::span<const Vertex> back = list(v);
      if (!std::binary_search(back.begin(), back.end(),
                              static_cast<Vertex>(u)))
        return "arc without its reverse (graph not undirected)";
    }
  }
  return {};
}

}  // namespace

Graph read_edge_list(const std::string& path) {
  std::ifstream in(path);
  if (!in) io_error(path, "cannot open for reading");

  std::vector<std::pair<std::uint64_t, std::uint64_t>> raw_edges;
  std::map<std::uint64_t, Vertex> compact;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#' || line[0] == '%') continue;
    std::istringstream fields(line);
    std::uint64_t u = 0;
    std::uint64_t v = 0;
    if (!(fields >> u >> v)) io_error(path, "malformed line: " + line);
    raw_edges.emplace_back(u, v);
    compact.emplace(u, 0);
    compact.emplace(v, 0);
  }

  Vertex next_id = 0;
  for (auto& [raw, id] : compact) id = next_id++;

  Builder builder(next_id);
  builder.reserve(raw_edges.size());
  for (const auto& [u, v] : raw_edges)
    builder.add_edge(compact.at(u), compact.at(v));
  return builder.finish();
}

void write_edge_list(const Graph& graph, const std::string& path) {
  std::ofstream out(path);
  if (!out) io_error(path, "cannot open for writing");
  out << "# distbc edge list: " << graph.num_vertices() << " vertices, "
      << graph.num_edges() << " edges\n";
  for (Vertex u = 0; u < graph.num_vertices(); ++u) {
    for (const Vertex v : graph.neighbors(u)) {
      if (u < v) out << u << ' ' << v << '\n';
    }
  }
  if (!out) io_error(path, "write failed");
}

void write_binary(const Graph& graph, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) io_error(path, "cannot open for writing");

  const std::uint64_t magic = kBinaryMagic;
  const std::uint64_t n = graph.num_vertices();
  const std::uint64_t arcs = graph.num_arcs();
  out.write(reinterpret_cast<const char*>(&magic), sizeof magic);
  out.write(reinterpret_cast<const char*>(&n), sizeof n);
  out.write(reinterpret_cast<const char*>(&arcs), sizeof arcs);
  out.write(reinterpret_cast<const char*>(graph.offsets().data()),
            static_cast<std::streamsize>((n + 1) * sizeof(EdgeId)));
  out.write(reinterpret_cast<const char*>(graph.adjacency().data()),
            static_cast<std::streamsize>(arcs * sizeof(Vertex)));
  if (!out) io_error(path, "write failed");
}

Graph read_binary(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) io_error(path, "cannot open for reading");

  std::uint64_t magic = 0;
  std::uint64_t n = 0;
  std::uint64_t arcs = 0;
  in.read(reinterpret_cast<char*>(&magic), sizeof magic);
  if (magic != kBinaryMagic) io_error(path, "bad magic (not a distbc graph)");
  in.read(reinterpret_cast<char*>(&n), sizeof n);
  in.read(reinterpret_cast<char*>(&arcs), sizeof arcs);
  if (!in) io_error(path, "truncated header");
  // Size the arrays only once the header is proven consistent with the
  // file: a corrupt count must not drive a huge allocation.
  constexpr std::uint64_t kHeaderBytes = 3 * sizeof(std::uint64_t);
  const std::uint64_t file_bytes = std::filesystem::file_size(path);
  if (n >= kInvalidVertex) io_error(path, "vertex count out of range");
  if (arcs > (file_bytes - kHeaderBytes) / sizeof(Vertex) ||
      kHeaderBytes + (n + 1) * sizeof(EdgeId) + arcs * sizeof(Vertex) !=
          file_bytes) {
    io_error(path, "size does not match its header counts");
  }

  std::vector<EdgeId> offsets(n + 1);
  std::vector<Vertex> adjacency(arcs);
  in.read(reinterpret_cast<char*>(offsets.data()),
          static_cast<std::streamsize>((n + 1) * sizeof(EdgeId)));
  in.read(reinterpret_cast<char*>(adjacency.data()),
          static_cast<std::streamsize>(arcs * sizeof(Vertex)));
  if (!in) io_error(path, "truncated file");
  const std::string defect = csr_defect(offsets, adjacency);
  if (!defect.empty()) io_error(path, "malformed CSR: " + defect);
  return Graph(std::move(offsets), std::move(adjacency));
}

}  // namespace distbc::graph
