// CommBench-style substrate x pattern x payload matrix over the
// mpisim::Comm API: every network preset (mpisim MPI-flavored, ncclsim
// NCCL-flavored; mpisim::network_preset) runs the same four collective
// patterns - dense reduce, allreduce, gatherv, bcast -
// at a sweep of payload sizes on one fixed cluster shape, and reports the
// bytes moved plus the interconnect model's analytic completion charge
// (modeled_s) per cell.
// The byte counters are substrate-invariant (one data plane: a preset
// changes the clock, never the traffic), while modeled_s is where the
// presets diverge - ncclsim pays a kernel-launch latency and prices
// all-reduces as a flat ring, mpisim as a butterfly. Acceptance:
//   * every cell's collective is semantically correct (sums verified),
//   * byte counters identical across substrates for every pattern cell,
//   * the ncclsim allreduce cell reproduces the ring closed form
//     launch + 2(P-1) alpha + (2(P-1)/P) B / beta exactly (the charge is
//     a single allreduce_cost call; the bench recomputes it from the
//     model parameters at 1e-6 relative).
// The --json object (BENCH_comm_matrix.json in CI) carries one summary
// anchor per cell: {substrate}_{pattern}_w{words}_modeled_s gated at the
// tight modeled tolerance, plus the cell's total bytes gated exactly.
#include <cmath>
#include <cstdint>
#include <iterator>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "mpisim/comm.hpp"
#include "mpisim/runtime.hpp"

int main(int argc, char** argv) {
  using namespace distbc;
  bench::BenchConfig config(argc, argv);
  config.options.describe("rpn", "simulated ranks per node");
  config.finish("Substrate x pattern x payload collective matrix.");
  bench::print_preamble(
      "CommBench matrix - substrate x pattern x payload",
      "pluggable comm substrates; NCCL ring economics vs MPI butterfly",
      config);
  bench::JsonReport json("commbench_matrix", config);

  const int ranks =
      static_cast<int>(config.options.get_u64("ranks", 8));
  const int ranks_per_node =
      static_cast<int>(config.options.get_u64("rpn", 4));
  const mpisim::NetworkModel base = bench::bench_network(config);
  json.param("ranks", static_cast<double>(ranks));
  json.param("ranks_per_node", static_cast<double>(ranks_per_node));

  const char* substrates[] = {"mpisim", "ncclsim"};
  const char* patterns[] = {"reduce", "allreduce", "gatherv", "bcast"};
  const std::size_t payload_words[] = {512, 8192, 131072};

  // One cell: a fresh runtime on the preset's network economics, one
  // collective, the volume snapshot read at world rank 0 (blocking
  // collectives return only after every contribution is charged, so the
  // root-side read races with nothing).
  struct Cell {
    mpisim::CommVolume volume;
    bool ok = true;
  };
  const auto run_cell = [&](const char* substrate, const std::string& pattern,
                            std::size_t words) {
    mpisim::RuntimeConfig runtime_config;
    runtime_config.num_ranks = ranks;
    runtime_config.ranks_per_node = ranks_per_node;
    runtime_config.network = *mpisim::network_preset(substrate, base);
    mpisim::Runtime runtime(runtime_config);

    Cell cell;
    std::mutex mu;
    runtime.run([&](mpisim::Comm& world) {
      const auto rank = static_cast<std::uint64_t>(world.rank());
      bool rank_ok = true;
      if (pattern == "reduce" || pattern == "allreduce") {
        const std::vector<std::uint64_t> send(words, rank + 1);
        std::vector<std::uint64_t> recv(words, 0);
        if (pattern == "reduce") {
          world.reduce(std::span<const std::uint64_t>(send),
                       std::span<std::uint64_t>(recv), 0);
        } else {
          world.allreduce(std::span<const std::uint64_t>(send),
                          std::span<std::uint64_t>(recv));
        }
        // Sum of (r + 1) over all ranks; only the root holds it under
        // the rooted reduce.
        const std::uint64_t expect =
            static_cast<std::uint64_t>(ranks) *
            static_cast<std::uint64_t>(ranks + 1) / 2;
        if (pattern == "allreduce" || world.rank() == 0)
          for (const std::uint64_t value : recv)
            if (value != expect) rank_ok = false;
      } else if (pattern == "gatherv") {
        const std::vector<std::uint64_t> send(words, rank);
        std::vector<std::vector<std::uint64_t>> recv;
        world.gatherv(std::span<const std::uint64_t>(send), recv, 0);
        if (world.rank() == 0) {
          if (recv.size() != static_cast<std::size_t>(ranks)) rank_ok = false;
          for (std::size_t r = 0; rank_ok && r < recv.size(); ++r)
            if (recv[r].size() != words || recv[r].front() != r)
              rank_ok = false;
        }
      } else {  // bcast
        std::vector<std::uint64_t> buffer(words, world.rank() == 0 ? 7 : 0);
        world.bcast(std::span<std::uint64_t>(buffer), 0);
        for (const std::uint64_t value : buffer)
          if (value != 7) rank_ok = false;
      }
      std::lock_guard lock(mu);
      if (!rank_ok) cell.ok = false;
      if (world.rank() == 0) cell.volume = world.stats().volume();
    });
    return cell;
  };

  TablePrinter table({"substrate", "pattern", "words", "total bytes",
                      "root ingest", "modeled_s"});
  bool semantics_ok = true;
  bool bytes_invariant = true;
  // Per (pattern, words): total bytes of the mpisim leg, checked against
  // the ncclsim leg - the substrate changes the clock, never the traffic.
  std::vector<std::uint64_t> mpisim_bytes;
  std::size_t cell_index = 0;
  double ncclsim_allreduce_largest_s = 0.0;

  for (const char* substrate : substrates) {
    std::size_t check_index = 0;
    for (const char* pattern : patterns) {
      for (const std::size_t words : payload_words) {
        const Cell cell = run_cell(substrate, pattern, words);
        if (!cell.ok) semantics_ok = false;
        const mpisim::CommVolume& volume = cell.volume;
        if (std::string(substrate) == "mpisim") {
          mpisim_bytes.push_back(volume.total());
        } else {
          if (volume.total() != mpisim_bytes[check_index])
            bytes_invariant = false;
          if (std::string(pattern) == "allreduce" &&
              words == payload_words[2])
            ncclsim_allreduce_largest_s = volume.modeled_seconds();
        }
        ++check_index;
        ++cell_index;
        table.add_row(
            {substrate, pattern,
             TablePrinter::fmt_int(static_cast<long long>(words)),
             TablePrinter::fmt_int(static_cast<long long>(volume.total())),
             TablePrinter::fmt_int(
                 static_cast<long long>(volume.root_ingest_bytes)),
             TablePrinter::fmt(volume.modeled_seconds(), 7)});
        json.begin_row();
        json.field("pattern", std::string(pattern));
        json.field("words", static_cast<double>(words));
        json.field("substrate", std::string(substrate));
        bench::add_comm_volume_fields(json, volume);
        const std::string cell_key = std::string(substrate) + "_" + pattern +
                                     "_w" + std::to_string(words);
        json.summary(cell_key + "_modeled_s", volume.modeled_seconds());
        json.summary(cell_key + "_bytes",
                     static_cast<double>(volume.total()));
      }
    }
  }
  table.print();

  // The ncclsim allreduce charge is one allreduce_cost call on the ring
  // model; recompute the closed form from the composed parameters. Hop
  // parameters are remote (the ring spans nodes on this shape).
  const mpisim::NetworkModel nccl = *mpisim::network_preset("ncclsim", base);
  const double total_ranks = static_cast<double>(ranks);
  const double steps = 2.0 * (total_ranks - 1.0);
  const double bytes =
      static_cast<double>(payload_words[2]) * sizeof(std::uint64_t);
  const double exact_form =
      nccl.launch_latency_s + steps * nccl.remote_latency_s +
      steps / total_ranks * bytes / nccl.remote_bandwidth_bps;
  // The model charges on an integer-nanosecond clock; quantize the closed
  // form the same way before the tight comparison.
  const double closed_form = std::floor(exact_form * 1e9) * 1e-9;
  const double ring_error =
      closed_form > 0.0
          ? std::abs(ncclsim_allreduce_largest_s - closed_form) / closed_form
          : 1.0;
  const bool ring_matches = ring_error <= 1e-6;

  std::printf("\ncells: %zu (2 substrates x 4 patterns x %zu payloads)\n",
              cell_index, std::size(payload_words));
  std::printf("check: collective semantics correct in every cell: %s\n",
              semantics_ok ? "PASS" : "FAIL");
  std::printf("check: byte counters substrate-invariant: %s\n",
              bytes_invariant ? "PASS" : "FAIL");
  std::printf("check: ncclsim ring allreduce closed form (rel err %.2e): "
              "%s\n",
              ring_error, ring_matches ? "PASS" : "FAIL");
  json.summary("cells", static_cast<double>(cell_index));
  json.summary("semantics_ok", semantics_ok ? 1.0 : 0.0);
  json.summary("bytes_substrate_identical", bytes_invariant ? 1.0 : 0.0);
  json.summary("ring_closed_form_ok", ring_matches ? 1.0 : 0.0);
  json.write();
  return semantics_ok && bytes_invariant && ring_matches ? 0 : 1;
}
