// Million-node graph axis benches (google-benchmark): streaming generation,
// binary CSR write / mmap load, and pooled substrate rounds at n = 10^6,
// with the per-node memory budget (graph + plan + run state bytes/node)
// reported as counters.
//
// Setup at this scale is seconds, so graphs and CSR files are built once per
// (family, n) and cached across benchmark registrations. Excluded from the
// default run_benches.sh set; opt in with BENCH_LARGE=1 (the CI large-graph
// job does), and keep BENCH_MIN_TIME modest — one pooled round at n = 10^6
// deg 8 already moves ~16M slot items.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <filesystem>
#include <map>
#include <string>
#include <utility>

#include "graph/csr_io.hpp"
#include "graph/generators.hpp"
#include "sim/network.hpp"
#include "sim/pool.hpp"
#include "sim/topology.hpp"

namespace {

using namespace dec;

enum class Family { kPowerLaw, kGrid };

Graph make_graph(Family family, NodeId n) {
  if (family == Family::kPowerLaw) {
    Rng rng(42);
    return gen::power_law(n, 2.5, 8.0, rng);
  }
  // Square grid: n must be a perfect square for the args used below.
  NodeId side = 1;
  while (static_cast<long long>(side) * side < n) ++side;
  return gen::grid(side, side);
}

// One graph per (family, n), built on first use and kept for the process
// lifetime — google-benchmark re-enters each function per repetition and
// per-arg, and regeneration would dominate wall time at 10^6.
const Graph& cached_graph(Family family, NodeId n) {
  static std::map<std::pair<int, NodeId>, Graph> cache;
  auto key = std::make_pair(static_cast<int>(family), n);
  auto it = cache.find(key);
  if (it == cache.end()) {
    it = cache.emplace(key, make_graph(family, n)).first;
  }
  return it->second;
}

std::string csr_path(Family family, NodeId n) {
  return (std::filesystem::temp_directory_path() /
          ("bench_large_" + std::to_string(static_cast<int>(family)) + "_" +
           std::to_string(n) + ".csr"))
      .string();
}

// CSR file for (family, n), written on first use.
const std::string& cached_csr(Family family, NodeId n) {
  static std::map<std::pair<int, NodeId>, std::string> cache;
  auto key = std::make_pair(static_cast<int>(family), n);
  auto it = cache.find(key);
  if (it == cache.end()) {
    const std::string path = csr_path(family, n);
    write_csr(path, cached_graph(family, n));
    it = cache.emplace(key, path).first;
  }
  return it->second;
}

void set_graph_counters(benchmark::State& state, const Graph& g) {
  state.counters["edges"] = static_cast<double>(g.num_edges());
  state.counters["graph_bytes_per_node"] =
      static_cast<double>(g.memory_bytes()) /
      static_cast<double>(g.num_nodes());
}

// --- Generation -----------------------------------------------------------

void BM_LargePowerLawGenerate(benchmark::State& state) {
  const NodeId n = static_cast<NodeId>(state.range(0));
  EdgeId m = 0;
  for (auto _ : state) {
    Rng rng(42);
    const Graph g = gen::power_law(n, 2.5, 8.0, rng);
    m = g.num_edges();
    benchmark::DoNotOptimize(m);
  }
  state.SetItemsProcessed(state.iterations() * m);
  state.counters["edges"] = static_cast<double>(m);
}
BENCHMARK(BM_LargePowerLawGenerate)
    ->Arg(1 << 17)
    ->Arg(1000000)
    ->Unit(benchmark::kMillisecond);

void BM_LargeGridGenerate(benchmark::State& state) {
  const NodeId side = static_cast<NodeId>(state.range(0));
  EdgeId m = 0;
  for (auto _ : state) {
    const Graph g = gen::grid(side, side);
    m = g.num_edges();
    benchmark::DoNotOptimize(m);
  }
  state.SetItemsProcessed(state.iterations() * m);
}
BENCHMARK(BM_LargeGridGenerate)->Arg(1000)->Unit(benchmark::kMillisecond);

void BM_LargeZipfianGenerate(benchmark::State& state) {
  const NodeId n = static_cast<NodeId>(state.range(0));
  EdgeId m = 0;
  for (auto _ : state) {
    Rng rng(42);
    const Graph g = gen::zipfian(n, 1.2, 1000, rng);
    m = g.num_edges();
    benchmark::DoNotOptimize(m);
  }
  state.SetItemsProcessed(state.iterations() * m);
}
BENCHMARK(BM_LargeZipfianGenerate)->Arg(1000000)->Unit(benchmark::kMillisecond);

// --- CSR I/O --------------------------------------------------------------

void BM_LargeCsrWrite(benchmark::State& state) {
  const Graph& g = cached_graph(Family::kPowerLaw,
                                static_cast<NodeId>(state.range(0)));
  const std::string path = csr_path(Family::kPowerLaw, 0);  // scratch file
  for (auto _ : state) {
    write_csr(path, g);
  }
  std::remove(path.c_str());
  state.SetItemsProcessed(state.iterations() * g.num_edges());
  state.SetBytesProcessed(
      state.iterations() *
      static_cast<std::int64_t>(40 + (g.num_nodes() + 1) * 8 +
                                static_cast<std::int64_t>(g.num_edges()) * 8));
}
BENCHMARK(BM_LargeCsrWrite)->Arg(1000000)->Unit(benchmark::kMillisecond);

void BM_LargeCsrLoadTrusted(benchmark::State& state) {
  const NodeId n = static_cast<NodeId>(state.range(0));
  const std::string& path = cached_csr(Family::kPowerLaw, n);
  EdgeId m = 0;
  for (auto _ : state) {
    const Graph g = read_csr(path, CsrTrust::kTrusted);
    m = g.num_edges();
    benchmark::DoNotOptimize(m);
  }
  state.SetItemsProcessed(state.iterations() * m);
}
BENCHMARK(BM_LargeCsrLoadTrusted)->Arg(1000000)->Unit(benchmark::kMillisecond);

void BM_LargeCsrLoadVerified(benchmark::State& state) {
  const NodeId n = static_cast<NodeId>(state.range(0));
  const std::string& path = cached_csr(Family::kPowerLaw, n);
  EdgeId m = 0;
  for (auto _ : state) {
    const Graph g = read_csr(path, CsrTrust::kVerify);
    m = g.num_edges();
    benchmark::DoNotOptimize(m);
  }
  state.SetItemsProcessed(state.iterations() * m);
}
BENCHMARK(BM_LargeCsrLoadVerified)->Arg(1000000)->Unit(benchmark::kMillisecond);

// --- Pooled rounds + memory budget ---------------------------------------
// The headline number: BM_NetworkRoundNarrow at n = 10^6 on the 16 B slot
// plane (declared width 1), through the same CSR load path a large
// experiment would use, with the full per-node budget (graph + topology
// plan + run state) reported alongside items/s. Args are {n, threads}. The
// large-graph CI smoke holds run_state_bytes_per_node to a per-family
// ceiling (the one-plane run state's recorded bytes/node).
template <Family family>
void BM_LargeNetworkRoundNarrow(benchmark::State& state) {
  const NodeId n = static_cast<NodeId>(state.range(0));
  const int threads = static_cast<int>(state.range(1));
  const Graph g = read_csr(cached_csr(family, n), CsrTrust::kTrusted);
  NetworkPool pool(threads);
  auto lease = pool.network(g);
  for (auto _ : state) {
    lease->round_fast([](NodeId v, const auto&, auto&& out) {
      for (auto&& m : out) m.assign({v});
    });
  }
  state.SetItemsProcessed(state.iterations() * 2 * g.num_edges());
  set_graph_counters(state, g);
  const auto topo = pool.topology(g);
  const double nodes = static_cast<double>(g.num_nodes());
  state.counters["plan_bytes_per_node"] =
      static_cast<double>(topo->memory_bytes()) / nodes;
  state.counters["run_state_bytes_per_node"] =
      static_cast<double>(lease->memory_bytes()) / nodes;
  state.counters["total_bytes_per_node"] =
      static_cast<double>(g.memory_bytes() + topo->memory_bytes() +
                          lease->memory_bytes()) /
      nodes;
}
BENCHMARK_TEMPLATE(BM_LargeNetworkRoundNarrow, Family::kPowerLaw)
    ->Args({1000000, 1})
    ->Args({1000000, 4})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();
BENCHMARK_TEMPLATE(BM_LargeNetworkRoundNarrow, Family::kGrid)
    ->Args({1000000, 1})
    ->Args({1000000, 4})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
