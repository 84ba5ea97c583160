// Reproduces why the solve workloads use random-regular inputs (see
// POWER_LAW.md): congest_edge_coloring on Chung–Lu power-law graphs throws
// CheckError for some seeds.
//
//   cmake --build .bench_build --target repro_power_law
//   .bench_build/repro_power_law [n] [seed ...]     (default: 10000 1 2 3 4 5 42)
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <vector>

#include "core/congest_coloring.hpp"
#include "graph/generators.hpp"

int main(int argc, char** argv) {
  const dec::NodeId n = argc > 1 ? std::atoi(argv[1]) : 10000;
  std::vector<std::uint64_t> seeds;
  for (int i = 2; i < argc; ++i) seeds.push_back(std::strtoull(argv[i], nullptr, 10));
  if (seeds.empty()) seeds = {1, 2, 3, 4, 5, 42};

  int failures = 0;
  for (const std::uint64_t seed : seeds) {
    dec::Rng rng(seed);
    const dec::Graph g = dec::gen::power_law(n, 2.5, 8, rng);
    std::printf("n=%d seed=%llu m=%lld delta=%d: ", static_cast<int>(n),
                static_cast<unsigned long long>(seed),
                static_cast<long long>(g.num_edges()), g.max_degree());
    std::fflush(stdout);
    const auto t0 = std::chrono::steady_clock::now();
    try {
      const auto r = dec::congest_edge_coloring(g, 1.0);
      std::printf("ok rounds=%lld palette=%d",
                  static_cast<long long>(r.rounds), r.palette);
    } catch (const std::exception& e) {
      ++failures;
      std::printf("threw: %s", e.what());
    }
    std::printf(" (%.1f s)\n",
                std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                              t0)
                    .count());
  }
  return failures == 0 ? 0 : 1;
}
