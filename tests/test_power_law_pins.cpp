// Power-law solves pinned end to end: congest_edge_coloring on the Chung–Lu
// power-law graphs of perfbench/repro_power_law.cpp (n = 10^4, γ = 2.5,
// average degree 8). Their high-degree hubs make the bipartite coloring
// pick k = 2 split levels, the path a relabel-in-place bug in
// bipartite_edge_coloring once broke: seeds 1 and 42 threw the leaf-degree
// CheckError. The pins are the rounds and palette those seeds produce since
// the fix. Each solve takes a few seconds serial, so this suite carries the
// ctest label `slow`.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "core/congest_coloring.hpp"
#include "graph/generators.hpp"
#include "graph/properties.hpp"
#include "util/rng.hpp"

namespace dec {
namespace {

struct PowerLawPin {
  std::uint64_t seed;
  std::int64_t rounds;
  int palette;
};

class PowerLawPins : public ::testing::TestWithParam<PowerLawPin> {};

TEST_P(PowerLawPins, SolvesWithRecordedRoundsAndPalette) {
  const PowerLawPin want = GetParam();
  Rng rng(want.seed);
  const Graph g = gen::power_law(10000, 2.5, 8, rng);
  const CongestColoringResult r = congest_edge_coloring(g, 1.0);
  EXPECT_TRUE(is_complete_proper_edge_coloring(g, r.colors));
  EXPECT_EQ(r.rounds, want.rounds);
  EXPECT_EQ(r.palette, want.palette);
  // Theorem 1.2's (8+ε)Δ palette with ε = 1.
  EXPECT_LE(r.palette, 9 * g.max_degree());
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, PowerLawPins,
    ::testing::Values(PowerLawPin{1, 43172, 2333},
                      PowerLawPin{42, 76825, 2600}),
    [](const ::testing::TestParamInfo<PowerLawPin>& info) {
      return "seed" + std::to_string(info.param.seed);
    });

}  // namespace
}  // namespace dec
