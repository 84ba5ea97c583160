// Tests for defective vertex coloring (Lemma 6.2 machinery).
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <string>

#include "coloring/defective.hpp"
#include "coloring/linial.hpp"
#include "graph/generators.hpp"

namespace dec {
namespace {

int max_defect(const Graph& g, const std::vector<Color>& colors) {
  const auto d = vertex_defects(g, colors);
  return d.empty() ? 0 : *std::max_element(d.begin(), d.end());
}

TEST(DefectivePrecolor, MeetsDefectTarget) {
  Rng rng(30);
  const Graph g = gen::random_regular(300, 12, rng);
  const LinialResult lin = linial_color(g);
  for (const int p : {1, 2, 4, 12}) {
    const DefectiveResult r = defective_precolor(g, lin.colors, lin.palette, p);
    EXPECT_LE(r.max_defect, p) << "p=" << p;
    EXPECT_EQ(r.rounds, 1);
    for (const Color c : r.colors) {
      EXPECT_GE(c, 0);
      EXPECT_LT(c, r.palette);
    }
  }
}

TEST(DefectivePrecolor, PaletteShrinksWithDefectBudget) {
  Rng rng(31);
  const Graph g = gen::random_regular(400, 16, rng);
  const LinialResult lin = linial_color(g);
  const DefectiveResult tight =
      defective_precolor(g, lin.colors, lin.palette, 1);
  const DefectiveResult loose =
      defective_precolor(g, lin.colors, lin.palette, 8);
  EXPECT_LT(loose.palette, tight.palette);
}

TEST(DefectivePrecolor, RejectsBadInput) {
  const Graph g = gen::path(4);
  EXPECT_THROW(defective_precolor(g, {0, 0, 1, 2}, 3, 1), CheckError);
  EXPECT_THROW(defective_precolor(g, {0, 1, 0, 1}, 2, 0), CheckError);
}

// A palette q² past the int32 Color range used to wrap silently: this star
// (q = 60013) returned palette -693,407,127.
TEST(DefectivePrecolor, RejectsPaletteBeyondColorRange) {
  const Graph g = gen::star(60000);
  std::vector<Color> ids(static_cast<std::size_t>(g.num_nodes()));
  std::iota(ids.begin(), ids.end(), 0);
  try {
    defective_precolor(g, ids, 60001, 1);
    FAIL() << "expected a CheckError";
  } catch (const CheckError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("Δ = 60000"), std::string::npos) << what;
    EXPECT_NE(what.find("target defect = 1"), std::string::npos) << what;
    EXPECT_NE(what.find("q = 60013"), std::string::npos) << what;
  }
}

TEST(DefectiveRefine, ConvergesAndMeetsThreshold) {
  Rng rng(32);
  const Graph g = gen::random_regular(200, 12, rng);
  const LinialResult lin = linial_color(g);
  const int threshold = 12 / 4 + 2;
  const DefectiveResult r = defective_refine(g, lin.colors, lin.palette, 4,
                                             threshold, 128);
  EXPECT_TRUE(r.converged);
  EXPECT_LE(r.max_defect, threshold);
  EXPECT_EQ(r.palette, 4);
}

TEST(DefectiveRefine, RejectsImpossibleThreshold) {
  const Graph g = gen::complete(9);
  std::vector<Color> classes(9);
  for (int i = 0; i < 9; ++i) classes[static_cast<std::size_t>(i)] = i;
  // threshold below ⌊Δ/C⌋+1 can livelock; the API rejects it.
  EXPECT_THROW(defective_refine(g, classes, 9, 4, 2, 10), CheckError);
}

TEST(Defective4Coloring, Lemma62Contract) {
  Rng rng(33);
  for (const int d : {8, 16, 24}) {
    const Graph g = gen::random_regular(240, d, rng);
    const LinialResult lin = linial_color(g);
    for (const double eps : {0.25, 0.5}) {
      const DefectiveResult r =
          defective_4_coloring(g, lin.colors, lin.palette, eps);
      const int target = static_cast<int>(eps * d) + d / 2;
      EXPECT_LE(r.max_defect, target) << "d=" << d << " eps=" << eps;
      EXPECT_LE(r.palette, 4);
      EXPECT_EQ(max_defect(g, r.colors), r.max_defect);
    }
  }
}

TEST(Defective4Coloring, MatchingEdgeCase) {
  // Δ = 1: target defect 0 for tiny eps forces a proper coloring.
  const auto bg = gen::regular_bipartite(6, 1);
  const LinialResult lin = linial_color(bg.graph);
  const DefectiveResult r =
      defective_4_coloring(bg.graph, lin.colors, lin.palette, 0.1);
  EXPECT_EQ(r.max_defect, 0);
}

TEST(Defective4Coloring, EmptyGraph) {
  const Graph g = gen::empty(5);
  const DefectiveResult r = defective_4_coloring(g, {0, 0, 0, 0, 0}, 1, 0.5);
  EXPECT_EQ(r.max_defect, 0);
}

TEST(DefectiveSplit, TheoremD4Setting) {
  Rng rng(34);
  const Graph g = gen::random_regular(300, 16, rng);
  const LinialResult lin = linial_color(g);
  const int target = std::max(16 / 4 + 1, 16 / 2);
  const DefectiveResult r = defective_split_coloring(g, lin.colors,
                                                     lin.palette, 4, target);
  EXPECT_LE(r.max_defect, target);
  EXPECT_LE(r.palette, 4);
}

TEST(DefectiveSplit, RejectsPigeonholeViolation) {
  const Graph g = gen::complete(9);
  const LinialResult lin = linial_color(g);
  EXPECT_THROW(
      defective_split_coloring(g, lin.colors, lin.palette, 4, 8 / 4),
      CheckError);
}

TEST(DefectiveRefine, PropertyThresholdSweep) {
  // Property harness over ~50 seeded graphs: wherever the threshold local
  // search converges on the message-passing engine, every node's defect is
  // at most the move threshold, and the audited round count is exactly
  // 2 rounds x classes x sweeps.
  for (int seed = 0; seed < 50; ++seed) {
    Rng rng(700 + static_cast<std::uint64_t>(seed));
    const Graph g = seed % 2 == 0
                        ? gen::gnp(60 + seed, 0.05 + 0.002 * (seed % 10), rng)
                        : gen::random_regular(64 + 2 * (seed / 2),
                                              4 + 2 * (seed % 4), rng);
    if (g.max_degree() < 2) continue;
    const LinialResult lin = linial_color(g);
    const int threshold = g.max_degree() / 4 + 1 + seed % 3;
    RoundLedger ledger;
    const DefectiveResult r = defective_refine(g, lin.colors, lin.palette, 4,
                                               threshold, 256, &ledger);
    EXPECT_TRUE(r.converged) << "seed=" << seed;
    EXPECT_LE(r.max_defect, threshold) << "seed=" << seed;
    EXPECT_EQ(r.max_defect, max_defect(g, r.colors)) << "seed=" << seed;
    EXPECT_EQ(r.rounds,
              static_cast<std::int64_t>(2) * lin.palette * r.sweeps)
        << "seed=" << seed;
    EXPECT_EQ(ledger.component("defective_refine"), r.rounds)
        << "seed=" << seed;
    for (const Color c : r.colors) {
      EXPECT_GE(c, 0);
      EXPECT_LT(c, 4);
    }
  }
}

// Property sweep: the Lemma 6.2 bound across graph families and ε.
struct DefCase {
  int family;
  double eps;
};
class DefectiveSweep : public ::testing::TestWithParam<DefCase> {};

TEST_P(DefectiveSweep, BoundHolds) {
  Rng rng(35);
  const auto [family, eps] = GetParam();
  Graph g = family == 0   ? gen::random_regular(200, 10, rng)
            : family == 1 ? gen::gnp(200, 0.08, rng)
                          : gen::power_law(200, 2.5, 8.0, rng);
  const LinialResult lin = linial_color(g);
  const DefectiveResult r = defective_4_coloring(g, lin.colors, lin.palette, eps);
  EXPECT_LE(r.max_defect,
            static_cast<int>(eps * g.max_degree()) + g.max_degree() / 2);
}

INSTANTIATE_TEST_SUITE_P(
    FamiliesTimesEps, DefectiveSweep,
    ::testing::Values(DefCase{0, 0.25}, DefCase{0, 0.5}, DefCase{1, 0.25},
                      DefCase{1, 0.5}, DefCase{2, 0.25}, DefCase{2, 0.5}));

}  // namespace
}  // namespace dec
