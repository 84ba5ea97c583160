// Tests for the baseline edge coloring algorithms.
#include <gtest/gtest.h>

#include "coloring/baselines.hpp"
#include "golden_digest.hpp"
#include "graph/generators.hpp"
#include "util/logstar.hpp"

namespace dec {
namespace {

TEST(Baselines, Fast2DeltaProperAndTight) {
  Rng rng(130);
  for (const int d : {4, 8, 16}) {
    const Graph g = gen::random_regular(30 * d, d, rng);
    const auto r = edge_color_fast_2delta(g);
    EXPECT_TRUE(is_complete_proper_edge_coloring(g, r.colors));
    EXPECT_EQ(r.palette, 2 * d - 1);
  }
}

// Golden pin: colors, palette, rounds and ledger recorded from the
// per-round full sweeps of the reductions and the sort-based line graph.
TEST(Baselines, Fast2DeltaMatchesRecordedColorsAndRounds) {
  Rng rng(130);
  std::vector<std::pair<const char*, Graph>> cases;
  for (const int d : {4, 8, 16}) {
    cases.emplace_back("regular", gen::random_regular(30 * d, d, rng));
  }
  cases.emplace_back("gnp", gen::gnp(150, 0.06, rng));
  cases.emplace_back("star", gen::star(9));
  cases.emplace_back("matching", Graph(4, {{0, 1}, {2, 3}}));
  const std::int64_t want_rounds[] = {16, 24, 46, 44, 12, 0};
  const int want_palette[] = {7, 15, 31, 33, 9, 1};
  const std::uint64_t want_colors[] = {
      12156436291805361398ull, 4999455272534675609ull,
      16744236653501185007ull, 7689882106571237569ull,
      383858329251072002ull,   10017002007989796321ull};
  const std::uint64_t want_ledger[] = {
      10807892607518670201ull, 15415783104122503009ull,
      9689265861463734811ull,  8744725827193559871ull,
      11242839234491416607ull, 1469598103934665603ull};
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const auto& [name, g] = cases[i];
    RoundLedger ledger;
    const auto r = edge_color_fast_2delta(g, &ledger);
    Fnv colors;
    colors.add_all(r.colors);
    EXPECT_EQ(r.rounds, want_rounds[i]) << name << " case " << i;
    EXPECT_EQ(r.palette, want_palette[i]) << name << " case " << i;
    EXPECT_EQ(colors.h, want_colors[i]) << name << " case " << i;
    EXPECT_EQ(ledger_digest(ledger), want_ledger[i]) << name << " case " << i;
  }
}

TEST(Baselines, Fast2DeltaRoundsLinearInDelta) {
  Rng rng(131);
  for (const int d : {8, 16, 32}) {
    const Graph g = gen::random_regular(10 * d, d, rng);
    const auto r = edge_color_fast_2delta(g);
    // O(Δ̄ + log* m): ap phase <= q ~ 4Δ + greedy reduce ~ 2Δ.
    EXPECT_LE(r.rounds, 16 * d + 60) << "d=" << d;
  }
}

TEST(Baselines, QuadraticGreedyProper) {
  Rng rng(132);
  const Graph g = gen::random_regular(120, 6, rng);
  const auto r = edge_color_greedy_quadratic(g);
  EXPECT_TRUE(is_complete_proper_edge_coloring(g, r.colors));
  EXPECT_EQ(r.palette, 2 * 6 - 1);
}

TEST(Baselines, LubyProperAndFast) {
  Rng rng(133);
  const Graph g = gen::random_regular(400, 10, rng);
  Rng colors_rng(5);
  const auto r = edge_color_luby(g, colors_rng);
  EXPECT_TRUE(is_complete_proper_edge_coloring(g, r.colors));
  EXPECT_EQ(r.palette, 2 * 10 - 1);
  // O(log m) w.h.p.; generous cap.
  EXPECT_LE(r.rounds, 8 * ceil_log2(static_cast<std::uint64_t>(g.num_edges())));
}

TEST(Baselines, EdgeCases) {
  const auto r0 = edge_color_fast_2delta(gen::empty(3));
  EXPECT_TRUE(r0.colors.empty());
  const Graph matching(4, {{0, 1}, {2, 3}});
  const auto r1 = edge_color_fast_2delta(matching);
  EXPECT_TRUE(is_complete_proper_edge_coloring(matching, r1.colors));
  EXPECT_EQ(r1.palette, 1);
  Rng rng(134);
  const auto r2 = edge_color_luby(gen::star(5), rng);
  EXPECT_TRUE(is_complete_proper_edge_coloring(gen::star(5), r2.colors));
}

TEST(Baselines, LedgerAccounting) {
  Rng rng(135);
  const Graph g = gen::random_regular(80, 6, rng);
  RoundLedger ledger;
  const auto r = edge_color_fast_2delta(g, &ledger);
  EXPECT_EQ(ledger.total(), r.rounds);
  EXPECT_GT(ledger.component("ap_reduce"), 0);
  EXPECT_GT(ledger.component("linial"), 0);
}

}  // namespace
}  // namespace dec
