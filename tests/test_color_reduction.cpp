// Tests for the arithmetic-progression and greedy color reductions.
#include <gtest/gtest.h>

#include "coloring/color_reduction.hpp"
#include "coloring/linial.hpp"
#include "golden_digest.hpp"
#include "graph/generators.hpp"
#include "util/prime.hpp"

namespace dec {
namespace {

std::vector<Color> spread_coloring(const Graph& g, std::int64_t q) {
  // A proper coloring inside [0, q²) obtained from Linial (palette <= q² for
  // q >= 2Δ+2 as the pipeline guarantees).
  const LinialResult lin = linial_color(g);
  EXPECT_LE(lin.palette, q * q);
  return lin.colors;
}

TEST(ApReduce, ReducesToQColors) {
  Rng rng(20);
  const Graph g = gen::random_regular(300, 6, rng);
  const std::int64_t q =
      static_cast<std::int64_t>(next_prime(static_cast<std::uint64_t>(2 * 6 + 2)));
  const ReductionResult r = ap_reduce(g, spread_coloring(g, q), q);
  EXPECT_TRUE(is_complete_proper_vertex_coloring(g, r.colors));
  for (const Color c : r.colors) EXPECT_LT(c, q);
  EXPECT_LE(r.rounds, q);
}

std::int64_t reduction_prime(const Graph& g) {
  return static_cast<std::int64_t>(
      next_prime(static_cast<std::uint64_t>(2 * g.max_degree() + 2)));
}

std::uint64_t colors_digest(const std::vector<Color>& colors) {
  Fnv f;
  f.add_all(colors);
  return f.h;
}

// Golden pins: colors and charged rounds recorded from the round sweeps
// that re-scanned every node each round. The reductions must reproduce
// them exactly, including the one round charged when every node starts
// settled.
TEST(ApReduce, MatchesRecordedColorsAndRounds) {
  struct Case {
    const char* name;
    Graph g;
    std::vector<Color> input;
  };
  Rng rng(20);
  std::vector<Case> cases;
  {
    Graph g = gen::random_regular(300, 6, rng);
    std::vector<Color> in = linial_color(g).colors;
    cases.push_back({"regular300x6", std::move(g), std::move(in)});
  }
  {
    Graph g = gen::complete(12);
    std::vector<Color> in(12);
    for (int i = 0; i < 12; ++i) in[static_cast<std::size_t>(i)] = i;
    cases.push_back({"complete12", std::move(g), std::move(in)});
  }
  {
    Graph g = gen::gnp(400, 0.03, rng);
    std::vector<Color> in = linial_color(g).colors;
    cases.push_back({"gnp400", std::move(g), std::move(in)});
  }
  {
    Graph g = gen::random_regular(2000, 12, rng);
    std::vector<Color> in = linial_color(g).colors;
    cases.push_back({"regular2000x12", std::move(g), std::move(in)});
  }
  {
    // Every color is below q, so every line is constant: all nodes start
    // settled and the reduction still charges its first round.
    Graph g = gen::random_regular(200, 8, rng);
    std::vector<Color> in = vertex_color_delta_plus_one(g).colors;
    cases.push_back({"all_settled", std::move(g), std::move(in)});
  }
  const std::int64_t want_rounds[] = {3, 1, 5, 6, 1};
  const std::uint64_t want_digest[] = {
      1612655347906437248ull, 1478710850635942255ull, 12708147986929628725ull,
      5540143411772614111ull, 10578131764067605550ull};
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const Case& c = cases[i];
    RoundLedger ledger;
    const ReductionResult r =
        ap_reduce(c.g, c.input, reduction_prime(c.g), &ledger);
    EXPECT_EQ(r.rounds, want_rounds[i]) << c.name;
    EXPECT_EQ(colors_digest(r.colors), want_digest[i]) << c.name;
    EXPECT_EQ(ledger.component("ap_reduce"), r.rounds) << c.name;
    EXPECT_EQ(r.palette, reduction_prime(c.g)) << c.name;
  }
}

TEST(ApReduce, RejectsBadParameters) {
  const Graph g = gen::cycle(10);
  EXPECT_THROW(ap_reduce(g, std::vector<Color>(10, 0), 7), CheckError);  // improper
  std::vector<Color> proper(10);
  for (int i = 0; i < 10; ++i) proper[static_cast<std::size_t>(i)] = i % 2;
  EXPECT_THROW(ap_reduce(g, proper, 8), CheckError);   // not prime
  EXPECT_THROW(ap_reduce(g, proper, 5), CheckError);   // q < 2Δ+2
  std::vector<Color> big = proper;
  big[0] = 48;  // within q²=49 is fine; 50 is not
  big[0] = 50;
  EXPECT_THROW(ap_reduce(g, big, 7), CheckError);
}

TEST(ApReduce, WorksOnDenseGraph) {
  const Graph g = gen::complete(12);
  const std::int64_t q = static_cast<std::int64_t>(
      next_prime(static_cast<std::uint64_t>(2 * g.max_degree() + 2)));
  std::vector<Color> init(12);
  for (int i = 0; i < 12; ++i) init[static_cast<std::size_t>(i)] = i;
  const ReductionResult r = ap_reduce(g, init, q);
  EXPECT_TRUE(is_complete_proper_vertex_coloring(g, r.colors));
  for (const Color c : r.colors) EXPECT_LT(c, q);
}

TEST(GreedyReduce, HitsDeltaPlusOne) {
  Rng rng(21);
  const Graph g = gen::gnp(120, 0.08, rng);
  const LinialResult lin = linial_color(g);
  const int target = g.max_degree() + 1;
  const ReductionResult r = greedy_reduce(g, lin.colors, lin.palette, target);
  EXPECT_TRUE(is_complete_proper_vertex_coloring(g, r.colors));
  for (const Color c : r.colors) EXPECT_LT(c, target);
  EXPECT_EQ(r.rounds, lin.palette - target);
}

TEST(GreedyReduce, MatchesRecordedColorsAndRounds) {
  struct Case {
    const char* name;
    Graph g;
    std::vector<Color> input;
    int palette;
    int target;
  };
  Rng rng(21);
  std::vector<Case> cases;
  {
    Graph g = gen::gnp(120, 0.08, rng);
    const LinialResult lin = linial_color(g);
    const int target = g.max_degree() + 1;
    cases.push_back({"gnp120", std::move(g), lin.colors, lin.palette, target});
  }
  {
    Graph g = gen::random_regular(1000, 10, rng);
    const LinialResult lin = linial_color(g);
    const ReductionResult ap = ap_reduce(g, lin.colors, reduction_prime(g));
    const int target = g.max_degree() + 1;
    cases.push_back(
        {"regular1000x10", std::move(g), ap.colors, ap.palette, target});
  }
  {
    // A target above Δ+1 leaves some colors free in every neighborhood.
    Graph g = gen::random_regular(500, 6, rng);
    const LinialResult lin = linial_color(g);
    const int target = g.max_degree() + 5;
    cases.push_back(
        {"regular500x6_wide", std::move(g), lin.colors, lin.palette, target});
  }
  const std::int64_t want_rounds[] = {99, 12, 158};
  const std::uint64_t want_digest[] = {12903779887152718027ull,
                                       17461876392855498441ull,
                                       12734630930707775511ull};
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const Case& c = cases[i];
    RoundLedger ledger;
    const ReductionResult r =
        greedy_reduce(c.g, c.input, c.palette, c.target, &ledger);
    EXPECT_EQ(r.rounds, want_rounds[i]) << c.name;
    EXPECT_EQ(colors_digest(r.colors), want_digest[i]) << c.name;
    EXPECT_EQ(ledger.component("greedy_reduce"), r.rounds) << c.name;
    EXPECT_EQ(r.palette, std::min(c.palette, c.target)) << c.name;
  }
}

TEST(GreedyReduce, RejectsTargetBelowDeltaPlusOne) {
  const Graph g = gen::star(4);
  std::vector<Color> init{0, 1, 2, 3, 4};
  EXPECT_THROW(greedy_reduce(g, init, 5, 4), CheckError);
}

TEST(GreedyReduce, NoopWhenAlreadySmall) {
  const Graph g = gen::path(4);
  std::vector<Color> init{0, 1, 0, 1};
  const ReductionResult r = greedy_reduce(g, init, 2, 3);
  EXPECT_EQ(r.rounds, 0);
  EXPECT_EQ(r.colors, init);
}

TEST(DeltaPlusOnePipeline, VariousGraphs) {
  Rng rng(22);
  const Graph graphs[] = {gen::cycle(30), gen::random_regular(100, 8, rng),
                          gen::gnp(80, 0.15, rng), gen::hypercube(5),
                          gen::complete(9)};
  for (const Graph& g : graphs) {
    const ReductionResult r = vertex_color_delta_plus_one(g);
    EXPECT_TRUE(is_complete_proper_vertex_coloring(g, r.colors));
    EXPECT_LE(r.palette, g.max_degree() + 1);
  }
}

TEST(DeltaPlusOnePipeline, RoundsLinearInDelta) {
  Rng rng(23);
  for (const int d : {4, 8, 16, 32}) {
    const Graph g = gen::random_regular(400, d, rng);
    RoundLedger ledger;
    const ReductionResult r = vertex_color_delta_plus_one(g, &ledger);
    EXPECT_TRUE(is_complete_proper_vertex_coloring(g, r.colors));
    // O(Δ): ap (<= q ~ 2Δ+3) + greedy (q - Δ - 1) + log* term.
    EXPECT_LE(r.rounds, 8 * d + 40) << "d=" << d;
  }
}

TEST(DeltaPlusOnePipeline, EdgelessGraph) {
  const ReductionResult r = vertex_color_delta_plus_one(gen::empty(7));
  EXPECT_EQ(r.palette, 1);
}

}  // namespace
}  // namespace dec
