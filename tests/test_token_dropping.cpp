// Tests for the generalized token dropping game (paper §4, Theorem 4.3).
#include <gtest/gtest.h>

#include <numeric>

#include "core/token_dropping.hpp"

namespace dec {
namespace {

std::vector<int> random_tokens(const Digraph& g, int k, Rng& rng) {
  std::vector<int> t(static_cast<std::size_t>(g.num_nodes()));
  for (auto& x : t) {
    x = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(k) + 1));
  }
  return t;
}

TEST(TokenDropping, PhaseCountMatchesTheorem) {
  Rng rng(60);
  const Digraph g = layered_game(4, 20, 3, rng);
  TokenDroppingParams p;
  p.k = 32;
  p.delta = 4;
  const auto r = run_token_dropping(g, random_tokens(g, p.k, rng), p);
  EXPECT_EQ(r.phases, 32 / 4 - 1);
  EXPECT_EQ(r.rounds, 3 * r.phases);
}

TEST(TokenDropping, ConservesTokensAndRespectsCapacity) {
  Rng rng(61);
  const Digraph g = random_game(60, 0.1, rng);
  TokenDroppingParams p;
  p.k = 16;
  p.delta = 2;
  p.alpha.assign(static_cast<std::size_t>(g.num_nodes()), 3);
  const auto init = random_tokens(g, p.k, rng);
  const std::int64_t before =
      std::accumulate(init.begin(), init.end(), std::int64_t{0});
  const auto r = run_token_dropping(g, init, p);
  const std::int64_t after =
      std::accumulate(r.tokens.begin(), r.tokens.end(), std::int64_t{0});
  EXPECT_EQ(before, after);
  for (const int t : r.tokens) {
    EXPECT_GE(t, 0);
    EXPECT_LE(t, p.k);
  }
}

// A token granted in the last phase has no later announce round to arrive
// in; the head must still be credited. Path 0 -> 1 -> 2, k = 3, δ = α = 1,
// so two phases: phase 1 moves a token 0 -> 1, which makes node 1 a sender
// that ships one on to node 2 in phase 2, the last.
TEST(TokenDropping, FinalPhaseGrantIsCredited) {
  const Digraph g(3, {{0, 1}, {1, 2}});
  TokenDroppingParams p;
  p.k = 3;
  p.delta = 1;
  const auto r = run_token_dropping(g, {3, 1, 0}, p);
  EXPECT_EQ(r.phases, 2);
  EXPECT_EQ(r.rounds, 6);
  EXPECT_EQ(r.tokens_moved, 2);
  EXPECT_EQ(r.edge_passive, (std::vector<bool>{true, true}));
  EXPECT_EQ(r.tokens, (std::vector<int>{2, 1, 1}));
  EXPECT_EQ(std::accumulate(r.tokens.begin(), r.tokens.end(), 0), 4);
}

TEST(TokenDropping, Theorem43BoundOnActiveEdges) {
  Rng rng(62);
  for (const int seed : {1, 2, 3, 4, 5}) {
    Rng local(static_cast<std::uint64_t>(seed));
    const Digraph g = seed % 2 == 0 ? layered_game(5, 30, 4, local)
                                    : random_game(80, 0.08, local);
    TokenDroppingParams p;
    p.k = 64;
    p.delta = 4;
    p.alpha.assign(static_cast<std::size_t>(g.num_nodes()), 6);
    const auto r = run_token_dropping(g, random_tokens(g, p.k, local), p);
    EXPECT_LE(max_bound_violation(g, p, r), 0.0) << "seed=" << seed;
  }
}

TEST(TokenDropping, AtMostOneTokenPerEdge) {
  Rng rng(63);
  const Digraph g = layered_game(6, 25, 5, rng);
  TokenDroppingParams p;
  p.k = 48;
  p.delta = 3;
  p.alpha.assign(static_cast<std::size_t>(g.num_nodes()), 4);
  const auto r = run_token_dropping(g, random_tokens(g, p.k, rng), p);
  // edge_passive[a] true exactly once per crossing; crossing count equals
  // tokens_moved.
  std::int64_t passive = 0;
  for (const bool b : r.edge_passive) passive += b ? 1 : 0;
  EXPECT_EQ(passive, r.tokens_moved);
}

TEST(TokenDropping, NoMovementWhenSinglePhaseBudget) {
  Rng rng(64);
  const Digraph g = layered_game(3, 10, 2, rng);
  TokenDroppingParams p;
  p.k = 4;
  p.delta = 4;  // ⌊k/δ⌋-1 = 0 phases
  const auto init = random_tokens(g, p.k, rng);
  const auto r = run_token_dropping(g, init, p);
  EXPECT_EQ(r.phases, 0);
  EXPECT_EQ(r.tokens_moved, 0);
  EXPECT_EQ(r.tokens, init);
}

TEST(TokenDropping, DeltaControlsRounds) {
  // §4.1: smaller δ ⇒ more phases (and smaller final slack).
  Rng rng(65);
  const Digraph g = layered_game(5, 40, 4, rng);
  const auto init = random_tokens(g, 64, rng);
  std::int64_t prev_rounds = -1;
  for (const int delta : {16, 8, 4, 2, 1}) {
    TokenDroppingParams p;
    p.k = 64;
    p.delta = delta;
    p.alpha.assign(static_cast<std::size_t>(g.num_nodes()), 16);
    const auto r = run_token_dropping(g, init, p);
    if (prev_rounds >= 0) {
      EXPECT_GT(r.rounds, prev_rounds);
    }
    prev_rounds = r.rounds;
  }
}

TEST(TokenDropping, RejectsInvalidParameters) {
  Rng rng(66);
  const Digraph g = layered_game(2, 5, 1, rng);
  std::vector<int> init(static_cast<std::size_t>(g.num_nodes()), 0);
  TokenDroppingParams p;
  p.k = 0;
  EXPECT_THROW(run_token_dropping(g, init, p), CheckError);
  p.k = 4;
  p.delta = 2;
  p.alpha.assign(static_cast<std::size_t>(g.num_nodes()), 1);  // alpha < delta
  EXPECT_THROW(run_token_dropping(g, init, p), CheckError);
  p.alpha.assign(static_cast<std::size_t>(g.num_nodes()), 2);
  init[0] = 5;  // > k
  EXPECT_THROW(run_token_dropping(g, init, p), CheckError);
}

TEST(TokenDropping, WorksOnGraphWithCycles) {
  // §4's contribution over [14]: general digraphs, not just DAGs.
  Rng rng(67);
  const Digraph g = random_game(50, 0.15, rng);
  TokenDroppingParams p;
  p.k = 32;
  p.delta = 2;
  p.alpha.assign(static_cast<std::size_t>(g.num_nodes()), 4);
  const auto r = run_token_dropping(g, random_tokens(g, p.k, rng), p);
  EXPECT_LE(max_bound_violation(g, p, r), 0.0);
}

TEST(TokenDropping, LoadBalancesLayeredBurst) {
  // All tokens start on the top layer; after the game the bound limits how
  // uneven active-edge endpoints can be.
  Rng rng(68);
  const int layers = 5, width = 30;
  const Digraph g = layered_game(layers, width, 6, rng);
  TokenDroppingParams p;
  p.k = 16;
  p.delta = 1;
  p.alpha.assign(static_cast<std::size_t>(g.num_nodes()), 1);
  std::vector<int> init(static_cast<std::size_t>(g.num_nodes()), 0);
  for (int i = 0; i < width; ++i) {
    init[static_cast<std::size_t>((layers - 1) * width + i)] = p.k;
  }
  const auto r = run_token_dropping(g, init, p);
  EXPECT_GT(r.tokens_moved, 0);
  EXPECT_LE(max_bound_violation(g, p, r), 0.0);
}

TEST(TokenDropping, PropertyInvariantSweep) {
  // Property harness over ~50 seeded digraphs of varying shape, size, and
  // parameters: after every run on the message-passing engine,
  //   * the token count is conserved and every node holds <= k,
  //   * at most one token crossed each arc (crossings == tokens_moved),
  //   * the Theorem 4.3 slack bound holds on every still-active edge.
  for (int seed = 0; seed < 50; ++seed) {
    Rng rng(900 + static_cast<std::uint64_t>(seed));
    const Digraph g =
        seed % 3 == 0
            ? layered_game(3 + seed % 4, 8 + seed % 13, 2 + seed % 3, rng)
            : random_game(30 + 2 * (seed % 17),
                          0.04 + 0.004 * (seed % 9), rng);
    TokenDroppingParams p;
    p.k = 8 << (seed % 3);
    p.delta = 1 + seed % 3;
    p.alpha.assign(static_cast<std::size_t>(g.num_nodes()),
                   p.delta + seed % 4);
    const auto init = random_tokens(g, p.k, rng);
    const std::int64_t before =
        std::accumulate(init.begin(), init.end(), std::int64_t{0});
    const auto r = run_token_dropping(g, init, p);

    const std::int64_t after =
        std::accumulate(r.tokens.begin(), r.tokens.end(), std::int64_t{0});
    EXPECT_EQ(before, after) << "seed=" << seed;
    for (const int t : r.tokens) {
      EXPECT_GE(t, 0) << "seed=" << seed;
      EXPECT_LE(t, p.k) << "seed=" << seed;
    }
    std::int64_t crossings = 0;
    for (const bool b : r.edge_passive) crossings += b ? 1 : 0;
    EXPECT_EQ(crossings, r.tokens_moved) << "seed=" << seed;
    EXPECT_EQ(r.rounds, 3 * r.phases) << "seed=" << seed;
    EXPECT_LE(max_bound_violation(g, p, r), 0.0) << "seed=" << seed;
  }
}

TEST(TokenDropping, GameGenerators) {
  Rng rng(69);
  const Digraph lg = layered_game(3, 7, 2, rng);
  EXPECT_EQ(lg.num_nodes(), 21);
  EXPECT_EQ(lg.num_arcs(), 2 * 7 * 2);
  for (EdgeId a = 0; a < lg.num_arcs(); ++a) {
    const auto [u, v] = lg.arc(a);
    EXPECT_EQ(u / 7, v / 7 + 1);  // arcs drop exactly one layer
  }
  const Digraph rg = random_game(10, 1.0, rng);
  EXPECT_EQ(rg.num_arcs(), 90);
}

}  // namespace
}  // namespace dec
