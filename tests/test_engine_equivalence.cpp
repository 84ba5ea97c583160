// Cross-engine equivalence harness: every orchestrated solver runs as node
// programs on the simulation substrate, and the serial round engine must
// produce bit-identical outputs AND identical audited round counts to the
// parallel round engine at 2 and 4 shards. This is the evidence behind the
// parallel engine's "bit-identical to serial" contract (per-shard state
// confinement + order-independent audit merges) — the legacy centralized
// implementations were deleted once the PR-2 harness had proven them
// equivalent, so serial-substrate is now the reference.
#include <gtest/gtest.h>

#include <numeric>
#include <tuple>
#include <vector>

#include "coloring/baselines.hpp"
#include "coloring/defective.hpp"
#include "coloring/linial.hpp"
#include "core/defective2ec.hpp"
#include "core/token_dropping.hpp"
#include "graph/generators.hpp"
#include "sim/pool.hpp"

namespace dec {
namespace {

// Everything that must match across engines. max_message_bits and messages
// are included: the parallel engine merges per-shard audits with
// order-independent ops, so they must be deterministic too.
auto defective_key(const DefectiveResult& r) {
  return std::tuple(r.colors, r.palette, r.rounds, r.max_defect, r.sweeps,
                    r.converged, r.max_message_bits, r.messages);
}

auto token_key(const TokenDroppingResult& r) {
  return std::tuple(r.tokens, r.edge_passive, r.phases, r.rounds,
                    r.tokens_moved, r.max_message_bits);
}

std::vector<NodeId> heads_of(const Orientation& o) {
  std::vector<NodeId> heads(
      static_cast<std::size_t>(o.graph().num_edges()));
  for (EdgeId e = 0; e < o.graph().num_edges(); ++e) {
    heads[static_cast<std::size_t>(e)] = o.head(e);
  }
  return heads;
}

auto orientation_key(const BalancedOrientationResult& r) {
  return std::tuple(heads_of(r.orientation), r.phases, r.rounds, r.flips,
                    r.leftover_edges, r.leftover_edge, r.max_excess,
                    r.max_message_bits);
}

auto d2ec_key(const Defective2ECResult& r) {
  return std::tuple(r.is_red, r.phases, r.rounds, r.beta_used, r.beta_emp,
                    r.max_message_bits);
}

void check_precolor_equivalence(const Graph& g, int target_defect) {
  const LinialResult lin = linial_color(g);
  RoundLedger ledgers[3];
  const DefectiveResult serial = defective_precolor(
      g, lin.colors, lin.palette, target_defect, &ledgers[0], 1);
  EXPECT_GT(serial.max_message_bits, 0);  // real messages were audited
  for (int i = 0; i < 2; ++i) {
    const int threads = i == 0 ? 2 : 4;
    const DefectiveResult parallel = defective_precolor(
        g, lin.colors, lin.palette, target_defect, &ledgers[i + 1], threads);
    EXPECT_EQ(defective_key(serial), defective_key(parallel))
        << "threads " << threads;
    EXPECT_EQ(ledgers[0].component("defective_precolor"),
              ledgers[i + 1].component("defective_precolor"));
  }
}

void check_refine_equivalence(const Graph& g, int num_colors, int threshold) {
  const LinialResult lin = linial_color(g);
  RoundLedger ledgers[3];
  const DefectiveResult serial =
      defective_refine(g, lin.colors, lin.palette, num_colors, threshold, 256,
                       &ledgers[0], 1);
  for (int i = 0; i < 2; ++i) {
    const int threads = i == 0 ? 2 : 4;
    const DefectiveResult parallel =
        defective_refine(g, lin.colors, lin.palette, num_colors, threshold,
                         256, &ledgers[i + 1], threads);
    EXPECT_EQ(defective_key(serial), defective_key(parallel))
        << "threads " << threads;
    EXPECT_EQ(ledgers[0].component("defective_refine"),
              ledgers[i + 1].component("defective_refine"));
  }
}

void check_token_dropping_equivalence(const Digraph& g,
                                      const TokenDroppingParams& p,
                                      const std::vector<int>& init) {
  RoundLedger ledgers[3];
  const TokenDroppingResult serial =
      run_token_dropping(g, init, p, &ledgers[0], 1);
  for (int i = 0; i < 2; ++i) {
    const int threads = i == 0 ? 2 : 4;
    const TokenDroppingResult parallel =
        run_token_dropping(g, init, p, &ledgers[i + 1], threads);
    EXPECT_EQ(token_key(serial), token_key(parallel)) << "threads " << threads;
    EXPECT_EQ(ledgers[0].component("token_dropping"),
              ledgers[i + 1].component("token_dropping"));
  }
  if (serial.tokens_moved > 0) EXPECT_GT(serial.max_message_bits, 0);
}

void check_orientation_equivalence(const BipartiteGraph& bg,
                                   const std::vector<double>& eta, double nu) {
  OrientationParams p;
  p.nu = nu;
  RoundLedger ledgers[3];
  const BalancedOrientationResult serial =
      balanced_orientation(bg.graph, bg.parts, eta, p, &ledgers[0], 1);
  EXPECT_EQ(serial.orientation.num_oriented(), bg.graph.num_edges());
  if (bg.graph.num_edges() > 0) EXPECT_GT(serial.max_message_bits, 0);
  for (int i = 0; i < 2; ++i) {
    const int threads = i == 0 ? 2 : 4;
    const BalancedOrientationResult parallel =
        balanced_orientation(bg.graph, bg.parts, eta, p, &ledgers[i + 1],
                             threads);
    EXPECT_EQ(orientation_key(serial), orientation_key(parallel))
        << "threads " << threads;
    // The whole breakdown (phase rounds AND embedded game rounds) must
    // agree, component by component.
    EXPECT_EQ(ledgers[0].breakdown(), ledgers[i + 1].breakdown())
        << "threads " << threads;
  }
}

void check_d2ec_equivalence(const BipartiteGraph& bg,
                            const std::vector<double>& lambda, double eps) {
  RoundLedger ledgers[3];
  const Defective2ECResult serial = defective_2_edge_coloring(
      bg.graph, bg.parts, lambda, eps, ParamMode::kPractical, &ledgers[0], 1);
  for (int i = 0; i < 2; ++i) {
    const int threads = i == 0 ? 2 : 4;
    const Defective2ECResult parallel =
        defective_2_edge_coloring(bg.graph, bg.parts, lambda, eps,
                                  ParamMode::kPractical, &ledgers[i + 1],
                                  threads);
    EXPECT_EQ(d2ec_key(serial), d2ec_key(parallel)) << "threads " << threads;
    EXPECT_EQ(ledgers[0].breakdown(), ledgers[i + 1].breakdown())
        << "threads " << threads;
  }
}

// The (Δ̄+1)-edge coloring as the pipeline runs it: leased from a pool at
// 1, 2 and 4 shards, against the serial unpooled reference.
void check_fast_2delta_equivalence(const Graph& g) {
  RoundLedger serial_ledger;
  const EdgeColoringResult serial = edge_color_fast_2delta(g, &serial_ledger);
  for (const int threads : {1, 2, 4}) {
    NetworkPool pool(threads);
    RoundLedger ledger;
    const EdgeColoringResult pooled =
        edge_color_fast_2delta(g, &ledger, threads, &pool);
    EXPECT_EQ(std::tie(serial.colors, serial.palette, serial.rounds),
              std::tie(pooled.colors, pooled.palette, pooled.rounds))
        << "threads " << threads;
    EXPECT_EQ(serial_ledger.breakdown(), ledger.breakdown())
        << "threads " << threads;
  }
}

std::vector<int> seeded_tokens(const Digraph& g, int k, Rng& rng) {
  std::vector<int> t(static_cast<std::size_t>(g.num_nodes()));
  for (auto& v : t) {
    v = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(k) + 1));
  }
  return t;
}

std::vector<double> seeded_eta(const Graph& g, Rng& rng, double spread) {
  std::vector<double> eta(static_cast<std::size_t>(g.num_edges()));
  for (auto& v : eta) v = spread * (2.0 * rng.next_double() - 1.0);
  return eta;
}

std::vector<double> seeded_lambda(const Graph& g, Rng& rng) {
  std::vector<double> lambda(static_cast<std::size_t>(g.num_edges()));
  for (auto& v : lambda) v = rng.next_double();
  return lambda;
}

BipartiteGraph bipartite_of(Graph g) {
  const auto parts = try_bipartition(g);
  EXPECT_TRUE(parts.has_value());
  return BipartiteGraph{std::move(g), *parts};
}

TEST(EngineEquivalence, PrecolorRandom) {
  Rng rng(101);
  const Graph g = gen::gnp(150, 0.07, rng);
  for (const int p : {1, 2, 5}) check_precolor_equivalence(g, p);
}

TEST(EngineEquivalence, PrecolorGrid) {
  check_precolor_equivalence(gen::grid(11, 13), 1);
  check_precolor_equivalence(gen::grid(11, 13), 3);
}

TEST(EngineEquivalence, PrecolorStar) {
  // Worst case for shard balancing: the hub owns half the slots.
  check_precolor_equivalence(gen::star(64), 2);
}

TEST(EngineEquivalence, RefineRandom) {
  Rng rng(102);
  const Graph g = gen::random_regular(120, 10, rng);
  check_refine_equivalence(g, 4, 10 / 4 + 1);
  check_refine_equivalence(g, 3, 10 / 3 + 2);
}

TEST(EngineEquivalence, RefineGrid) {
  check_refine_equivalence(gen::grid(9, 14), 4, 2);
}

TEST(EngineEquivalence, RefineStar) {
  check_refine_equivalence(gen::star(80), 4, 80 / 4 + 1);
}

TEST(EngineEquivalence, RefineHonorsSweepCapIdentically) {
  // A threshold at the pigeonhole floor on a dense graph stresses many
  // sweeps; whatever the trajectory, the engines must walk it in lockstep.
  Rng rng(103);
  const Graph g = gen::gnp(60, 0.3, rng);
  check_refine_equivalence(g, 4, g.max_degree() / 4 + 1);
}

TEST(EngineEquivalence, TokenDroppingRandomGame) {
  Rng rng(104);
  const Digraph g = random_game(70, 0.08, rng);
  TokenDroppingParams p;
  p.k = 32;
  p.delta = 2;
  p.alpha.assign(static_cast<std::size_t>(g.num_nodes()), 4);
  check_token_dropping_equivalence(g, p, seeded_tokens(g, p.k, rng));
}

TEST(EngineEquivalence, TokenDroppingLayeredGame) {
  Rng rng(105);
  const Digraph g = layered_game(5, 24, 4, rng);
  TokenDroppingParams p;
  p.k = 48;
  p.delta = 3;
  p.alpha.assign(static_cast<std::size_t>(g.num_nodes()), 5);
  check_token_dropping_equivalence(g, p, seeded_tokens(g, p.k, rng));
}

TEST(EngineEquivalence, TokenDroppingAntiparallelStar) {
  // Hub <-> leaf arcs in both directions: every support edge carries two
  // lanes, exercising the adapter's multiplexed framing, and the hub makes
  // shard balancing maximally uneven.
  const NodeId leaves = 40;
  std::vector<std::pair<NodeId, NodeId>> arcs;
  for (NodeId i = 1; i <= leaves; ++i) {
    arcs.emplace_back(0, i);
    arcs.emplace_back(i, 0);
  }
  const Digraph g(leaves + 1, std::move(arcs));
  TokenDroppingParams p;
  p.k = 24;
  p.delta = 2;
  p.alpha.assign(static_cast<std::size_t>(g.num_nodes()), 3);
  std::vector<int> init(static_cast<std::size_t>(g.num_nodes()), 0);
  init[0] = p.k;  // the hub starts full and must shed load
  for (NodeId i = 1; i <= leaves; ++i) {
    init[static_cast<std::size_t>(i)] = (i % 2 == 0) ? p.k : 0;
  }
  check_token_dropping_equivalence(g, p, init);
}

TEST(EngineEquivalence, TokenDroppingSeededSweep) {
  // Many small seeded instances so a divergence in any deterministic
  // tie-break shows up somewhere.
  for (int seed = 0; seed < 12; ++seed) {
    Rng rng(200 + static_cast<std::uint64_t>(seed));
    const Digraph g = seed % 2 == 0
                          ? random_game(40 + seed, 0.1, rng)
                          : layered_game(3 + seed % 3, 12, 3, rng);
    TokenDroppingParams p;
    p.k = 16 + 8 * (seed % 3);
    p.delta = 1 + seed % 3;
    p.alpha.assign(static_cast<std::size_t>(g.num_nodes()),
                   p.delta + seed % 3);
    check_token_dropping_equivalence(g, p, seeded_tokens(g, p.k, rng));
  }
}

// ---- balanced orientation & defective 2EC (the PR-3 ports) --------------
// Three bipartite graph families, >= 20 seeds each; the seed drives the
// graph (random family), the η / λ inputs, and the ν parameter, so the
// token-dropping games embedded in the phases differ run to run.

TEST(EngineEquivalence, OrientationRandomBipartite) {
  for (int seed = 0; seed < 20; ++seed) {
    Rng rng(300 + static_cast<std::uint64_t>(seed));
    const auto bg = gen::random_bipartite(
        24 + seed, 20 + (seed * 3) % 11, 0.12 + 0.01 * (seed % 5), rng);
    const double nu = seed % 2 == 0 ? 0.125 : 0.0625;
    check_orientation_equivalence(bg, seeded_eta(bg.graph, rng, 3.0), nu);
  }
}

TEST(EngineEquivalence, OrientationGrid) {
  for (int seed = 0; seed < 20; ++seed) {
    Rng rng(340 + static_cast<std::uint64_t>(seed));
    const auto bg =
        bipartite_of(gen::grid(5 + seed % 4, 6 + (seed * 7) % 5));
    check_orientation_equivalence(bg, seeded_eta(bg.graph, rng, 2.0), 0.125);
  }
}

TEST(EngineEquivalence, OrientationStar) {
  // The hub owns half the slots: worst case for shard balancing, and the
  // embedded games degenerate to hub-centered stars.
  for (int seed = 0; seed < 20; ++seed) {
    Rng rng(380 + static_cast<std::uint64_t>(seed));
    const auto bg = bipartite_of(gen::star(30 + 2 * seed));
    check_orientation_equivalence(bg, seeded_eta(bg.graph, rng, 4.0), 0.125);
  }
}

TEST(EngineEquivalence, OrientationRegularBipartite) {
  // Denser regular instances push many phases and non-trivial games.
  const auto bg = gen::regular_bipartite(48, 12);
  const std::vector<double> eta(
      static_cast<std::size_t>(bg.graph.num_edges()), 0.0);
  check_orientation_equivalence(bg, eta, 0.0625);
}

TEST(EngineEquivalence, Defective2ECRandomBipartite) {
  for (int seed = 0; seed < 20; ++seed) {
    Rng rng(400 + static_cast<std::uint64_t>(seed));
    const auto bg = gen::random_bipartite(
        22 + seed, 18 + (seed * 5) % 13, 0.15, rng);
    const double eps = seed % 2 == 0 ? 1.0 : 0.5;
    check_d2ec_equivalence(bg, seeded_lambda(bg.graph, rng), eps);
  }
}

TEST(EngineEquivalence, Defective2ECGrid) {
  for (int seed = 0; seed < 20; ++seed) {
    Rng rng(440 + static_cast<std::uint64_t>(seed));
    const auto bg =
        bipartite_of(gen::grid(4 + seed % 5, 5 + (seed * 3) % 6));
    check_d2ec_equivalence(bg, seeded_lambda(bg.graph, rng), 1.0);
  }
}

TEST(EngineEquivalence, Defective2ECStar) {
  for (int seed = 0; seed < 20; ++seed) {
    Rng rng(480 + static_cast<std::uint64_t>(seed));
    const auto bg = bipartite_of(gen::star(25 + 3 * seed));
    check_d2ec_equivalence(bg, seeded_lambda(bg.graph, rng),
                           seed % 2 == 0 ? 1.0 : 0.5);
  }
}

TEST(EngineEquivalence, Fast2DeltaRandom) {
  for (int seed = 0; seed < 10; ++seed) {
    Rng rng(520 + static_cast<std::uint64_t>(seed));
    check_fast_2delta_equivalence(
        gen::gnp(40 + 7 * seed, 0.08 + 0.01 * (seed % 4), rng));
  }
}

TEST(EngineEquivalence, Fast2DeltaRegularGridStar) {
  for (int seed = 0; seed < 6; ++seed) {
    Rng rng(560 + static_cast<std::uint64_t>(seed));
    check_fast_2delta_equivalence(
        gen::random_regular(60 + 10 * seed, 4 + seed, rng));
    check_fast_2delta_equivalence(gen::grid(4 + seed, 6 + seed % 3));
    check_fast_2delta_equivalence(gen::star(10 + 5 * seed));
  }
}

}  // namespace
}  // namespace dec
