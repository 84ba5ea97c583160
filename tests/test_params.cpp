// Tests for the paper's parameter formulas (Eqs. 4–7, params module) and the
// edge-subgraph utilities.
#include <gtest/gtest.h>

#include <cmath>

#include "core/params.hpp"
#include "graph/generators.hpp"
#include "graph/subgraph.hpp"

namespace dec {
namespace {

TEST(Params, AlphaTheoryMatchesEquation5) {
  // α_v(φ) = max{1, (1/4)·(ν²/ln Δ̄)·(d⁻+1)}.
  const double nu = 0.125;
  const double dbar_log = std::log(1000.0);
  const double a = alpha_of(nu, dbar_log, 999, ParamMode::kTheory);
  EXPECT_NEAR(a, std::max(1.0, 0.25 * nu * nu / dbar_log * 1000.0), 1e-12);
  // Small d⁻ clamps to 1.
  EXPECT_DOUBLE_EQ(alpha_of(nu, dbar_log, 0, ParamMode::kTheory), 1.0);
}

TEST(Params, AlphaPracticalAtLeastTheoryScale) {
  const double nu = 0.125;
  const double dbar_log = std::log(1000.0);
  EXPECT_GE(alpha_of(nu, dbar_log, 999, ParamMode::kPractical),
            alpha_of(nu, dbar_log, 999, ParamMode::kTheory));
}

TEST(Params, AlphaRejectsBadNu) {
  EXPECT_THROW(alpha_of(0.2, 1.0, 10, ParamMode::kTheory), CheckError);
  EXPECT_THROW(alpha_of(0.0, 1.0, 10, ParamMode::kTheory), CheckError);
}

TEST(Params, DeltaPhiMatchesEquation6) {
  // δ_φ = max{1, ⌊(1/16)·(ν⁶/ln³Δ̄)·(1−ν)^(φ−1)·Δ̄⌋}; tiny at small Δ̄.
  EXPECT_EQ(delta_phi(0.125, 254.0, std::log(254.0), 1, ParamMode::kTheory), 1);
  // Large Δ̄ in practical mode clears the floor on early phases.
  const auto d1 = delta_phi(0.125, 4096.0, std::log(4096.0), 1,
                            ParamMode::kPractical);
  EXPECT_GT(d1, 1);
  // Geometric decay across phases.
  const auto d10 = delta_phi(0.125, 4096.0, std::log(4096.0), 10,
                             ParamMode::kPractical);
  EXPECT_LE(d10, d1);
}

TEST(Params, KPhiMatchesStep3) {
  // k_φ = ⌈ν(1−ν)^(φ−1)·Δ̄⌉.
  EXPECT_EQ(k_phi(0.125, 256.0, 1), 32);
  EXPECT_EQ(k_phi(0.125, 256.0, 2), 28);
  EXPECT_GE(k_phi(0.125, 1.0, 50), 1);  // clamped to 1
}

TEST(Params, AlphaDominatesDeltaPhi) {
  // Theorem 4.3's precondition α_v >= δ must hold under both modes when
  // d⁻+1 >= (1−ν)^(φ−1)·Δ̄ (the Lemma 5.5 argument).
  for (const ParamMode mode : {ParamMode::kTheory, ParamMode::kPractical}) {
    for (const double nu : {0.125, 0.0625, 0.03125}) {
      for (const double dbar : {30.0, 254.0, 2046.0}) {
        const double l = std::log(dbar);
        for (std::int64_t phi = 1; phi <= 20; ++phi) {
          const double floor_deg = std::pow(1.0 - nu, phi - 1.0) * dbar;
          const double a = alpha_of(nu, l, static_cast<std::int64_t>(floor_deg),
                                    mode);
          const auto d = delta_phi(nu, dbar, l, phi, mode);
          EXPECT_GE(std::ceil(a), static_cast<double>(d))
              << "mode=" << static_cast<int>(mode) << " nu=" << nu
              << " dbar=" << dbar << " phi=" << phi;
        }
      }
    }
  }
}

TEST(Params, BetaTheoryIsHuge) {
  // β = 28·ln³Δ̄/ε⁵ dwarfs Δ̄ at laptop scale — the vacuity that practical
  // mode exists to avoid (core/params.hpp).
  const double b = beta_of(1.0, 254.0, ParamMode::kTheory);
  EXPECT_GT(b, 254.0);
  const double b_small_eps = beta_of(0.25, 254.0, ParamMode::kTheory);
  EXPECT_NEAR(b_small_eps / b, std::pow(4.0, 5), 1e-6);
}

TEST(Params, BetaPracticalIsLogarithmic) {
  EXPECT_LE(beta_of(1.0, 254.0, ParamMode::kPractical), 8.0);
  EXPECT_GE(beta_of(1.0, 254.0, ParamMode::kPractical), 2.0);
}

TEST(Params, EpsNuConversions) {
  EXPECT_DOUBLE_EQ(eps_from_nu(0.125), 1.0);
  EXPECT_DOUBLE_EQ(nu_from_eps(1.0), 0.125);
  EXPECT_DOUBLE_EQ(nu_from_eps(eps_from_nu(0.0625)), 0.0625);
}

TEST(Subgraph, MaskAndListAgree) {
  Rng rng(7);
  const Graph g = gen::gnp(30, 0.2, rng);
  std::vector<bool> take(static_cast<std::size_t>(g.num_edges()), false);
  std::vector<EdgeId> list;
  for (EdgeId e = 0; e < g.num_edges(); e += 2) {
    take[static_cast<std::size_t>(e)] = true;
    list.push_back(e);
  }
  const EdgeSubgraph a = edge_subgraph(g, take);
  const EdgeSubgraph b = edge_subgraph(g, list);
  EXPECT_EQ(a.members, b.members);
  EXPECT_EQ(a.graph.num_edges(), b.graph.num_edges());
  EXPECT_EQ(a.graph.num_nodes(), g.num_nodes());
  for (std::size_t i = 0; i < a.members.size(); ++i) {
    EXPECT_EQ(a.graph.endpoints(static_cast<EdgeId>(i)),
              g.endpoints(a.members[i]));
  }
}

TEST(Subgraph, ScatterToParent) {
  const Graph g = gen::path(4);  // 3 edges
  const EdgeSubgraph s = edge_subgraph(g, std::vector<EdgeId>{2, 0});
  std::vector<int> parent(3, -1);
  scatter_to_parent(s, std::vector<int>{20, 10}, parent);
  EXPECT_EQ(parent, (std::vector<int>{10, -1, 20}));
}

TEST(Subgraph, RejectsBadInput) {
  const Graph g = gen::path(3);
  EXPECT_THROW(edge_subgraph(g, std::vector<bool>{true}), CheckError);
  EXPECT_THROW(edge_subgraph(g, std::vector<EdgeId>{5}), CheckError);
}

}  // namespace
}  // namespace dec
