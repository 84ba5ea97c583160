#include "core/bipartite_coloring.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>

#include "coloring/baselines.hpp"
#include "core/defective2ec.hpp"
#include "sim/pool.hpp"

namespace dec {

namespace {

/// The leaf-degree failure, actionable: which part broke the bound, by how
/// much, and the β that set the bound.
std::string leaf_bound_message(int part, int num_parts, int levels,
                               int measured, int bound, ParamMode mode,
                               double beta, double chi, int dbar) {
  char nums[160];
  std::snprintf(nums, sizeof nums, "β = %.3f (2·beta_of(χ = %.3f, Δ̄ = %d))",
                beta, chi, dbar);
  return "leaf part " + std::to_string(part) + " of " +
         std::to_string(num_parts) + " (after " + std::to_string(levels) +
         " split levels) has max edge degree " +
         std::to_string(measured) + " > the analytic bound D_k = " +
         std::to_string(bound) + "; params mode " +
         (mode == ParamMode::kTheory ? "kTheory" : "kPractical") + " with " +
         nums + " underestimated the split's additive error on this input";
}

}  // namespace

BipartiteColoringResult bipartite_edge_coloring(const Graph& g,
                                                const Bipartition& parts,
                                                double eps, ParamMode mode,
                                                RoundLedger* ledger,
                                                int num_threads,
                                                NetworkPool* pool,
                                                CancelToken* cancel) {
  DEC_REQUIRE(eps > 0.0 && eps <= 1.0, "eps must be in (0, 1]");
  validate_bipartition(g, parts);

  // One arena across every level, part, and leaf stage: the per-part
  // subgraphs change shape, but their run states (buffers, slabs) and the
  // view's executor are reused in place instead of rebuilt per part.
  std::optional<NetworkPool> own_pool;
  if (pool == nullptr) {
    own_pool.emplace(num_threads);
    pool = &*own_pool;
  }

  BipartiteColoringResult res;
  res.colors.assign(static_cast<std::size_t>(g.num_edges()), kUncolored);
  if (g.num_edges() == 0) return res;

  const int dbar = std::max(1, g.max_edge_degree());

  // χ: per-level split quality. Appendix C wants χ ≈ ε / log Δ; at finite Δ
  // the orientation's per-phase drift dominates once χ²·Δ̄ drops below ≈ 12
  // (EXP-B measurement), so we take χ as small as that safety line allows —
  // smaller χ ⇒ more levels fit the palette budget ⇒ smaller leaf degree.
  const double chi =
      std::clamp(std::sqrt(12.0 / static_cast<double>(dbar)), 0.05,
                 std::max(0.1, std::min(0.5, eps / 2.0)));
  res.chi = chi;
  const double beta = 2.0 * beta_of(chi, dbar, mode);  // Lemma 5.3 doubles β
  // Drift margin for the analytic degree recurrence (measured headroom).
  const double drift = 0.2 * chi;

  // Adaptive level count (Appendix C's role for k): splitting shrinks the
  // per-part degree — and with it the O(D_k)-round leaf step — at the cost
  // of palette growth ≈ (1+χ) per level. Take as many levels as the palette
  // budget (1+ε/2)·(Δ̄+1) ≈ (2+ε)Δ allows.
  int k = 0;
  std::int64_t bound_d = g.max_edge_degree();  // exact, not clamped: a
                                               // matching needs range 1
  {
    const double budget =
        (1.0 + eps / 2.0) * (static_cast<double>(dbar) + 1.0);
    std::int64_t parts_count = 1;
    for (;;) {
      const std::int64_t next_d = static_cast<std::int64_t>(
          std::floor(((1.0 + chi) / 2.0 + drift) *
                         static_cast<double>(bound_d) +
                     beta)) +
          1;
      if (next_d >= bound_d) break;  // additive β dominates; stop splitting
      if (static_cast<double>(2 * parts_count) *
              static_cast<double>(next_d + 1) >
          budget) {
        break;
      }
      bound_d = next_d;
      parts_count *= 2;
      ++k;
      if (k >= 30) break;
    }
  }
  res.levels = k;
  res.leaf_degree_bound = static_cast<int>(bound_d);

  // part[e]: index of the subgraph edge e currently belongs to.
  std::vector<int> part(static_cast<std::size_t>(g.num_edges()), 0);

  for (int level = 0; level < k; ++level) {
    const int num_parts = 1 << level;
    std::int64_t level_rounds = 0;
    // The level writes its children's labels into next_part and moves it
    // in at the end: relabelling part in place would hand part p's blue
    // edges (label 2p+1) to the not-yet-visited part 2p+1 of the same level,
    // which would split them again. Every edge lies in some part, so every
    // entry is written.
    std::vector<int> next_part(part.size());
    for (int p = 0; p < num_parts; ++p) {
      // Collect this part's edges and build the edge-induced subgraph on the
      // original node ids (so the Bipartition carries over).
      std::vector<EdgeId> members;
      std::vector<std::pair<NodeId, NodeId>> sub_edges;
      for (EdgeId e = 0; e < g.num_edges(); ++e) {
        if (part[static_cast<std::size_t>(e)] == p) {
          members.push_back(e);
          sub_edges.push_back(g.endpoints(e));
        }
      }
      if (members.empty()) continue;
      const Graph sub(g.num_nodes(), std::move(sub_edges));
      const std::vector<double> lambda(
          static_cast<std::size_t>(sub.num_edges()), 0.5);
      RoundLedger local;
      const Defective2ECResult split = defective_2_edge_coloring(
          sub, parts, lambda, chi, mode, &local, num_threads, pool, cancel);
      level_rounds = std::max(level_rounds, local.total());
      for (std::size_t i = 0; i < members.size(); ++i) {
        // Red goes to child 2p, blue to child 2p+1.
        next_part[static_cast<std::size_t>(members[i])] =
            2 * p + (split.is_red[i] != 0 ? 0 : 1);
      }
    }
    part = std::move(next_part);
    res.rounds += level_rounds;
    if (ledger != nullptr) ledger->charge("bipartite_split", level_rounds);
  }

  // Leaf coloring: each part gets a (d+1)-edge coloring inside its own
  // range of size D_k + 1.
  const int num_parts = 1 << k;
  const int range = static_cast<int>(bound_d) + 1;
  std::int64_t leaf_rounds = 0;
  for (int p = 0; p < num_parts; ++p) {
    // With no split level the one leaf is g itself: color it in place.
    std::vector<EdgeId> members;
    Graph part_graph;
    if (k > 0) {
      std::vector<std::pair<NodeId, NodeId>> sub_edges;
      for (EdgeId e = 0; e < g.num_edges(); ++e) {
        if (part[static_cast<std::size_t>(e)] == p) {
          members.push_back(e);
          sub_edges.push_back(g.endpoints(e));
        }
      }
      if (members.empty()) continue;
      part_graph = Graph(g.num_nodes(), std::move(sub_edges));
    }
    const Graph& sub = k > 0 ? part_graph : g;
    const int leaf_degree = sub.max_edge_degree();
    DEC_CHECK(leaf_degree <= res.leaf_degree_bound,
              leaf_bound_message(p, num_parts, k, leaf_degree,
                                 res.leaf_degree_bound, mode, beta, chi,
                                 dbar));
    RoundLedger local;
    const EdgeColoringResult leaf =
        edge_color_fast_2delta(sub, &local, num_threads, pool, cancel);
    leaf_rounds = std::max({leaf_rounds, leaf.rounds, local.total()});
    for (EdgeId i = 0; i < sub.num_edges(); ++i) {
      const EdgeId e = k > 0 ? members[static_cast<std::size_t>(i)] : i;
      res.colors[static_cast<std::size_t>(e)] =
          p * range + leaf.colors[static_cast<std::size_t>(i)];
    }
  }
  res.rounds += leaf_rounds;
  if (ledger != nullptr) ledger->charge("bipartite_leaf", leaf_rounds);

  res.palette = num_parts * range;
  DEC_CHECK(is_complete_proper_edge_coloring(g, res.colors, &pool->executor()),
            "bipartite coloring is improper");
  return res;
}

}  // namespace dec
