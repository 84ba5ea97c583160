#include "core/congest_coloring.hpp"

#include <algorithm>
#include <cmath>

#include "coloring/baselines.hpp"
#include "coloring/defective.hpp"
#include "coloring/linial.hpp"
#include "core/bipartite_coloring.hpp"
#include "graph/subgraph.hpp"
#include "sim/pool.hpp"
#include "util/logstar.hpp"

namespace dec {

CongestColoringResult congest_edge_coloring(const Graph& g, double eps,
                                            ParamMode mode,
                                            RoundLedger* ledger,
                                            int num_threads,
                                            NetworkPool* pool,
                                            CancelToken* cancel) {
  DEC_REQUIRE(eps > 0.0 && eps <= 1.0, "eps must be in (0, 1]");
  CongestColoringResult res;
  res.colors.assign(static_cast<std::size_t>(g.num_edges()), kUncolored);
  if (g.num_edges() == 0) return res;

  // 0 = hardware concurrency (see header); resolve once so every stage —
  // and the arena they share — agrees on the shard count.
  num_threads = resolve_num_threads(num_threads);

  // One arena for the whole pipeline: the level-0 Linial, precolor, and
  // refine stages all run on g's shape (one topology plan, one buffer
  // arena), and deeper levels / bipartite stages reuse the run states in
  // place.
  std::optional<NetworkPool> own_pool;
  if (pool == nullptr) {
    own_pool.emplace(num_threads);
    pool = &*own_pool;
  }

  // Initial O(Δ²)-vertex coloring (O(log* n) rounds; CONGEST-legal).
  const LinialResult lin =
      linial_color(g, ledger, {}, 0, num_threads, pool, cancel);
  res.rounds += lin.rounds;

  const int delta0 = g.max_degree();
  const int k_levels = std::max(1, floor_log2(static_cast<std::uint64_t>(
                                    std::max(2, delta0))) -
                                       1);
  const double eps1 =
      std::min(0.25, 1.0 / (2.0 * static_cast<double>(k_levels)));

  int next_color = 0;  // palette watermark
  std::vector<bool> uncolored(static_cast<std::size_t>(g.num_edges()), true);

  for (int level = 0; level <= k_levels; ++level) {
    // Level 0 has colored nothing yet: its subgraph is g itself.
    Graph rest;
    if (level > 0) rest = edge_subgraph(g, uncolored).graph;
    const Graph& cur = level > 0 ? rest : g;
    if (cur.num_edges() == 0) break;
    const int dcur = cur.max_degree();
    // Constant-degree tail: below this the Lemma 6.2 additive terms do not
    // fit under its target and the O(Δ_tail) baseline is cheaper anyway.
    if (dcur <= 8) break;
    ++res.levels;

    // Lemma 6.2: defective 4-coloring of the current subgraph's nodes; the
    // level-0 Linial coloring stays proper on every subgraph. Runs as node
    // programs on the substrate, sharded when num_threads > 1.
    RoundLedger local;
    const DefectiveResult def4 =
        defective_4_coloring(cur, lin.colors, lin.palette, eps1, &local,
                             num_threads, pool, cancel);
    res.rounds += def4.rounds;
    if (ledger != nullptr) ledger->charge("defective4", def4.rounds);

    auto node_class = [&](NodeId v) {
      return def4.colors[static_cast<std::size_t>(v)];
    };

    // Two bipartite splits, each colored with a fresh range (sequentially,
    // as in the paper's proof).
    for (int split = 0; split < 2; ++split) {
      std::vector<bool> take(static_cast<std::size_t>(g.num_edges()), false);
      Bipartition parts;
      parts.side.assign(static_cast<std::size_t>(g.num_nodes()), 0);
      for (NodeId v = 0; v < g.num_nodes(); ++v) {
        const Color c = node_class(v);
        // split 0: {0,1} vs {2,3};   split 1: {0,2} vs {1,3}.
        const bool side1 = split == 0 ? (c >= 2) : (c % 2 == 1);
        parts.side[static_cast<std::size_t>(v)] = side1 ? 1 : 0;
      }
      bool any = false;
      for (EdgeId e = 0; e < g.num_edges(); ++e) {
        if (!uncolored[static_cast<std::size_t>(e)]) continue;
        const auto [a, b] = g.endpoints(e);
        if (parts.side[static_cast<std::size_t>(a)] !=
            parts.side[static_cast<std::size_t>(b)]) {
          take[static_cast<std::size_t>(e)] = true;
          any = true;
        }
      }
      if (!any) continue;
      EdgeSubgraph bip = edge_subgraph(g, take);
      RoundLedger bip_ledger;
      const BipartiteColoringResult bc = bipartite_edge_coloring(
          bip.graph, parts, eps, mode, &bip_ledger, num_threads, pool, cancel);
      res.rounds += bc.rounds;
      if (ledger != nullptr) ledger->charge("bipartite_level", bc.rounds);
      for (std::size_t i = 0; i < bip.members.size(); ++i) {
        res.colors[static_cast<std::size_t>(bip.members[i])] =
            next_color + bc.colors[i];
        uncolored[static_cast<std::size_t>(bip.members[i])] = false;
      }
      next_color += bc.palette;
    }
  }

  // Tail: the leftover graph has small degree; finish with the
  // O(Δ_tail + log* n) baseline on a fresh range, on the solve's arena.
  EdgeSubgraph tail = edge_subgraph(g, uncolored);
  res.tail_degree = tail.graph.max_degree();
  if (tail.graph.num_edges() > 0) {
    RoundLedger tail_ledger;
    const EdgeColoringResult t = edge_color_fast_2delta(
        tail.graph, &tail_ledger, num_threads, pool, cancel);
    res.rounds += t.rounds;
    if (ledger != nullptr) ledger->charge("tail", t.rounds);
    for (std::size_t i = 0; i < tail.members.size(); ++i) {
      res.colors[static_cast<std::size_t>(tail.members[i])] =
          next_color + t.colors[i];
    }
    next_color += t.palette;
  }

  res.palette = next_color;
  DEC_CHECK(is_complete_proper_edge_coloring(g, res.colors, &pool->executor()),
            "CONGEST coloring is improper");
  return res;
}

}  // namespace dec
