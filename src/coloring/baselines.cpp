#include "coloring/baselines.hpp"

#include <algorithm>

#include "coloring/color_reduction.hpp"
#include "coloring/greedy_edge.hpp"
#include "coloring/linial.hpp"
#include "coloring/list_instance.hpp"
#include "graph/line_graph.hpp"
#include "sim/pool.hpp"
#include "util/logstar.hpp"
#include "util/prime.hpp"

namespace dec {

EdgeColoringResult edge_color_fast_2delta(const Graph& g, RoundLedger* ledger,
                                          int num_threads, NetworkPool* pool,
                                          CancelToken* cancel) {
  EdgeColoringResult res;
  if (g.num_edges() == 0) {
    res.palette = 0;
    return res;
  }
  const int target = g.max_edge_degree() + 1;  // = 2Δ-1 on Δ-regular graphs
  // Stages outside the rounds (L(G), the final check) run their chunks on
  // the pool's executor, idle between the Linial rounds.
  ThreadPool* const executor = pool != nullptr ? &pool->executor() : nullptr;
  const Graph lg = line_graph(g, executor);
  const LinialResult lin =
      linial_color(lg, ledger, {}, 0, num_threads, pool, cancel);
  res.rounds += lin.rounds;

  if (lg.max_degree() == 0) {
    // All edges isolated in the line graph (a perfect matching): color 0.
    res.colors.assign(static_cast<std::size_t>(g.num_edges()), 0);
    res.palette = 1;
    return res;
  }

  const std::int64_t q = static_cast<std::int64_t>(
      next_prime(static_cast<std::uint64_t>(2 * lg.max_degree() + 2)));
  DEC_CHECK(lin.palette <= q * q, "Linial palette exceeds ap_reduce domain");
  const ReductionResult ap = ap_reduce(lg, lin.colors, q, ledger);
  res.rounds += ap.rounds;
  const ReductionResult fin =
      greedy_reduce(lg, ap.colors, ap.palette, target, ledger);
  res.rounds += fin.rounds;

  res.colors = fin.colors;
  res.palette = fin.palette;
  DEC_CHECK(is_complete_proper_edge_coloring(g, res.colors, executor),
            "fast 2Δ-1 baseline produced an improper edge coloring");
  return res;
}

EdgeColoringResult edge_color_greedy_quadratic(const Graph& g,
                                               RoundLedger* ledger) {
  EdgeColoringResult res;
  if (g.num_edges() == 0) return res;
  const LinialResult schedule = linial_edge_color(g, ledger);
  res.rounds += schedule.rounds;

  const ListEdgeInstance inst = make_full_palette_instance(g);
  res.colors.assign(static_cast<std::size_t>(g.num_edges()), kUncolored);
  res.rounds += greedy_list_edge_color(inst, schedule.colors, schedule.palette,
                                       res.colors, nullptr, ledger);
  res.palette = inst.color_space;
  DEC_CHECK(is_complete_proper_edge_coloring(g, res.colors),
            "quadratic greedy baseline produced an improper edge coloring");
  return res;
}

EdgeColoringResult edge_color_luby(const Graph& g, Rng& rng,
                                   RoundLedger* ledger) {
  EdgeColoringResult res;
  if (g.num_edges() == 0) return res;
  const int k = std::max(1, g.max_edge_degree() + 1);
  res.palette = k;
  res.colors.assign(static_cast<std::size_t>(g.num_edges()), kUncolored);

  const std::int64_t cap =
      64 + 64 * ceil_log2(static_cast<std::uint64_t>(g.num_edges()) + 2);
  std::vector<Color> proposal(static_cast<std::size_t>(g.num_edges()),
                              kUncolored);
  std::vector<bool> free_scratch;
  std::int64_t uncolored = g.num_edges();
  while (uncolored > 0) {
    DEC_CHECK(res.rounds < cap, "Luby edge coloring exceeded its round cap");
    // Propose: uniform among free colors (always >= 1 by degree+1 palette).
    for (EdgeId e = 0; e < g.num_edges(); ++e) {
      proposal[static_cast<std::size_t>(e)] = kUncolored;
      if (res.colors[static_cast<std::size_t>(e)] != kUncolored) continue;
      free_scratch.assign(static_cast<std::size_t>(k), true);
      const auto [u, v] = g.endpoints(e);
      for (const NodeId w : {u, v}) {
        for (const Incidence& inc : g.neighbors(w)) {
          const Color c = res.colors[static_cast<std::size_t>(inc.edge)];
          if (c != kUncolored) free_scratch[static_cast<std::size_t>(c)] = false;
        }
      }
      int free_count = 0;
      for (int c = 0; c < k; ++c) {
        if (free_scratch[static_cast<std::size_t>(c)]) ++free_count;
      }
      DEC_CHECK(free_count > 0, "no free color despite degree+1 palette");
      std::int64_t pick =
          static_cast<std::int64_t>(rng.next_below(static_cast<std::uint64_t>(free_count)));
      for (int c = 0; c < k; ++c) {
        if (!free_scratch[static_cast<std::size_t>(c)]) continue;
        if (pick-- == 0) {
          proposal[static_cast<std::size_t>(e)] = c;
          break;
        }
      }
    }
    // Commit proposals without an adjacent identical proposal.
    for (EdgeId e = 0; e < g.num_edges(); ++e) {
      const Color p = proposal[static_cast<std::size_t>(e)];
      if (p == kUncolored) continue;
      bool conflict = false;
      const auto [u, v] = g.endpoints(e);
      for (const NodeId w : {u, v}) {
        for (const Incidence& inc : g.neighbors(w)) {
          if (inc.edge != e &&
              proposal[static_cast<std::size_t>(inc.edge)] == p) {
            conflict = true;
            break;
          }
        }
        if (conflict) break;
      }
      if (!conflict) {
        res.colors[static_cast<std::size_t>(e)] = p;
        --uncolored;
      }
    }
    ++res.rounds;
    if (ledger != nullptr) ledger->charge("luby_edge", 1);
  }
  DEC_CHECK(is_complete_proper_edge_coloring(g, res.colors),
            "Luby baseline produced an improper edge coloring");
  return res;
}

}  // namespace dec
