// Baseline distributed edge coloring algorithms the paper compares against.
//
// * `edge_color_fast_2delta` — the O(Δ̄ + log* m)-round (Δ̄+1)-edge coloring
//   (Δ̄ = max edge degree; Δ̄+1 = 2Δ−1 on Δ-regular graphs) in the spirit of
//   Panconesi–Rizzi [44] / Barenboim–Elkin–Goldenberg [10]: Linial on the
//   line graph (O(Δ̄²) colors, O(log* m) rounds), the arithmetic-progression
//   reduction to O(Δ̄) colors in O(Δ̄) rounds, then greedy reduction to Δ̄+1
//   colors. It is the "linear in Δ" baseline of EXP-F, and the pipeline's
//   own last step: every bipartite leaf part and the constant-degree tail of
//   `congest_edge_coloring` run it on the solve's arena and shard count.
//
// * `edge_color_greedy_quadratic` — Linial on the line graph followed by the
//   one-class-per-round greedy: O(Δ̄² + log* n) rounds, the "quadratic in Δ"
//   straw man from the introduction's O(Δ²)-classes greedy.
//
// * `edge_color_luby` — the classic randomized O(log n)-round algorithm
//   (each uncolored edge proposes a uniformly random free color; proposals
//   without conflict are committed).
#pragma once

#include <vector>

#include "graph/graph.hpp"
#include "graph/properties.hpp"
#include "sim/ledger.hpp"
#include "util/rng.hpp"

namespace dec {

class CancelToken;
class NetworkPool;

struct EdgeColoringResult {
  std::vector<Color> colors;
  int palette = 0;
  std::int64_t rounds = 0;
};

/// (Δ̄+1)-edge coloring in O(Δ̄ + log* m) rounds. The Linial stage runs on
/// the substrate: `num_threads` > 1 shards it, `pool` leases its network
/// from an arena (an unpooled network when null), and `cancel` stops it at
/// a round barrier. Results are bit-identical for every shard count, with
/// or without a pool.
EdgeColoringResult edge_color_fast_2delta(const Graph& g,
                                          RoundLedger* ledger = nullptr,
                                          int num_threads = 1,
                                          NetworkPool* pool = nullptr,
                                          CancelToken* cancel = nullptr);

/// (2Δ−1)-edge coloring in O(Δ̄² + log* n) rounds.
EdgeColoringResult edge_color_greedy_quadratic(const Graph& g,
                                               RoundLedger* ledger = nullptr);

/// Randomized (2Δ−1)-edge coloring, O(log m) rounds w.h.p.
EdgeColoringResult edge_color_luby(const Graph& g, Rng& rng,
                                   RoundLedger* ledger = nullptr);

}  // namespace dec
