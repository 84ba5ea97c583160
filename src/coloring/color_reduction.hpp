// Color-reduction subroutines used after Linial.
//
// 1. `ap_reduce` — the arithmetic-progression ("locally-iterative", in the
//    spirit of Barenboim–Elkin–Goldenberg [10]) reduction from q² colors to
//    q colors in at most q rounds for a prime q >= 2Δ+2. A color c = a·q+b is
//    a line t ↦ b + a·t over GF(q); nodes with a = 0 are settled with final
//    color b; an unsettled node tries candidate b + a·t in round t and
//    settles unless the candidate is blocked. Distinct lines intersect at
//    most once and a settled color blocks each line at most once, so at most
//    2Δ of the q rounds are blocked — every node settles.
//
// 2. `greedy_reduce` — the classic one-color-class-per-round reduction: all
//    nodes of the currently largest color simultaneously re-pick the smallest
//    color < target unused in their neighborhood (they form an independent
//    set, so this is safe). Requires target >= Δ+1. palette − target rounds.
//
// Both are expressed as explicit synchronous sweeps where each step uses only
// previous-round neighbor information, and charge one round per sweep. A
// sweep over many adjacency entries runs in chunks on `executor` (null:
// serially); the colors and rounds are identical for every executor.
#pragma once

#include <vector>

#include "graph/graph.hpp"
#include "graph/properties.hpp"
#include "sim/ledger.hpp"

namespace dec {

struct ReductionResult {
  std::vector<Color> colors;
  int palette = 0;
  std::int64_t rounds = 0;
};

/// q² → q colors in ≤ q rounds. Requires: q prime, q >= 2Δ+2, input proper
/// with palette <= q².
ReductionResult ap_reduce(const Graph& g, const std::vector<Color>& input,
                          std::int64_t q, RoundLedger* ledger = nullptr,
                          ThreadPool* executor = nullptr);

/// palette → target colors in palette − target rounds. Requires input proper
/// and target >= Δ+1.
ReductionResult greedy_reduce(const Graph& g, const std::vector<Color>& input,
                              int input_palette, int target,
                              RoundLedger* ledger = nullptr,
                              ThreadPool* executor = nullptr);

/// Full pipeline: Linial + ap_reduce + greedy_reduce to a (Δ+1)-vertex
/// coloring in O(Δ + log* n) rounds.
ReductionResult vertex_color_delta_plus_one(const Graph& g,
                                            RoundLedger* ledger = nullptr);

}  // namespace dec
