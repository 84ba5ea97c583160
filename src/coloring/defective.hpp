// Defective vertex coloring (paper Lemma 6.2, machinery from [11]).
//
// Two building blocks:
//
// 1. `defective_precolor` — one-round defect/palette trade-off: from a proper
//    m-coloring, nodes map their color to a degree-≤d polynomial over GF(q)
//    (base-q digits) and adopt (r, p(r)) for the evaluation point r with the
//    fewest neighbor collisions. Averaging gives min_r collisions ≤ Δ·d/q, so
//    choosing q ≥ Δ·d / p yields a p-defective q²-coloring — the
//    "p-defective O((Δ/p)²)-coloring in O(1) rounds" of [11].
//
// 2. `defective_refine` — the Refine procedure reproduced as threshold local
//    search: sweeping over the classes of a precoloring, every node whose
//    current defect exceeds `move_threshold` switches to its minimum-conflict
//    color among `num_colors`. Within a class-step the moving set is made
//    independent (smallest-id-moving-neighbor priority, one extra round), so
//    each move strictly decreases the monochromatic-edge potential and the
//    search terminates. On stabilization every node has defect ≤
//    move_threshold.
//
// `defective_4_coloring` composes the two per Lemma 6.2: an (εΔ + ⌊Δ/2⌋)-
// defective 4-coloring, given an O(Δ²)-coloring, with rounds O(classes/ε²)
// charged honestly. The substitution is block 2: threshold local search
// stands in for [11]'s Refine procedure, and its rounds are the ones the
// simulator executes.
// Both building blocks run as genuine node programs on SyncNetwork:
// precolor is one real color-exchange round, refine is two real rounds per
// class-step (announce, then intent/move-arbitration), each with per-round
// CongestAudit charges. `num_threads` > 1 shards the node programs over the
// parallel round engine with bit-identical results (enforced by the
// cross-engine equivalence suite). Refine's announce round is dirty-flagged:
// a node re-broadcasts its color only when it changed since its last
// announcement, and receivers fill the gaps from their per-incidence caches
// — the rounds and colors of a full re-broadcast with far fewer messages
// on stabilizing runs (pinned against recorded full re-broadcast runs by
// tests/test_refine_announce.cpp).
#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.hpp"
#include "graph/properties.hpp"
#include "sim/ledger.hpp"
#include "sim/message.hpp"

namespace dec {

class CancelToken;
class NetworkPool;

struct DefectiveResult {
  std::vector<Color> colors;
  int palette = 0;
  std::int64_t rounds = 0;
  int max_defect = 0;
  int sweeps = 0;       // refine only
  bool converged = true;
  int max_message_bits = 0;       // CongestAudit: widest message of the run
  std::int64_t messages = 0;      // CongestAudit: total messages sent
};

/// One-round defect/palette trade-off. Input: proper coloring with values in
/// [0, input_palette). Output: target_defect-defective coloring with palette
/// q² where q = next_prime(max(2, ceil(Δ·d / target_defect))).
/// All defective stages announce exactly one field per edge per round
/// (a color or an intent bit), so they lease with declared slot width 1.
DefectiveResult defective_precolor(const Graph& g,
                                   const std::vector<Color>& input,
                                   int input_palette, int target_defect,
                                   RoundLedger* ledger = nullptr,
                                   int num_threads = 1,
                                   NetworkPool* pool = nullptr,
                                   CancelToken* cancel = nullptr);

/// Threshold local search over the classes of `classes` (any coloring with
/// values in [0, num_classes); independence not required). Produces a
/// num_colors-coloring with max defect ≤ move_threshold on convergence.
/// Throws if not converged within max_sweeps AND the threshold is violated.
DefectiveResult defective_refine(const Graph& g,
                                 const std::vector<Color>& classes,
                                 int num_classes, int num_colors,
                                 int move_threshold, int max_sweeps,
                                 RoundLedger* ledger = nullptr,
                                 int num_threads = 1,
                                 NetworkPool* pool = nullptr,
                                 CancelToken* cancel = nullptr);

/// Lemma 6.2: (εΔ + ⌊Δ/2⌋)-defective 4-coloring from a proper O(Δ²)-coloring.
DefectiveResult defective_4_coloring(const Graph& g,
                                     const std::vector<Color>& input,
                                     int input_palette, double eps,
                                     RoundLedger* ledger = nullptr,
                                     int num_threads = 1,
                                     NetworkPool* pool = nullptr,
                                     CancelToken* cancel = nullptr);

/// General split: num_colors-coloring with defect ≤ target_defect, where
/// target_defect must be ≥ ceil(Δ/num_colors) + 1. Used by Theorem D.4's
/// "defect ≤ Δ/c with O(1) colors" step. Serial and unpooled.
DefectiveResult defective_split_coloring(const Graph& g,
                                         const std::vector<Color>& input,
                                         int input_palette, int num_colors,
                                         int target_defect,
                                         RoundLedger* ledger = nullptr);

}  // namespace dec
