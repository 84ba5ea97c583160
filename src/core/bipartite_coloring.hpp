// (2+ε)Δ-edge coloring of 2-colored bipartite graphs (paper Lemma 6.1).
//
// Recursive halving: k levels of generalized defective 2-edge coloring with
// λ_e = 1/2 split the edge set into 2^k parts with geometrically shrinking
// edge degree (D_{l+1} ≈ (1+χ)/2 · D_l + β); each part then receives a
// (D_k+1)-edge coloring in its own color range [p·(D_k+1), (p+1)·(D_k+1)).
// Parts at the same level are edge-disjoint and run in parallel, so each
// level costs the *maximum* of its parts' round counts.
//
// The level count adapts to the additive β of the mode in use: we split only
// while another level strictly shrinks the total palette bound 2^l·(D_l+1)
// (theory mode reproduces Appendix C's χ/k formulas as closely as the
// formulas allow at finite Δ; there its β exceeds Δ̄ itself, so the
// recurrence often stops at k = 0 — core/params.hpp).
#pragma once

#include <vector>

#include "core/params.hpp"
#include "graph/bipartite.hpp"
#include "graph/properties.hpp"
#include "sim/ledger.hpp"

namespace dec {

class CancelToken;
class NetworkPool;

struct BipartiteColoringResult {
  std::vector<Color> colors;
  int palette = 0;           // colors fit in [0, palette)
  std::int64_t rounds = 0;   // parallel-part accounting (max per level)
  int levels = 0;            // k, number of halving levels applied
  int leaf_degree_bound = 0; // D_k, analytic per-part edge-degree bound
  double chi = 0.0;          // per-level defective-2-coloring ε actually used
};

/// Color the edges of a 2-colored bipartite graph with ~(2+ε)Δ colors in
/// polylog(Δ) rounds. ε ∈ (0, 1]. `num_threads` > 1 shards the defective
/// 2-edge-coloring splits over the parallel round engine. All levels, parts,
/// and leaf Linial stages share one network arena (`pool`, or an internal
/// one when null); results are bit-identical with or without pooling.
BipartiteColoringResult bipartite_edge_coloring(
    const Graph& g, const Bipartition& parts, double eps,
    ParamMode mode = ParamMode::kPractical, RoundLedger* ledger = nullptr,
    int num_threads = 1, NetworkPool* pool = nullptr,
    CancelToken* cancel = nullptr);

}  // namespace dec
