// Generalized (ε, β)-balanced edge orientation (paper §5, Definition 5.2,
// Lemma 5.5, Theorem 5.6).
//
// Given a 2-colored bipartite graph and per-edge thresholds η_e, orient every
// edge so that (with x_w = number of edges oriented towards w) every edge
// e = {u, v} (u ∈ U, v ∈ V) satisfies
//   oriented u→v:  x_v − x_u ≤ η_e + (1+ε)/2·deg(e) + β,
//   oriented v→u:  x_u − x_v ≤ −η_e + (1+ε)/2·deg(e) + β.
//
// Algorithm (one phase φ = 1, 2, ... O(log Δ̄ / ν)):
//  1. still-unoriented edges with enough unoriented neighbors (d(e) >
//     (1−ν)^φ Δ̄) propose an orientation toward the endpoint that currently
//     "wants" them per η_e;
//  2. every node accepts at most k_φ proposals — accepted edges get oriented;
//  3. previously oriented edges that now violate their η_e inequality form
//     the token dropping game graph (arcs reversed against the orientation);
//     the accepted-proposal counts are the initial tokens; the α_v(φ), δ_φ of
//     Eqs. (5)/(6) control the game; every token that crosses an edge flips
//     that edge's orientation.
// After the phase budget, leftover unoriented edges (each node has O(1) of
// them) are oriented toward their smaller-id endpoint.
//
// Execution model: the solver runs as genuine node programs on the
// simulation substrate. Each phase is two real rounds on a SyncNetwork over
// the input graph — an announce round (every node broadcasts its x_{φ−1} and
// unoriented degree; the previous phase's accept notifications are consumed
// on the way in) and an accept round (each node locally derives which
// unoriented incident edges propose to it, accepts the k_φ lowest edge ids,
// and notifies the tails) — and the embedded token dropping game of step 3
// runs on its own DiNetwork via `run_token_dropping`, so every round and
// message width of Lemma 5.5's chain is measured by the substrate's
// CongestAudit instead of asserted. Orientation flips are driven by the
// tokens the game delivered (an edge flips exactly when its game arc went
// passive, which both endpoints observe locally: the sender when granting,
// the receiver when the token arrives). `num_threads` > 1 shards the node
// programs over the parallel round engine with bit-identical results.
#pragma once

#include <cstdint>
#include <vector>

#include "core/params.hpp"
#include "graph/bipartite.hpp"
#include "graph/orientation.hpp"
#include "sim/ledger.hpp"

namespace dec {

class CancelToken;
class NetworkPool;

struct BalancedOrientationResult {
  Orientation orientation;      // every edge oriented
  std::int64_t phases = 0;
  std::int64_t rounds = 0;      // includes embedded token dropping rounds
  std::int64_t flips = 0;       // orientation flips performed by token games
  std::int64_t leftover_edges = 0;  // oriented arbitrarily at the end
  std::vector<std::uint8_t> leftover_edge;  // per edge: 1 = leftover pass
  double max_excess = 0.0;      // max over edges of (imbalance − η side) −
                                // (ε/2)·deg(e); the empirical β of this run
  int max_message_bits = 0;     // CongestAudit across phases and games
};

/// Compute a balanced orientation w.r.t. `eta` (size m). ε = 8ν.
/// `num_threads` > 1 runs the node programs on the parallel round engine.
/// `pool` (optional) is the network arena the solver's own network and every
/// per-phase game lease from; when null, the solver creates one internally
/// so all its phases still share a single arena.
BalancedOrientationResult balanced_orientation(const Graph& g,
                                               const Bipartition& parts,
                                               const std::vector<double>& eta,
                                               const OrientationParams& params,
                                               RoundLedger* ledger = nullptr,
                                               int num_threads = 1,
                                               NetworkPool* pool = nullptr,
                                               CancelToken* cancel = nullptr);

/// Recompute the per-edge balance excess of an orientation:
/// excess(e) = (x_head-side difference beyond η_e) − (ε/2)·deg(e).
/// max over edges = the empirical additive error β_emp.
double orientation_max_excess(const Graph& g, const Bipartition& parts,
                              const std::vector<double>& eta,
                              const Orientation& orientation, double eps);

}  // namespace dec
