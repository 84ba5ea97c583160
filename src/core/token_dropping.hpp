// The generalized token dropping game and its distributed algorithm
// (paper §4 and §4.1, Theorem 4.3).
//
// Game: on a directed graph, every node starts with at most k tokens; one
// token may cross each directed edge at most once (the edge then becomes
// passive); at no time may a node hold more than k tokens. The algorithm
// must end in a state where every still-active edge (u,v) satisfies
// τ(u) − τ(v) ≤ σ(u,v), where the tolerated slack σ is controlled by the
// per-node parameters α_v and the batching parameter δ.
//
// The distributed algorithm runs ⌊k/δ⌋−1 phases. In each phase, nodes with
// at least α_v + δ active tokens retire δ of them (active → passive) and
// become "senders"; receivers with spare capacity request tokens from
// senders on incoming active edges, prioritizing senders with small
// deg(w)/α_w; senders accept up to their active-token count, moving one
// token per accepted request and retiring the edge. Theorem 4.3 bounds the
// final slack on every active edge by
//     2(α_u + α_v) + (deg(u)·deg(v)/(α_u·α_v) + deg(u)/α_u + deg(v)/α_v)·δ.
//
// The three rounds of each phase — sender announce, receiver request,
// sender accept/transfer — execute as genuine node programs on the directed
// adapter (DiNetwork over SyncNetwork), so round counts and message widths
// are measured by the substrate's CongestAudit instead of asserted.
// `num_threads` > 1 shards the node programs over the parallel round engine
// with bit-identical results (enforced by the cross-engine equivalence
// suite, which compares serial against 2- and 4-shard runs).
#pragma once

#include <cstdint>
#include <vector>

#include "graph/digraph.hpp"
#include "sim/ledger.hpp"
#include "util/rng.hpp"

namespace dec {

class CancelToken;
class NetworkPool;

struct TokenDroppingParams {
  int k = 1;                  // maximum tokens per node
  int delta = 1;              // δ batch size (>= 1); must satisfy δ <= α_v
  std::vector<int> alpha;     // per-node α_v >= δ; empty = all ones * delta
};

struct TokenDroppingResult {
  std::vector<int> tokens;        // τ(v) = active + passive tokens at the end
  std::vector<bool> edge_passive; // per arc: true iff a token crossed it
  std::int64_t phases = 0;
  std::int64_t rounds = 0;        // communication rounds charged (3 / phase)
  std::int64_t tokens_moved = 0;
  int max_message_bits = 0;       // CongestAudit of the message-passing engine
};

/// Run the distributed generalized token dropping algorithm.
/// Preconditions: initial_tokens[v] in [0, k]; alpha[v] >= delta.
/// Postconditions (checked): τ(v) <= k for all v; at most one token crossed
/// each arc; token count conserved.
/// `pool` (optional) leases the game's DiNetwork from an arena instead of
/// building it — callers running many games (balanced orientation's phases)
/// pass one pool so buffers and the executor are reused; results are
/// bit-identical with or without it.
TokenDroppingResult run_token_dropping(const Digraph& game,
                                       std::vector<int> initial_tokens,
                                       const TokenDroppingParams& params,
                                       RoundLedger* ledger = nullptr,
                                       int num_threads = 1,
                                       NetworkPool* pool = nullptr,
                                       CancelToken* cancel = nullptr);

/// Theorem 4.3's slack bound for arc (u, v) of `game` under `params`.
double theorem_4_3_bound(const Digraph& game, const TokenDroppingParams& params,
                         EdgeId arc);

/// Maximum over active arcs of (τ(u) − τ(v)) − theorem_4_3_bound(...); a
/// non-positive value certifies the theorem on this run.
double max_bound_violation(const Digraph& game,
                           const TokenDroppingParams& params,
                           const TokenDroppingResult& result);

/// Layered game digraph for tests/benches, mimicking the original token
/// dropping setting of [14]: `layers` layers of `width` nodes, each node has
/// up to `out_deg` arcs to uniformly chosen nodes one layer below.
Digraph layered_game(int layers, int width, int out_deg, Rng& rng);

/// General (possibly cyclic) random game digraph with n nodes and arc
/// probability p between ordered pairs.
Digraph random_game(NodeId n, double p, Rng& rng);

}  // namespace dec
