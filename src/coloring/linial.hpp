// Linial's O(Δ²)-coloring in O(log* n) rounds [41].
//
// The iterated color reduction is based on polynomials over a prime field:
// a color c < q^(d+1) is read as a degree-≤d polynomial p_c over GF(q) (its
// base-q digits). A node picks an evaluation point r such that its polynomial
// disagrees with every neighbor's polynomial at r (possible when q > Δ·d,
// since two distinct degree-≤d polynomials agree on at most d points), and
// adopts the new color (r, p_c(r)) ∈ [q²]. Each iteration shrinks the
// palette roughly logarithmically, so O(log* n) iterations reach O(Δ²).
//
// This is a genuine message-passing implementation on SyncNetwork: one
// communication round per iteration (plus one initial round to exchange
// starting colors), with colors as O(log n)-bit messages — CONGEST-legal.
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

struct LinialResult {
  std::vector<Color> colors;   // proper coloring
  int palette = 0;             // colors are in [0, palette)
  std::int64_t rounds = 0;     // communication rounds used
  int iterations = 0;          // reduction steps applied
  int max_message_bits = 0;    // CONGEST audit of the run
};

/// Parameters of one Linial reduction step for current palette m and max
/// degree Δ: a prime q > Δ·d with q^(d+1) >= m. Exposed for tests.
struct LinialStep {
  std::int64_t q = 0;
  int d = 0;
};
LinialStep linial_step_params(std::int64_t m, int max_degree);

/// Color g properly with O(Δ²) colors in O(log* id_space) rounds.
/// `initial` is a proper coloring with values in [0, id_space); when empty,
/// node ids are used (id_space defaults to n). `num_threads` > 1 runs the
/// simulation on the parallel round engine (0 = hardware concurrency); the
/// result is bit-identical to the serial engine. `pool` (optional) leases
/// the network from an arena — callers that run several substrate stages on
/// the same graph (congest coloring's Linial + defective stages) share one
/// topology plan and buffer arena this way.
/// Linial announces exactly one color per edge per round, so the lease
/// declares slot width 1.
LinialResult linial_color(const Graph& g, RoundLedger* ledger = nullptr,
                          std::vector<Color> initial = {},
                          std::int64_t id_space = 0, int num_threads = 1,
                          NetworkPool* pool = nullptr,
                          CancelToken* cancel = nullptr);

/// Run Linial on the line graph of g, producing a proper *edge* coloring of g
/// with O(Δ̄²) colors in O(log* m) rounds. (In LOCAL/CONGEST a node simulates
/// its incident edges at constant overhead, so charging the line-graph rounds
/// directly is faithful.) Serial and unpooled; the pooled, sharded
/// line-graph path is `edge_color_fast_2delta`.
LinialResult linial_edge_color(const Graph& g, RoundLedger* ledger = nullptr);

}  // namespace dec
