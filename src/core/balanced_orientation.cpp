#include "core/balanced_orientation.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "core/token_dropping.hpp"
#include "sim/network.hpp"
#include "sim/pool.hpp"

namespace dec {

// The §5 algorithm as node programs. Each phase φ is two genuine rounds on a
// SyncNetwork over the input graph, pipelined the same way as the other
// substrate solvers (the accept notifications of round B are consumed at the
// start of the next round executed on the network):
//
//   A (announce): consume the previous accept round's notifications (tails
//      learn their edge was oriented, update their unoriented degree and
//      d⁻), then broadcast (x_{φ−1}, unoriented degree) on unoriented edges
//      and x_{φ−1} alone on oriented ones (step 5's violation test needs
//      both endpoints' x on every edge).
//   B (accept): with both endpoints' announcements in hand, membership of an
//      unoriented edge in E_φ and its proposal target are locally computable
//      at both endpoints, so no proposal message needs to cross the wire; the
//      target accepts the k_φ lowest edge ids among the edges proposing to it
//      and notifies each tail with a 1-field accept.
//
// Steps 5–7 then run between network rounds: the violating edges of F_{<φ}
// (decidable at both endpoints from the round-A x announcements) form the
// token dropping game digraph, the game executes on its own DiNetwork via
// run_token_dropping, and an edge flips exactly when its game arc went
// passive — a fact both endpoints observe through the game's own messages
// (the sender grants the token, the receiver consumes its arrival), so the
// flip is driven by delivered tokens rather than centrally recomputed state.
//
// Every mutable slot (x, ud, d⁻, per-incidence mirrors, per-edge head — the
// latter written only by the edge's unique accepting endpoint) has a single
// writing node per round, so the programs shard race-free over the parallel
// engine and serial and parallel runs are bit-identical.
BalancedOrientationResult balanced_orientation(const Graph& g,
                                               const Bipartition& parts,
                                               const std::vector<double>& eta,
                                               const OrientationParams& params,
                                               RoundLedger* ledger,
                                               int num_threads,
                                               NetworkPool* pool,
                                               CancelToken* cancel) {
  validate_bipartition(g, parts);
  DEC_REQUIRE(eta.size() == static_cast<std::size_t>(g.num_edges()),
              "eta has wrong length");
  const double nu = params.nu;
  DEC_REQUIRE(nu > 0.0 && nu <= 0.125, "Eq. (4) requires 0 < nu <= 1/8");

  const NodeId n = g.num_nodes();
  const EdgeId m = g.num_edges();
  const double dbar = std::max(1, 2 * g.max_degree() - 2);
  const double dbar_log = std::log(std::max(2.0, dbar));

  BalancedOrientationResult res{Orientation(g)};
  res.leftover_edge.assign(static_cast<std::size_t>(m), 0);

  // One arena for the whole run: the solver's own network plus every
  // per-phase token dropping game lease from it, so phase φ+1's game reuses
  // phase φ's buffers instead of rebuilding planes, slabs, and thread pools.
  std::optional<NetworkPool> own_pool;
  if (pool == nullptr) {
    own_pool.emplace(num_threads);
    pool = &*own_pool;
  }
  // Widest message is round A's (x, ud) announcement on unoriented edges.
  ScopedNetwork net_scope(pool, g, ledger, "balanced_orientation",
                          num_threads, cancel, SlotPlan{.max_fields = 2});
  SyncNetwork& net = *net_scope;

  // Node-owned state (each slot written only by its owning node's program,
  // or serially between rounds).
  std::vector<int> x(static_cast<std::size_t>(n), 0);  // x_v = indegree
  std::vector<int> ud(static_cast<std::size_t>(n));    // unoriented degree
  for (NodeId v = 0; v < n; ++v) ud[static_cast<std::size_t>(v)] = g.degree(v);

  // d⁻_φ(v) of Eq. (5): min over edges of F_{<φ} incident to v of deg_G(e).
  // A tail folds its contribution the moment it learns of the orientation
  // (round A of the next phase); an accepting head buffers its contribution
  // in `pend_dmin` during round B and it is folded at the end of the phase —
  // both orderings match the centralized schedule, which updated d⁻ for
  // phase-φ edges after phase φ's game.
  std::vector<std::int64_t> d_minus(
      static_cast<std::size_t>(n), std::numeric_limits<std::int64_t>::max());
  std::vector<std::int64_t> pend_dmin(
      static_cast<std::size_t>(n), std::numeric_limits<std::int64_t>::max());

  // Per-incidence mirror of "is my i-th edge still unoriented" (char, not
  // vector<bool>: adjacent slots must be writable from different shards).
  std::vector<char> inc_unoriented(net.num_slots(), 1);

  // Per-edge orientation record. head_of[e] is written by the edge's unique
  // accepting endpoint (round B), or serially after the leftover round for
  // a leftover edge; phase_of[e] by the round-B writer. Flips are applied
  // serially between rounds from the game's delivered tokens.
  std::vector<NodeId> head_of(static_cast<std::size_t>(m), kInvalidNode);
  std::vector<std::int64_t> phase_of(static_cast<std::size_t>(m), -1);

  std::vector<int> accepted_count(static_cast<std::size_t>(n), 0);

  // Consume in-flight accept notifications: a non-empty message on a
  // still-unoriented incidence means the neighbor oriented that edge toward
  // itself in the previous accept round.
  auto apply_accepts = [&](NodeId v, const auto& in) {
    const auto nb = g.neighbors(v);
    for (std::size_t i = 0; i < nb.size(); ++i) {
      if (inc_unoriented[net.slot(v, i)] == 0) continue;
      if (in[i].empty()) continue;
      inc_unoriented[net.slot(v, i)] = 0;
      --ud[static_cast<std::size_t>(v)];
      d_minus[static_cast<std::size_t>(v)] =
          std::min(d_minus[static_cast<std::size_t>(v)],
                   static_cast<std::int64_t>(g.edge_degree(nb[i].edge)));
    }
  };

  std::vector<int> x_prev(static_cast<std::size_t>(n), 0);
  std::int64_t num_oriented = 0;
  std::int64_t game_rounds = 0;

  const std::int64_t max_phases =
      params.max_phases > 0
          ? params.max_phases
          : static_cast<std::int64_t>(std::ceil(std::log(dbar + 1.0) / nu)) + 8;

  for (std::int64_t phi = 1; phi <= max_phases; ++phi) {
    if (num_oriented == m) break;
    const double threshold =
        std::pow(1.0 - nu, static_cast<double>(phi)) * dbar;
    if (threshold < 1.0) break;  // remaining edges go to the leftover pass

    // x(φ−1) snapshot: steps 2 and 5 both read end-of-previous-phase values
    // (x only changes in accept rounds and in the serially applied flips,
    // so at this point x holds exactly x(φ−1)).
    std::copy(x.begin(), x.end(), x_prev.begin());

    // Round A: consume last phase's accepts, announce (x, ud).
    net.round_fast([&](NodeId v, const auto& in, auto&& out) {
      apply_accepts(v, in);
      const auto nb = g.neighbors(v);
      const auto xv = static_cast<std::int64_t>(x[static_cast<std::size_t>(v)]);
      const auto udv =
          static_cast<std::int64_t>(ud[static_cast<std::size_t>(v)]);
      for (std::size_t i = 0; i < nb.size(); ++i) {
        if (inc_unoriented[net.slot(v, i)] != 0) {
          out[i].assign({xv, udv});
        } else {
          out[i].assign({xv});
        }
      }
    });

    // Round B: steps 1–4. Each node derives the proposals addressed to it
    // (both endpoints hold both announcements, so the proposal itself needs
    // no message), accepts the k_φ lowest edge ids, and notifies the tails.
    const std::int64_t kphi = k_phi(nu, dbar, phi);
    net.round_fast([&](NodeId w, const auto& in, auto&& out) {
      const auto nb = g.neighbors(w);
      const bool w_in_u = parts.in_u(w);
      struct Cand {
        EdgeId e;
        std::uint32_t i;
      };
      // Per-worker scratch reused across node steps (capacity only — the
      // contents are rebuilt per node), saving a heap allocation per node
      // per phase.
      thread_local std::vector<Cand> cands;
      cands.clear();
      for (std::size_t i = 0; i < nb.size(); ++i) {
        if (inc_unoriented[net.slot(w, i)] == 0) continue;
        const auto& msg = in[i];
        DEC_CHECK(msg.size() == 2, "unoriented-edge announcement malformed");
        const EdgeId e = nb[i].edge;
        const double de =
            static_cast<double>(ud[static_cast<std::size_t>(w)]) +
            static_cast<double>(msg.at(1)) - 2.0;  // d(e, φ)
        if (de <= threshold) continue;             // not in E_φ
        // Step 2: target = the endpoint that "wants" e per η_e, evaluated
        // on the x(φ−1) snapshot.
        const double xw = x[static_cast<std::size_t>(w)];
        const double xz = static_cast<double>(msg.at(0));
        const double xu = w_in_u ? xw : xz;
        const double xv = w_in_u ? xz : xw;
        const double diff = xv - xu;
        const bool to_v = diff <= eta[static_cast<std::size_t>(e)];
        const bool w_is_target = to_v != w_in_u;  // target side == my side
        if (w_is_target) cands.push_back({e, static_cast<std::uint32_t>(i)});
      }
      std::sort(cands.begin(), cands.end(),
                [](const Cand& a, const Cand& b) { return a.e < b.e; });
      const std::size_t take =
          std::min<std::size_t>(cands.size(), static_cast<std::size_t>(kphi));
      for (std::size_t c = 0; c < take; ++c) {
        const EdgeId e = cands[c].e;
        head_of[static_cast<std::size_t>(e)] = w;
        phase_of[static_cast<std::size_t>(e)] = phi;
        inc_unoriented[net.slot(w, cands[c].i)] = 0;
        --ud[static_cast<std::size_t>(w)];
        ++x[static_cast<std::size_t>(w)];
        pend_dmin[static_cast<std::size_t>(w)] =
            std::min(pend_dmin[static_cast<std::size_t>(w)],
                     static_cast<std::int64_t>(g.edge_degree(e)));
        out[cands[c].i].assign({1});  // accept: tail learns next round
      }
      accepted_count[static_cast<std::size_t>(w)] = static_cast<int>(take);
    });
    for (NodeId v = 0; v < n; ++v) {
      num_oriented += accepted_count[static_cast<std::size_t>(v)];
    }

    // Step 5: F'_{<φ} — previously oriented edges violating their η_e
    // inequality at the x(φ−1) snapshot. Both endpoints received each
    // other's x in round A, so membership is local knowledge; the harness
    // materializes the game digraph from it. Arcs point *against* the
    // current orientation (step 6).
    std::vector<std::pair<NodeId, NodeId>> arcs;
    std::vector<EdgeId> arc_to_edge;
    for (EdgeId e = 0; e < m; ++e) {
      const std::int64_t ph = phase_of[static_cast<std::size_t>(e)];
      if (ph < 0 || ph >= phi) continue;  // unoriented or in F_φ
      const NodeId u = u_endpoint(g, parts, e);
      const NodeId v = v_endpoint(g, parts, e);
      const double diff_vu = x_prev[static_cast<std::size_t>(v)] -
                             x_prev[static_cast<std::size_t>(u)];
      const NodeId head = head_of[static_cast<std::size_t>(e)];
      bool violating = false;
      if (head == v) {
        violating = diff_vu > eta[static_cast<std::size_t>(e)];
      } else {
        violating = -diff_vu > -eta[static_cast<std::size_t>(e)];
      }
      if (!violating) continue;
      // Current orientation tail→head; game arc head→tail.
      arcs.emplace_back(head, g.other_endpoint(e, head));
      arc_to_edge.push_back(e);
    }

    // Step 6: run the generalized token dropping game on (V, F'_{<φ}) — on
    // its own DiNetwork, rounds and widths substrate-measured.
    if (!arcs.empty()) {
      const Digraph game(n, std::move(arcs));
      TokenDroppingParams tp;
      tp.k = static_cast<int>(kphi);
      tp.delta =
          static_cast<int>(delta_phi(nu, dbar, dbar_log, phi, params.mode));
      tp.alpha.resize(static_cast<std::size_t>(n));
      for (NodeId v = 0; v < n; ++v) {
        // Nodes without F_{<φ} edges cannot appear in the game; give them a
        // harmless α = δ.
        const std::int64_t dm =
            d_minus[static_cast<std::size_t>(v)] ==
                    std::numeric_limits<std::int64_t>::max()
                ? 0
                : d_minus[static_cast<std::size_t>(v)];
        const double a = alpha_of(nu, dbar_log, dm, params.mode);
        tp.alpha[static_cast<std::size_t>(v)] = std::max(
            tp.delta, static_cast<int>(std::ceil(a)));
      }
      std::vector<int> tokens(static_cast<std::size_t>(n));
      for (NodeId v = 0; v < n; ++v) {
        tokens[static_cast<std::size_t>(v)] =
            std::min<int>(accepted_count[static_cast<std::size_t>(v)], tp.k);
      }
      TokenDroppingResult game_res = run_token_dropping(
          game, std::move(tokens), tp, ledger, num_threads, pool, cancel);
      game_rounds += game_res.rounds;
      res.max_message_bits =
          std::max(res.max_message_bits, game_res.max_message_bits);
      // Step 7: flip every edge over which a token moved. An arc going
      // passive is observed by both endpoints through the game's own
      // messages (grant on the sending side, token arrival on the
      // receiving side), so the flip is local knowledge materialized here.
      for (EdgeId a = 0; a < game.num_arcs(); ++a) {
        if (!game_res.edge_passive[static_cast<std::size_t>(a)]) continue;
        const EdgeId e = arc_to_edge[static_cast<std::size_t>(a)];
        const NodeId old_head = head_of[static_cast<std::size_t>(e)];
        const NodeId new_head = g.other_endpoint(e, old_head);
        head_of[static_cast<std::size_t>(e)] = new_head;
        --x[static_cast<std::size_t>(old_head)];
        ++x[static_cast<std::size_t>(new_head)];
        ++res.flips;
      }
    }

    // End of phase: F_φ joins F_{<φ+1} — fold the accepting heads' buffered
    // d⁻ contributions (the tails fold theirs on receiving the accept).
    for (NodeId v = 0; v < n; ++v) {
      d_minus[static_cast<std::size_t>(v)] =
          std::min(d_minus[static_cast<std::size_t>(v)],
                   pend_dmin[static_cast<std::size_t>(v)]);
      pend_dmin[static_cast<std::size_t>(v)] =
          std::numeric_limits<std::int64_t>::max();
    }
    ++res.phases;
  }

  // Leftover pass: by Lemma 5.4 the unoriented remainder is (near) a
  // matching; orient each edge toward its smaller-id endpoint. One genuine
  // round, in which the final accept round's notifications are consumed
  // first and then the larger endpoint of each unoriented edge cedes the
  // head role. Receiving the cession is free and local: after that round
  // both endpoints agree on which edges are unoriented, so the heads adopt
  // exactly the edges still unoriented on both sides, at their smaller
  // endpoint — what the cessions in flight say.
  res.leftover_edges = m - num_oriented;
  if (res.leftover_edges > 0) {
    net.round_fast([&](NodeId v, const auto& in, auto&& out) {
      apply_accepts(v, in);
      const auto nb = g.neighbors(v);
      for (std::size_t i = 0; i < nb.size(); ++i) {
        if (inc_unoriented[net.slot(v, i)] == 0) continue;
        if (nb[i].neighbor < v) out[i].assign({1});
      }
    });
    for (NodeId v = 0; v < n; ++v) {
      const auto nb = g.neighbors(v);
      for (std::size_t i = 0; i < nb.size(); ++i) {
        const std::size_t s = net.slot(v, i);
        if (nb[i].neighbor < v || inc_unoriented[s] == 0) continue;
        if (inc_unoriented[net.peer_slot(s)] == 0) continue;  // not ceded
        const EdgeId e = nb[i].edge;
        head_of[static_cast<std::size_t>(e)] = v;
        res.leftover_edge[static_cast<std::size_t>(e)] = 1;
        ++x[static_cast<std::size_t>(v)];
        inc_unoriented[s] = 0;
      }
    }
  }

  // Materialize the Orientation from the per-edge records and cross-check
  // the incrementally maintained x against it.
  Orientation& orient = res.orientation;
  for (EdgeId e = 0; e < m; ++e) {
    const NodeId head = head_of[static_cast<std::size_t>(e)];
    DEC_CHECK(head != kInvalidNode, "edge left unoriented");
    orient.orient_towards(e, head);
  }
  orient.validate();
  for (NodeId v = 0; v < n; ++v) {
    DEC_CHECK(orient.indegree(v) == x[static_cast<std::size_t>(v)],
              "message-maintained x_v drifted from the orientation");
  }

  res.rounds = net.rounds_executed() + game_rounds;
  res.max_message_bits =
      std::max(res.max_message_bits, net.audit().max_bits());
  res.max_excess = orientation_max_excess(g, parts, eta, orient,
                                          eps_from_nu(nu));
  return res;
}

double orientation_max_excess(const Graph& g, const Bipartition& parts,
                              const std::vector<double>& eta,
                              const Orientation& orientation, double eps) {
  double worst = 0.0;
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    const NodeId u = u_endpoint(g, parts, e);
    const NodeId v = v_endpoint(g, parts, e);
    const double xu = orientation.indegree(u);
    const double xv = orientation.indegree(v);
    const double half_eps_term = (eps / 2.0) * g.edge_degree(e);
    double excess = 0.0;
    if (orientation.head(e) == v) {
      excess = (xv - xu) - eta[static_cast<std::size_t>(e)] - half_eps_term;
    } else {
      excess = (xu - xv) + eta[static_cast<std::size_t>(e)] - half_eps_term;
    }
    worst = std::max(worst, excess);
  }
  return worst;
}

}  // namespace dec
