#include "core/token_dropping.hpp"

#include <algorithm>
#include <numeric>
#include <utility>

#include "sim/dinetwork.hpp"
#include "sim/pool.hpp"

namespace dec {

namespace {

// Priority key for step 4: receivers prefer senders w with small
// deg(w)/α_w; ties broken by node id, then arc id, for determinism on
// parallel arcs. Compare via cross multiplication to stay in integers.
bool sender_less(std::int64_t deg_a, std::int64_t alpha_a, NodeId node_a,
                 EdgeId arc_a, std::int64_t deg_b, std::int64_t alpha_b,
                 NodeId node_b, EdgeId arc_b) {
  const std::int64_t lhs = deg_a * alpha_b;
  const std::int64_t rhs = deg_b * alpha_a;
  if (lhs != rhs) return lhs < rhs;
  if (node_a != node_b) return node_a < node_b;
  return arc_a < arc_b;
}

// The game as a node program on the directed adapter. Each phase is
// three genuine rounds:
//   R1 (announce): consume the previous phase's accepts (token arrivals are
//       receive-side and free), re-evaluate activity, retire δ, and announce
//       {deg, α} along every still-active out-arc;
//   R2 (request):  receivers with spare capacity rank the announcing senders
//       by the announced deg/α key and request along the chosen in-arcs;
//   R3 (accept):   senders grant the first x'_u requests in (receiver id,
//       arc id) order, send the token along the arc, and retire the arc.
// The final phase's accepts are consumed by a free drain. Activity,
// passivity, and token counts live in shared arrays but every slot is
// written only by its owning node (receiver in R1, sender in R3 — never the
// same round), so the program is race-free on the parallel engine and
// serial and parallel runs are bit-identical.
TokenDroppingResult token_dropping_message_passing(
    const Digraph& game, std::vector<int> x0, int k, int delta,
    const std::vector<int>& alpha, RoundLedger* ledger, int num_threads,
    NetworkPool* pool, CancelToken* cancel) {
  const NodeId n = game.num_nodes();
  TokenDroppingResult res;

  std::vector<int> x = std::move(x0);                      // active tokens
  std::vector<int> y(static_cast<std::size_t>(n), 0);      // passive tokens
  // vector<char>, not vector<bool>: adjacent arcs' flags must be writable
  // from different shards without sharing a packed byte.
  std::vector<char> passive(static_cast<std::size_t>(game.num_arcs()), 0);
  std::vector<std::int64_t> moved(static_cast<std::size_t>(n), 0);

  // Widest per-arc payload is R1's {deg, α} announcement.
  ScopedDiNetwork net_scope(pool, game, ledger, "token_dropping", num_threads,
                            cancel, SlotPlan{.max_fields = 2});
  DiNetwork& net = *net_scope;

  // Receive-side half of a transfer: the accept that was in flight arrives
  // and the token materializes. The arc's passivity was already recorded by
  // its sender in R3 (the only writer of that flag), so receivers touch only
  // their own token count — R1 reads `passive` concurrently for the
  // announcements and must see no same-round writes.
  auto consume_accepts = [&](NodeId v, const auto& in) {
    const std::size_t in_deg = game.in(v).size();
    for (std::size_t j = 0; j < in_deg; ++j) {
      if (!in.along(j).empty()) ++x[static_cast<std::size_t>(v)];
    }
    DEC_CHECK(x[static_cast<std::size_t>(v)] >= 0, "negative active tokens");
    DEC_CHECK(x[static_cast<std::size_t>(v)] +
                      y[static_cast<std::size_t>(v)] <=
                  k,
              "Lemma 4.1 violated: more than k tokens at a node");
  };

  const std::int64_t num_phases = k / delta - 1;
  for (std::int64_t t = 1; t <= num_phases; ++t) {
    // R1: arrivals, activity, retirement, announcements.
    net.round_fast([&](NodeId v, const auto& in, DiOutbox& out) {
      consume_accepts(v, in);
      // Activity needs no shared flag: it is conveyed to the only parties
      // who care (the heads of still-active out-arcs) by the announcement.
      if (x[static_cast<std::size_t>(v)] <
          alpha[static_cast<std::size_t>(v)] + delta) {
        return;
      }
      x[static_cast<std::size_t>(v)] -= delta;
      y[static_cast<std::size_t>(v)] += delta;
      const auto out_arcs = game.out(v);
      for (std::size_t j = 0; j < out_arcs.size(); ++j) {
        if (passive[static_cast<std::size_t>(out_arcs[j].edge)] != 0) continue;
        out.along(j, {static_cast<std::int64_t>(game.degree(v)),
                      static_cast<std::int64_t>(
                          alpha[static_cast<std::size_t>(v)])});
      }
    });
    // R2: receivers rank announcing senders and request tokens.
    net.round_fast([&](NodeId v, const auto& in, DiOutbox& out) {
      const std::int64_t capacity = static_cast<std::int64_t>(k) - t * delta -
                                    alpha[static_cast<std::size_t>(v)];
      if (x[static_cast<std::size_t>(v)] > capacity) return;
      const std::int64_t want = static_cast<std::int64_t>(k) - t * delta -
                                x[static_cast<std::size_t>(v)];
      if (want <= 0) return;
      const auto in_arcs = game.in(v);
      struct Cand {
        std::int64_t deg, alpha;
        NodeId node;
        EdgeId arc;
        std::size_t j;
      };
      // Per-worker scratch, rebuilt from scratch for every node: reusing the
      // capacity avoids a heap allocation per node step (tens of thousands
      // per run) without affecting results.
      thread_local std::vector<Cand> senders;
      senders.clear();
      for (std::size_t j = 0; j < in_arcs.size(); ++j) {
        if (passive[static_cast<std::size_t>(in_arcs[j].edge)] != 0) continue;
        const ArcView ann = in.along(j);
        if (ann.empty()) continue;
        senders.push_back(
            {ann.at(0), ann.at(1), in_arcs[j].node, in_arcs[j].edge, j});
      }
      if (senders.empty()) return;
      std::sort(senders.begin(), senders.end(),
                [](const Cand& a, const Cand& b) {
                  return sender_less(a.deg, a.alpha, a.node, a.arc, b.deg,
                                     b.alpha, b.node, b.arc);
                });
      const std::size_t count = std::min<std::size_t>(
          senders.size(), static_cast<std::size_t>(want));
      for (std::size_t i = 0; i < count; ++i) {
        out.against(senders[i].j, {1});
      }
    });
    // R3: senders grant requests in (receiver, arc) order and ship tokens.
    net.round_fast([&](NodeId v, const auto& in, DiOutbox& out) {
      const auto out_arcs = game.out(v);
      struct Prop {
        NodeId node;
        EdgeId arc;
        std::size_t j;
      };
      thread_local std::vector<Prop> props;  // see the R2 scratch note
      props.clear();
      for (std::size_t j = 0; j < out_arcs.size(); ++j) {
        if (in.against(j).empty()) continue;
        props.push_back({out_arcs[j].node, out_arcs[j].edge, j});
      }
      if (props.empty()) return;
      std::sort(props.begin(), props.end(), [](const Prop& a, const Prop& b) {
        if (a.node != b.node) return a.node < b.node;
        return a.arc < b.arc;
      });
      const int q = std::min(static_cast<int>(props.size()),
                             x[static_cast<std::size_t>(v)]);
      for (int i = 0; i < q; ++i) {
        const Prop& p = props[static_cast<std::size_t>(i)];
        DEC_CHECK(passive[static_cast<std::size_t>(p.arc)] == 0,
                  "token moved over an already-passive edge");
        passive[static_cast<std::size_t>(p.arc)] = 1;
        out.along(p.j, {1});
      }
      x[static_cast<std::size_t>(v)] -= q;
      moved[static_cast<std::size_t>(v)] += q;
    });
    ++res.phases;
  }
  // The final phase's accepts are still in flight; receiving them is free.
  net.drain_fast(consume_accepts);

  res.rounds = net.rounds_executed();
  res.max_message_bits = net.audit().max_bits();
  res.edge_passive.assign(static_cast<std::size_t>(game.num_arcs()), false);
  for (EdgeId a = 0; a < game.num_arcs(); ++a) {
    res.edge_passive[static_cast<std::size_t>(a)] =
        passive[static_cast<std::size_t>(a)] != 0;
  }
  res.tokens_moved =
      std::accumulate(moved.begin(), moved.end(), std::int64_t{0});
  res.tokens.resize(static_cast<std::size_t>(n));
  for (NodeId v = 0; v < n; ++v) {
    res.tokens[static_cast<std::size_t>(v)] =
        x[static_cast<std::size_t>(v)] + y[static_cast<std::size_t>(v)];
  }
  return res;
}

}  // namespace

TokenDroppingResult run_token_dropping(const Digraph& game,
                                       std::vector<int> initial_tokens,
                                       const TokenDroppingParams& params,
                                       RoundLedger* ledger, int num_threads,
                                       NetworkPool* pool,
                                       CancelToken* cancel) {
  const NodeId n = game.num_nodes();
  const int k = params.k;
  const int delta = params.delta;
  DEC_REQUIRE(k >= 1, "k must be >= 1");
  DEC_REQUIRE(delta >= 1, "delta must be >= 1");
  DEC_REQUIRE(initial_tokens.size() == static_cast<std::size_t>(n),
              "initial token vector has wrong length");

  std::vector<int> alpha = params.alpha;
  if (alpha.empty()) alpha.assign(static_cast<std::size_t>(n), delta);
  DEC_REQUIRE(alpha.size() == static_cast<std::size_t>(n),
              "alpha vector has wrong length");
  for (NodeId v = 0; v < n; ++v) {
    DEC_REQUIRE(alpha[static_cast<std::size_t>(v)] >= delta,
                "Theorem 4.3 requires alpha_v >= delta");
    DEC_REQUIRE(initial_tokens[static_cast<std::size_t>(v)] >= 0 &&
                    initial_tokens[static_cast<std::size_t>(v)] <= k,
                "initial tokens must be in [0, k]");
  }

  const std::int64_t total_before =
      std::accumulate(initial_tokens.begin(), initial_tokens.end(),
                      std::int64_t{0});

  TokenDroppingResult res = token_dropping_message_passing(
      game, std::move(initial_tokens), k, delta, alpha, ledger, num_threads,
      pool, cancel);

  const std::int64_t total_after =
      std::accumulate(res.tokens.begin(), res.tokens.end(), std::int64_t{0});
  DEC_CHECK(total_after == total_before, "token count not conserved");
  return res;
}

double theorem_4_3_bound(const Digraph& game, const TokenDroppingParams& params,
                         EdgeId arc) {
  const auto [u, v] = game.arc(arc);
  const double au = params.alpha.empty()
                        ? params.delta
                        : params.alpha[static_cast<std::size_t>(u)];
  const double av = params.alpha.empty()
                        ? params.delta
                        : params.alpha[static_cast<std::size_t>(v)];
  const double du = game.degree(u);
  const double dv = game.degree(v);
  return 2.0 * (au + av) +
         (du * dv / (au * av) + du / au + dv / av) * params.delta;
}

double max_bound_violation(const Digraph& game,
                           const TokenDroppingParams& params,
                           const TokenDroppingResult& result) {
  double worst = -1e300;
  for (EdgeId a = 0; a < game.num_arcs(); ++a) {
    if (result.edge_passive[static_cast<std::size_t>(a)]) continue;
    const auto [u, v] = game.arc(a);
    const double diff =
        static_cast<double>(result.tokens[static_cast<std::size_t>(u)]) -
        static_cast<double>(result.tokens[static_cast<std::size_t>(v)]);
    worst = std::max(worst, diff - theorem_4_3_bound(game, params, a));
  }
  return worst == -1e300 ? 0.0 : worst;
}

Digraph layered_game(int layers, int width, int out_deg, Rng& rng) {
  DEC_REQUIRE(layers >= 1 && width >= 1 && out_deg >= 0, "bad game shape");
  std::vector<std::pair<NodeId, NodeId>> arcs;
  auto id = [width](int layer, int i) {
    return static_cast<NodeId>(layer * width + i);
  };
  for (int layer = 1; layer < layers; ++layer) {
    for (int i = 0; i < width; ++i) {
      std::vector<int> targets(static_cast<std::size_t>(width));
      std::iota(targets.begin(), targets.end(), 0);
      rng.shuffle(targets);
      const int deg = std::min(out_deg, width);
      for (int j = 0; j < deg; ++j) {
        arcs.emplace_back(id(layer, i), id(layer - 1, targets[static_cast<std::size_t>(j)]));
      }
    }
  }
  return Digraph(static_cast<NodeId>(layers) * width, std::move(arcs));
}

Digraph random_game(NodeId n, double p, Rng& rng) {
  DEC_REQUIRE(n >= 1, "need at least one node");
  std::vector<std::pair<NodeId, NodeId>> arcs;
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v = 0; v < n; ++v) {
      if (u != v && rng.next_bool(p)) arcs.emplace_back(u, v);
    }
  }
  return Digraph(n, std::move(arcs));
}

}  // namespace dec
