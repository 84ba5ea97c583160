// Cancellation contract, substrate to solvers.
//
// CancelToken semantics (sticky reason, deterministic round budget, wall
// deadline); the round-barrier guarantee — an abort observed at
// SyncNetwork::begin_round() leaves the network at the exact post-last-round
// state, so resuming or resetting is always legal; aborted DiNetwork leases
// (lane plans, spilled slabs) park clean for the next tenant; and the
// lease-abandonment contract: all five orchestrated solvers aborted mid-phase
// while holding pooled leases leave the arena such that the next pooled run
// is bit-identical to a fresh-network run.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <tuple>
#include <vector>

#include "core/balanced_orientation.hpp"
#include "core/bipartite_coloring.hpp"
#include "core/congest_coloring.hpp"
#include "core/defective2ec.hpp"
#include "core/token_dropping.hpp"
#include "graph/generators.hpp"
#include "sim/cancel.hpp"
#include "sim/dinetwork.hpp"
#include "sim/network.hpp"
#include "sim/pool.hpp"

namespace dec {
namespace {

// ------------------------------------------------------------------- token

TEST(CancelToken, DefaultTokenNeverTrips) {
  CancelToken token;
  EXPECT_FALSE(token.aborted());
  for (int i = 0; i < 1000; ++i) EXPECT_NO_THROW(token.check());
}

TEST(CancelToken, RequestCancelIsStickyFirstReasonWins) {
  CancelToken token;
  token.request_cancel(AbortReason::kCancelled);
  EXPECT_TRUE(token.aborted());
  EXPECT_EQ(token.reason(), AbortReason::kCancelled);
  token.request_cancel(AbortReason::kDeadlineExceeded);  // loses the race
  EXPECT_EQ(token.reason(), AbortReason::kCancelled);
  try {
    token.check();
    FAIL() << "check() must throw on a tripped token";
  } catch (const SolverAborted& a) {
    EXPECT_EQ(a.reason(), AbortReason::kCancelled);
  }
}

TEST(CancelToken, RoundBudgetTripsOnTheBudgetPlusFirstCheck) {
  CancelToken token;
  token.set_round_budget(3);
  for (int i = 0; i < 3; ++i) EXPECT_NO_THROW(token.check()) << i;
  try {
    token.check();
    FAIL() << "the (budget+1)-th check must throw";
  } catch (const SolverAborted& a) {
    EXPECT_EQ(a.reason(), AbortReason::kDeadlineExceeded);
  }
  // And it stays tripped.
  EXPECT_THROW(token.check(), SolverAborted);
}

TEST(CancelToken, ExpiredDeadlineTripsAsDeadlineExceeded) {
  CancelToken token;
  token.set_deadline(std::chrono::steady_clock::now() -
                     std::chrono::milliseconds(1));
  try {
    token.check();
    FAIL() << "an expired deadline must throw";
  } catch (const SolverAborted& a) {
    EXPECT_EQ(a.reason(), AbortReason::kDeadlineExceeded);
  }
  CancelToken future_token;
  future_token.set_deadline(std::chrono::steady_clock::now() +
                            std::chrono::hours(24));
  EXPECT_NO_THROW(future_token.check());
}

// --------------------------------------------------------------- substrate

std::uint64_t mix(std::uint64_t h, std::uint64_t x) {
  return h ^ (x + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2));
}

// The protocol's declared width: a signature plus 8 spilled fields.
constexpr SlotPlan kPlan{.max_fields = 9};

// Deterministic per-node fold over everything delivered; one round of the
// same traffic pattern as test_network_pool's protocol (spills included).
void protocol_round(SyncNetwork& net, std::vector<std::uint64_t>& acc, int r) {
  net.round_fast([&](NodeId v, const Inbox& in, Outbox& out) {
    auto& a = acc[static_cast<std::size_t>(v)];
    for (std::size_t i = 0; i < in.size(); ++i) {
      for (const std::int64_t f : in[i].fields()) {
        a = mix(a, static_cast<std::uint64_t>(f));
      }
    }
    for (std::size_t i = 0; i < out.size(); ++i) {
      const std::int64_t sig = static_cast<std::int64_t>(v) * 1315423911 +
                               static_cast<std::int64_t>(i) * 97 + r;
      if (sig % 3 == 0) continue;
      auto m = out[i];
      m.assign({sig});
      if (sig % 5 == 0) {
        for (int k = 1; k < kPlan.max_fields; ++k) m.push(sig + k);
      }
    }
  });
}

std::vector<std::uint64_t> run_rounds(SyncNetwork& net, int from, int to) {
  std::vector<std::uint64_t> acc(
      static_cast<std::size_t>(net.graph().num_nodes()), 0);
  for (int r = from; r < to; ++r) protocol_round(net, acc, r);
  return acc;
}

void check_abort_leaves_post_round_state(int num_threads) {
  Rng rng(10);
  const Graph g = gen::gnp(60, 0.12, rng);
  constexpr int kRounds = 6;
  constexpr int kBudget = 3;

  SyncNetwork ref_net(g, nullptr, "net", num_threads, kPlan);
  std::vector<std::uint64_t> ref(
      static_cast<std::size_t>(g.num_nodes()), 0);
  for (int r = 0; r < kRounds; ++r) protocol_round(ref_net, ref, r);

  // Budgeted run: the abort must surface at the barrier of round kBudget+1,
  // with the network at the exact post-round-kBudget state — detaching the
  // token and continuing must land on the reference, bit for bit.
  SyncNetwork net(g, nullptr, "net", num_threads, kPlan);
  CancelToken token;
  token.set_round_budget(kBudget);
  net.set_cancel(&token);
  std::vector<std::uint64_t> acc(
      static_cast<std::size_t>(g.num_nodes()), 0);
  int aborted_at = -1;
  try {
    for (int r = 0; r < kRounds; ++r) protocol_round(net, acc, r);
    FAIL() << "budget " << kBudget << " must abort a " << kRounds
           << "-round protocol";
  } catch (const SolverAborted& a) {
    EXPECT_EQ(a.reason(), AbortReason::kDeadlineExceeded);
    aborted_at = static_cast<int>(net.rounds_executed());
  }
  EXPECT_EQ(aborted_at, kBudget);  // exactly kBudget rounds completed

  net.set_cancel(nullptr);
  for (int r = kBudget; r < kRounds; ++r) protocol_round(net, acc, r);
  EXPECT_EQ(net.rounds_executed(), kRounds);
  EXPECT_EQ(acc, ref);

  // And reset() after an abort behaves like reset() after anything else.
  net.reset();
  CancelToken fresh_token;  // untripped: must cost nothing and allow all
  net.set_cancel(&fresh_token);
  EXPECT_EQ(run_rounds(net, 0, kRounds), ref);
}

TEST(Cancellation, AbortLeavesPostRoundStateSerial) {
  check_abort_leaves_post_round_state(1);
}
TEST(Cancellation, AbortLeavesPostRoundState2Shards) {
  check_abort_leaves_post_round_state(2);
}
TEST(Cancellation, AbortLeavesPostRoundState4Shards) {
  check_abort_leaves_post_round_state(4);
}

TEST(Cancellation, RequestFromAnotherThreadStopsTheRoundLoop) {
  Rng rng(11);
  const Graph g = gen::gnp(40, 0.15, rng);
  SyncNetwork net(g, nullptr, "net", 1);
  CancelToken token;
  net.set_cancel(&token);
  token.request_cancel();  // "another thread" won before the next barrier
  std::vector<std::uint64_t> acc(
      static_cast<std::size_t>(g.num_nodes()), 0);
  EXPECT_THROW(protocol_round(net, acc, 0), SolverAborted);
  EXPECT_EQ(net.rounds_executed(), 0);  // nothing ran, nothing half-ran
}

// -------------------------------------------- aborted DiNetwork pool leases

auto token_key(const TokenDroppingResult& r) {
  return std::tuple(r.tokens, r.edge_passive, r.phases, r.rounds,
                    r.tokens_moved, r.max_message_bits);
}

// Satellite: a DiNetwork lease aborted mid-game — lane plan active
// (anti-parallel arcs => two lanes per support edge) and multi-lane packing
// spilling into the slab — must park such that the next lease is
// indistinguishable from fresh.
void check_dinetwork_reset_after_abort(int num_threads) {
  std::vector<std::pair<NodeId, NodeId>> arcs;
  const NodeId leaves = 14;
  for (NodeId i = 1; i <= leaves; ++i) {
    arcs.emplace_back(0, i);
    arcs.emplace_back(i, 0);  // anti-parallel: two lanes per support edge
  }
  const Digraph dg(leaves + 1, std::move(arcs));

  TokenDroppingParams params;
  params.k = 12;
  params.delta = 2;
  params.alpha.assign(static_cast<std::size_t>(dg.num_nodes()), 3);
  std::vector<int> init(static_cast<std::size_t>(dg.num_nodes()));
  Rng trng(12);
  for (auto& t : init) {
    t = static_cast<int>(
        trng.next_below(static_cast<std::uint64_t>(params.k) + 1));
  }
  const TokenDroppingResult ref =
      run_token_dropping(dg, init, params, nullptr, num_threads);
  ASSERT_GT(ref.rounds, 2);

  NetworkPool pool(num_threads);
  {
    // Aborted run on a pooled lease: the game stops mid-phase with packed
    // multi-lane traffic (and spills) in flight.
    CancelToken token;
    token.set_round_budget(2);
    EXPECT_THROW(run_token_dropping(dg, init, params, nullptr, num_threads,
                                    &pool, &token),
                 SolverAborted);
  }
  // The dirtied run state must serve the next tenant bit-identically.
  const TokenDroppingResult pooled =
      run_token_dropping(dg, init, params, nullptr, num_threads, &pool);
  EXPECT_EQ(token_key(ref), token_key(pooled));
  EXPECT_LE(pool.run_states(), 1u);

  // Raw-lease variant: abort at the barrier, release dirty, release clean.
  {
    auto lease = pool.dinetwork(dg);
    CancelToken token;
    token.set_round_budget(1);
    lease->set_cancel(&token);
    const auto spam = [&] {
      for (int r = 0; r < 3; ++r) {
        lease->round_fast([&](NodeId v, const DiInbox&, DiOutbox& out) {
          const auto deg = dg.out(v).size();
          for (std::size_t j = 0; j < deg; ++j) {
            out.along(j, {static_cast<std::int64_t>(v), 1, 2, 3});
          }
        });
      }
    };
    EXPECT_THROW(spam(), SolverAborted);
    EXPECT_EQ(lease->rounds_executed(), 1);
  }  // released dirty, token destroyed (release must have detached it)
  {
    auto lease = pool.dinetwork(dg);
    EXPECT_EQ(lease->rounds_executed(), 0);
    EXPECT_EQ(lease->audit().messages_sent(), 0);
    EXPECT_EQ(lease->cancel(), nullptr);  // stale token never survives
  }
}

TEST(Cancellation, DiNetworkLeaseCleanAfterAbortSerial) {
  check_dinetwork_reset_after_abort(1);
}
TEST(Cancellation, DiNetworkLeaseCleanAfterAbort2Shards) {
  check_dinetwork_reset_after_abort(2);
}
TEST(Cancellation, DiNetworkLeaseCleanAfterAbort4Shards) {
  check_dinetwork_reset_after_abort(4);
}

// ------------------------------------------------- solver lease abandonment

auto congest_key(const CongestColoringResult& r) {
  return std::tuple(r.colors, r.palette, r.rounds, r.levels, r.tail_degree);
}

auto bipartite_key(const BipartiteColoringResult& r) {
  return std::tuple(r.colors, r.palette, r.rounds, r.levels,
                    r.leaf_degree_bound, r.chi);
}

std::vector<NodeId> heads_of(const Orientation& o) {
  std::vector<NodeId> heads(static_cast<std::size_t>(o.graph().num_edges()));
  for (EdgeId e = 0; e < o.graph().num_edges(); ++e) {
    heads[static_cast<std::size_t>(e)] = o.head(e);
  }
  return heads;
}

auto orientation_key(const BalancedOrientationResult& r) {
  return std::tuple(heads_of(r.orientation), r.phases, r.rounds, r.flips,
                    r.leftover_edges, r.leftover_edge, r.max_excess,
                    r.max_message_bits);
}

auto d2ec_key(const Defective2ECResult& r) {
  return std::tuple(r.is_red, r.phases, r.rounds, r.beta_used, r.beta_emp,
                    r.max_message_bits);
}

BipartiteGraph test_bipartite(std::uint64_t seed) {
  Rng rng(seed);
  return gen::random_bipartite(20, 18, 0.18, rng);
}

/// Abort `run(pool, token)` mid-phase with a round budget, then verify that
/// `run(pool, nullptr)` on the dirtied pool matches `expected` — the
/// lease-abandonment contract for one solver.
template <class Key, class Run>
void expect_clean_after_abandon(const char* solver, const Key& expected,
                                Run run, std::int64_t budget) {
  NetworkPool pool(1);
  {
    CancelToken token;
    token.set_round_budget(budget);
    EXPECT_THROW(run(&pool, &token), SolverAborted) << solver;
  }
  EXPECT_EQ(expected, run(&pool, nullptr)) << solver;
  // Second pooled run on the now twice-recycled arena, for good measure.
  EXPECT_EQ(expected, run(&pool, nullptr)) << solver;
}

TEST(LeaseAbandonment, AllFiveSolversParkCleanStateOnAbort) {
  Rng rng(13);
  const Graph g = gen::gnp(44, 0.14, rng);
  const auto bg = test_bipartite(14);
  std::vector<double> eta(static_cast<std::size_t>(bg.graph.num_edges()));
  Rng wrng(15);
  for (auto& v : eta) v = 3.0 * (2.0 * wrng.next_double() - 1.0);
  std::vector<double> lambda(static_cast<std::size_t>(bg.graph.num_edges()));
  for (auto& v : lambda) v = wrng.next_double();
  Rng grng(16);
  const Digraph game = layered_game(4, 8, 3, grng);
  TokenDroppingParams tp;
  tp.k = 12;
  tp.delta = 1;
  tp.alpha.assign(static_cast<std::size_t>(game.num_nodes()), 2);
  std::vector<int> init(static_cast<std::size_t>(game.num_nodes()), 6);

  expect_clean_after_abandon(
      "congest_edge_coloring",
      congest_key(congest_edge_coloring(g, 1.0)),
      [&](NetworkPool* pool, CancelToken* cancel) {
        return congest_key(congest_edge_coloring(
            g, 1.0, ParamMode::kPractical, nullptr, 1, pool, cancel));
      },
      2);

  // The bipartite solver executes exactly one network barrier on this
  // instance (its color reductions are ledger-charged, not simulated), so
  // only a zero budget can interrupt it — which aborts at that first
  // barrier, mid-leaf-coloring, with the linial lease held.
  expect_clean_after_abandon(
      "bipartite_edge_coloring",
      bipartite_key(bipartite_edge_coloring(bg.graph, bg.parts, 1.0)),
      [&](NetworkPool* pool, CancelToken* cancel) {
        return bipartite_key(bipartite_edge_coloring(
            bg.graph, bg.parts, 1.0, ParamMode::kPractical, nullptr, 1, pool,
            cancel));
      },
      0);

  OrientationParams op;
  op.nu = 0.125;
  expect_clean_after_abandon(
      "balanced_orientation",
      orientation_key(balanced_orientation(bg.graph, bg.parts, eta, op)),
      [&](NetworkPool* pool, CancelToken* cancel) {
        return orientation_key(balanced_orientation(bg.graph, bg.parts, eta,
                                                    op, nullptr, 1, pool,
                                                    cancel));
      },
      3);

  expect_clean_after_abandon(
      "defective_2_edge_coloring",
      d2ec_key(defective_2_edge_coloring(bg.graph, bg.parts, lambda, 1.0)),
      [&](NetworkPool* pool, CancelToken* cancel) {
        return d2ec_key(defective_2_edge_coloring(
            bg.graph, bg.parts, lambda, 1.0, ParamMode::kPractical, nullptr,
            1, pool, cancel));
      },
      3);

  expect_clean_after_abandon(
      "token_dropping",
      token_key(run_token_dropping(game, init, tp)),
      [&](NetworkPool* pool, CancelToken* cancel) {
        return token_key(run_token_dropping(game, init, tp, nullptr, 1, pool,
                                            cancel));
      },
      2);
}

TEST(LeaseAbandonment, BudgetLargerThanTheRunChangesNothing) {
  // A token that never trips must be invisible: same results, pooled or not.
  Rng rng(17);
  const Graph g = gen::gnp(40, 0.15, rng);
  const auto ref = congest_key(congest_edge_coloring(g, 1.0));
  NetworkPool pool(1);
  CancelToken token;
  token.set_round_budget(1 << 20);
  const auto got = congest_key(congest_edge_coloring(
      g, 1.0, ParamMode::kPractical, nullptr, 1, &pool, &token));
  EXPECT_EQ(ref, got);
  EXPECT_FALSE(token.aborted());
}

}  // namespace
}  // namespace dec
