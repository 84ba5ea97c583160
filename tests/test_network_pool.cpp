// Pooled-reuse contract: a network leased from a NetworkPool, or reset() /
// rebind()-recycled in place, must be indistinguishable from a freshly
// constructed one — outputs, audited rounds, message counts, and ledger
// breakdowns bit-identical, serial and sharded. The suite pins this at the
// substrate level (deterministic protocol runs with spill-heavy payloads,
// including reset after an aborted round) and at the solver level
// (fresh vs pooled vs pooled-again for all five orchestrated solvers on
// random/grid/star families, >= 20 seeds each, at 1/2/4 shards).
#include <gtest/gtest.h>

#include <cstdint>
#include <tuple>
#include <utility>
#include <vector>

#include "coloring/defective.hpp"
#include "coloring/linial.hpp"
#include "core/bipartite_coloring.hpp"
#include "core/defective2ec.hpp"
#include "core/token_dropping.hpp"
#include "graph/generators.hpp"
#include "sim/dinetwork.hpp"
#include "sim/network.hpp"
#include "sim/pool.hpp"
#include "sim/topology.hpp"

namespace dec {
namespace {

// ---------------------------------------------------------------- substrate

std::uint64_t mix(std::uint64_t h, std::uint64_t x) {
  return h ^ (x + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2));
}

struct ProtocolTrace {
  std::vector<std::uint64_t> acc;  // per-node fold of everything received
  std::int64_t rounds = 0;
  int max_bits = 0;
  std::int64_t messages = 0;

  auto key() const { return std::tuple(acc, rounds, max_bits, messages); }
};

// The protocol's declared width: a signature plus 8 spilled fields.
constexpr SlotPlan kPlan{.max_fields = 9};

// Deterministic multi-round protocol with empty slots, inline payloads, and
// slab spills; each node folds its inbox into its own accumulator slot, so
// the trace is shard-confined and bit-identical across engines. Runs on a
// network leased with kPlan.
ProtocolTrace run_protocol(SyncNetwork& net, int rounds) {
  const Graph& g = net.graph();
  ProtocolTrace t;
  t.acc.assign(static_cast<std::size_t>(g.num_nodes()), 0);
  for (int r = 0; r < rounds; ++r) {
    net.round_fast([&](NodeId v, const Inbox& in, Outbox& out) {
      auto& a = t.acc[static_cast<std::size_t>(v)];
      for (std::size_t i = 0; i < in.size(); ++i) {
        for (const std::int64_t f : in[i].fields()) {
          a = mix(a, static_cast<std::uint64_t>(f));
        }
      }
      for (std::size_t i = 0; i < out.size(); ++i) {
        const std::int64_t sig =
            static_cast<std::int64_t>(v) * 1315423911 +
            static_cast<std::int64_t>(i) * 97 + r;
        if (sig % 3 == 0) continue;  // send nothing on this incidence
        auto m = out[i];
        m.assign({sig});
        if (sig % 5 == 0) {  // force a slab spill
          for (int k = 1; k < kPlan.max_fields; ++k) m.push(sig + k);
        }
      }
    });
  }
  // Fold the final round's deliveries in one more, silent round.
  net.round_fast([&](NodeId v, const Inbox& in, Outbox&) {
    auto& a = t.acc[static_cast<std::size_t>(v)];
    for (std::size_t i = 0; i < in.size(); ++i) {
      for (const std::int64_t f : in[i].fields()) {
        a = mix(a, static_cast<std::uint64_t>(f));
      }
    }
  });
  t.rounds = net.rounds_executed();
  t.max_bits = net.audit().max_bits();
  t.messages = net.audit().messages_sent();
  return t;
}

TEST(NetworkPool, TopologyCacheSharesPlans) {
  Rng rng(1);
  const Graph g = gen::gnp(40, 0.2, rng);
  NetworkPool pool(1);
  const auto t1 = pool.topology(g);
  const auto t2 = pool.topology(g);
  EXPECT_EQ(t1.get(), t2.get());  // one plan, shared
  EXPECT_EQ(pool.topology_misses(), 1);
  EXPECT_EQ(pool.topology_hits(), 1);

  // A structurally different graph must get its own plan even with equal
  // node/edge counts.
  Graph h = gen::gnp(40, 0.2, rng);
  while (h.num_edges() != g.num_edges()) h = gen::gnp(40, 0.2, rng);
  const auto t3 = pool.topology(h);
  EXPECT_NE(t1.get(), t3.get());
}

TEST(NetworkPool, TopologyMatchesGraphShape) {
  Rng rng(2);
  const Graph g = gen::random_regular(60, 6, rng);
  const auto topo = NetworkTopology::plan(g, 3);
  EXPECT_TRUE(topo->matches(g));
  EXPECT_EQ(topo->num_slots(), static_cast<std::size_t>(2 * g.num_edges()));
  // Peer permutation is an involution pairing the two slots of each edge.
  for (std::size_t s = 0; s < topo->num_slots(); ++s) {
    EXPECT_EQ(topo->peer_slot()[topo->peer_slot()[s]], s);
  }
  const Graph other = gen::star(10);
  EXPECT_FALSE(topo->matches(other));
}

// The peer permutation against the pairing by edge id it replaced (each
// edge's two slots, found through an m-sized first-slot table): the same
// permutation on every shape, shard counts included.
TEST(NetworkPool, PeerPermutationMatchesEdgeIdPairing) {
  Rng rng(7);
  const std::vector<Graph> graphs = {
      gen::random_regular(200, 7, rng), gen::gnp(80, 0.05, rng),
      gen::star(33),                    gen::grid(6, 9),
      gen::empty(5),
      Graph(6, {{3, 4}, {0, 2}, {2, 3}, {1, 2}, {0, 4}, {4, 5}, {1, 3}})};
  for (const Graph& g : graphs) {
    std::vector<std::uint32_t> want(2 * static_cast<std::size_t>(g.num_edges()));
    std::vector<std::uint32_t> first_slot_of_edge(
        static_cast<std::size_t>(g.num_edges()), UINT32_MAX);
    std::uint32_t slot = 0;
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      for (const Incidence& inc : g.neighbors(v)) {
        auto& first = first_slot_of_edge[static_cast<std::size_t>(inc.edge)];
        if (first == UINT32_MAX) {
          first = slot;
        } else {
          want[slot] = first;
          want[first] = slot;
        }
        ++slot;
      }
    }
    for (const int shards : {1, 3}) {
      const auto topo = NetworkTopology::plan(g, shards);
      const std::vector<std::uint32_t> got(topo->peer_slot().begin(),
                                           topo->peer_slot().end());
      EXPECT_EQ(got, want) << "n " << g.num_nodes() << " shards " << shards;
    }
  }
}

void check_reset_identity(int num_threads) {
  Rng rng(3);
  const Graph g = gen::gnp(70, 0.12, rng);
  SyncNetwork fresh(g, nullptr, "net", num_threads, kPlan);
  const ProtocolTrace ref = run_protocol(fresh, 6);
  EXPECT_GT(ref.messages, 0);
  EXPECT_GT(ref.max_bits, 0);

  // Same run state, reset in place: O(shards), no replanning.
  fresh.reset();
  EXPECT_EQ(fresh.rounds_executed(), 0);
  EXPECT_EQ(fresh.audit().messages_sent(), 0);
  const ProtocolTrace again = run_protocol(fresh, 6);
  EXPECT_EQ(ref.key(), again.key());

  // And a pool lease over the same graph shape behaves like fresh too.
  NetworkPool pool(num_threads);
  for (int lease_round = 0; lease_round < 3; ++lease_round) {
    auto lease = pool.network(g, nullptr, "net", kPlan);
    const ProtocolTrace pooled = run_protocol(*lease, 6);
    EXPECT_EQ(ref.key(), pooled.key()) << "lease " << lease_round;
  }
  EXPECT_EQ(pool.run_states(), 1u);  // one recycled run state served all
}

TEST(NetworkPool, ResetBitIdentitySerial) { check_reset_identity(1); }
TEST(NetworkPool, ResetBitIdentity2Shards) { check_reset_identity(2); }
TEST(NetworkPool, ResetBitIdentity4Shards) { check_reset_identity(4); }

// Dirty-state contract: reset after an aborted (mid-round-throw) run must
// not leak stale epochs, slab spills, or audit counts into the next run.
void check_reset_after_abort(int num_threads) {
  Rng rng(4);
  const Graph g = gen::gnp(50, 0.15, rng);
  SyncNetwork fresh(g, nullptr, "net", num_threads, kPlan);
  const ProtocolTrace ref = run_protocol(fresh, 5);

  SyncNetwork dirty(g, nullptr, "net", num_threads, kPlan);
  (void)run_protocol(dirty, 3);  // leave real traffic in both parities
  const auto aborted = [&] {
    dirty.round_fast([&](NodeId v, const Inbox&, Outbox& out) {
      // Write (and spill) into many slots before one node throws, so the
      // aborted round leaves maximal debris for reset() to not leak.
      for (std::size_t i = 0; i < out.size(); ++i) {
        auto m = out[i];
        m.assign({v});
        for (int k = 1; k < kPlan.max_fields; ++k) m.push(k);
      }
      DEC_CHECK(v < g.num_nodes() / 2, "deliberate mid-round failure");
    });
  };
  EXPECT_THROW(aborted(), CheckError);

  dirty.reset();
  EXPECT_EQ(dirty.rounds_executed(), 0);
  EXPECT_EQ(dirty.audit().messages_sent(), 0);
  EXPECT_EQ(dirty.audit().max_bits(), 0);
  const ProtocolTrace after = run_protocol(dirty, 5);
  EXPECT_EQ(ref.key(), after.key());
}

TEST(NetworkPool, ResetAfterAbortSerial) { check_reset_after_abort(1); }
TEST(NetworkPool, ResetAfterAbort2Shards) { check_reset_after_abort(2); }
TEST(NetworkPool, ResetAfterAbort4Shards) { check_reset_after_abort(4); }

TEST(NetworkPool, AbortedLeaseIsCleanOnReuse) {
  Rng rng(5);
  const Graph g = gen::grid(6, 7);
  NetworkPool pool(2);
  {
    auto lease = pool.network(g, nullptr, "net", kPlan);
    (void)run_protocol(*lease, 2);
    const auto aborted = [&] {
      lease->round_fast([&](NodeId v, const Inbox&, Outbox& out) {
        out[0].assign({v});
        DEC_CHECK(v == 0, "deliberate failure");
      });
    };
    EXPECT_THROW(aborted(), CheckError);
  }  // released dirty
  SyncNetwork fresh(g, nullptr, "net", 2, kPlan);
  const ProtocolTrace ref = run_protocol(fresh, 4);
  auto lease = pool.network(g, nullptr, "net", kPlan);
  EXPECT_EQ(ref.key(), run_protocol(*lease, 4).key());
}

TEST(NetworkPool, RebindReusesRunStateAcrossShapes) {
  Rng rng(6);
  const Graph a = gen::gnp(80, 0.1, rng);
  const Graph b = gen::star(50);
  const Graph c = gen::grid(5, 8);
  ProtocolTrace ref_a, ref_b, ref_c;
  {
    SyncNetwork na(a, nullptr, "net", 1, kPlan);
    SyncNetwork nb(b, nullptr, "net", 1, kPlan);
    SyncNetwork nc(c, nullptr, "net", 1, kPlan);
    ref_a = run_protocol(na, 5);
    ref_b = run_protocol(nb, 5);
    ref_c = run_protocol(nc, 5);
  }
  NetworkPool pool(1);
  // One run state cycles a -> b -> c -> a -> b; every rebind must behave
  // like a fresh network, including returning to a cached plan.
  const Graph* order[] = {&a, &b, &c, &a, &b};
  const ProtocolTrace* expect[] = {&ref_a, &ref_b, &ref_c, &ref_a, &ref_b};
  for (int i = 0; i < 5; ++i) {
    auto lease = pool.network(*order[i], nullptr, "net", kPlan);
    EXPECT_EQ(expect[i]->key(), run_protocol(*lease, 5).key()) << "step " << i;
  }
  EXPECT_EQ(pool.run_states(), 1u);
  EXPECT_EQ(pool.topology_misses(), 3);  // a, b, c planned once each
  EXPECT_EQ(pool.topology_hits(), 2);    // the two returns
}

TEST(NetworkPool, ConcurrentLeasesGetDistinctRunStates) {
  Rng rng(7);
  const Graph g = gen::gnp(30, 0.2, rng);
  NetworkPool pool(1);
  auto l1 = pool.network(g);
  auto l2 = pool.network(g);
  EXPECT_NE(&*l1, &*l2);
  EXPECT_EQ(l1->topology().get(), l2->topology().get());  // plan still shared
  EXPECT_EQ(pool.run_states(), 2u);
}

// ------------------------------------------------------------- directed pool

auto token_key(const TokenDroppingResult& r) {
  return std::tuple(r.tokens, r.edge_passive, r.phases, r.rounds,
                    r.tokens_moved, r.max_message_bits);
}

TEST(NetworkPool, PooledTokenGamesMatchFresh) {
  NetworkPool pool(1);
  for (int seed = 0; seed < 20; ++seed) {
    Rng rng(700 + static_cast<std::uint64_t>(seed));
    const Digraph g = seed % 2 == 0
                          ? random_game(30 + seed, 0.12, rng)
                          : layered_game(3 + seed % 3, 10, 3, rng);
    TokenDroppingParams p;
    p.k = 16 + 4 * (seed % 4);
    p.delta = 1 + seed % 2;
    p.alpha.assign(static_cast<std::size_t>(g.num_nodes()), p.delta + 1);
    std::vector<int> init(static_cast<std::size_t>(g.num_nodes()));
    for (auto& t : init) {
      t = static_cast<int>(
          rng.next_below(static_cast<std::uint64_t>(p.k) + 1));
    }
    RoundLedger fresh_ledger, pooled_ledger;
    const TokenDroppingResult fresh =
        run_token_dropping(g, init, p, &fresh_ledger, 1);
    // The one pool serves every seed's game: each run rebinds the same
    // DiNetwork run state to a brand-new arc set.
    const TokenDroppingResult pooled =
        run_token_dropping(g, init, p, &pooled_ledger, 1, &pool);
    EXPECT_EQ(token_key(fresh), token_key(pooled)) << "seed " << seed;
    EXPECT_EQ(fresh_ledger.breakdown(), pooled_ledger.breakdown());
  }
  EXPECT_LE(pool.run_states(), 1u);
}

TEST(NetworkPool, DiNetworkRebindHandlesLaneShapes) {
  // Alternate between a plain game and an anti-parallel star (two lanes per
  // support edge) on the same run state.
  std::vector<std::pair<NodeId, NodeId>> arcs;
  const NodeId leaves = 12;
  for (NodeId i = 1; i <= leaves; ++i) {
    arcs.emplace_back(0, i);
    arcs.emplace_back(i, 0);
  }
  const Digraph antiparallel(leaves + 1, std::move(arcs));
  Rng rng(8);
  const Digraph plain = layered_game(4, 8, 3, rng);

  TokenDroppingParams p;
  p.k = 12;
  p.delta = 2;
  auto tokens_for = [&](const Digraph& g, std::uint64_t seed) {
    Rng r(seed);
    std::vector<int> init(static_cast<std::size_t>(g.num_nodes()));
    for (auto& t : init) {
      t = static_cast<int>(r.next_below(static_cast<std::uint64_t>(p.k) + 1));
    }
    return init;
  };
  const auto init_a = tokens_for(antiparallel, 1);
  const auto init_p = tokens_for(plain, 2);
  p.alpha.assign(static_cast<std::size_t>(antiparallel.num_nodes()), 3);
  const auto ref_a = run_token_dropping(antiparallel, init_a, p);
  TokenDroppingParams pp = p;
  pp.alpha.assign(static_cast<std::size_t>(plain.num_nodes()), 3);
  const auto ref_p = run_token_dropping(plain, init_p, pp);

  NetworkPool pool(1);
  for (int i = 0; i < 3; ++i) {
    const auto got_a =
        run_token_dropping(antiparallel, init_a, p, nullptr, 1, &pool);
    EXPECT_EQ(token_key(ref_a), token_key(got_a)) << "cycle " << i;
    const auto got_p =
        run_token_dropping(plain, init_p, pp, nullptr, 1, &pool);
    EXPECT_EQ(token_key(ref_p), token_key(got_p)) << "cycle " << i;
  }
}

// ------------------------------------------------------- solver bit-identity
// Fresh (no pool) vs pooled vs pooled-again, the pools persisting across all
// seeds and families so nearly every pooled run recycles a warm run state.
// Ledger breakdowns are compared in full.

auto defective_key(const DefectiveResult& r) {
  return std::tuple(r.colors, r.palette, r.rounds, r.max_defect, r.sweeps,
                    r.converged, r.max_message_bits, r.messages);
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

auto bipartite_key(const BipartiteColoringResult& r) {
  return std::tuple(r.colors, r.palette, r.rounds, r.levels,
                    r.leaf_degree_bound, r.chi);
}

BipartiteGraph bipartite_of(Graph g) {
  const auto parts = try_bipartition(g);
  EXPECT_TRUE(parts.has_value());
  return BipartiteGraph{std::move(g), *parts};
}

Graph family_graph(int family, int seed, Rng& rng) {
  switch (family) {
    case 0: return gen::gnp(40 + seed, 0.12, rng);
    case 1: return gen::grid(4 + seed % 4, 5 + seed % 5);
    default: return gen::star(20 + 2 * seed);
  }
}

BipartiteGraph family_bipartite(int family, int seed, Rng& rng) {
  switch (family) {
    case 0:
      return gen::random_bipartite(18 + seed, 16 + (seed * 3) % 9, 0.15, rng);
    case 1: return bipartite_of(gen::grid(4 + seed % 4, 5 + seed % 3));
    default: return bipartite_of(gen::star(18 + 2 * seed));
  }
}

TEST(PooledSolvers, DefectiveColoring) {
  NetworkPool pools[] = {NetworkPool(1), NetworkPool(2), NetworkPool(4)};
  for (int family = 0; family < 3; ++family) {
    for (int seed = 0; seed < 20; ++seed) {
      Rng rng(1000 + 100 * family + static_cast<std::uint64_t>(seed));
      const Graph g = family_graph(family, seed, rng);
      if (g.max_degree() < 2) continue;
      const LinialResult lin = linial_color(g);
      RoundLedger ref_ledger;
      const DefectiveResult ref = defective_4_coloring(
          g, lin.colors, lin.palette, 0.5, &ref_ledger, 1);
      const int threads[] = {1, 2, 4};
      for (int ti = 0; ti < 3; ++ti) {
        RoundLedger ledger;
        const DefectiveResult pooled =
            defective_4_coloring(g, lin.colors, lin.palette, 0.5, &ledger,
                                 threads[ti], &pools[ti]);
        EXPECT_EQ(defective_key(ref), defective_key(pooled))
            << "family " << family << " seed " << seed << " threads "
            << threads[ti];
        EXPECT_EQ(ref_ledger.breakdown(), ledger.breakdown());
      }
      // Pooled-again on the warm serial pool (cache-hit reset path).
      RoundLedger again_ledger;
      const DefectiveResult again = defective_4_coloring(
          g, lin.colors, lin.palette, 0.5, &again_ledger, 1, &pools[0]);
      EXPECT_EQ(defective_key(ref), defective_key(again));
      EXPECT_EQ(ref_ledger.breakdown(), again_ledger.breakdown());
    }
  }
}

TEST(PooledSolvers, BalancedOrientationAndDefective2EC) {
  NetworkPool pools[] = {NetworkPool(1), NetworkPool(2), NetworkPool(4)};
  for (int family = 0; family < 3; ++family) {
    for (int seed = 0; seed < 20; ++seed) {
      Rng rng(2000 + 100 * family + static_cast<std::uint64_t>(seed));
      const auto bg = family_bipartite(family, seed, rng);
      std::vector<double> eta(static_cast<std::size_t>(bg.graph.num_edges()));
      for (auto& v : eta) v = 3.0 * (2.0 * rng.next_double() - 1.0);

      OrientationParams p;
      p.nu = seed % 2 == 0 ? 0.125 : 0.0625;
      // Reference: the solver's own internal arena, cold on every call.
      RoundLedger ref_ledger;
      const BalancedOrientationResult ref = balanced_orientation(
          bg.graph, bg.parts, eta, p, &ref_ledger, 1);

      const int threads[] = {1, 2, 4};
      for (int ti = 0; ti < 3; ++ti) {
        RoundLedger ledger;
        const BalancedOrientationResult pooled = balanced_orientation(
            bg.graph, bg.parts, eta, p, &ledger, threads[ti], &pools[ti]);
        EXPECT_EQ(orientation_key(ref), orientation_key(pooled))
            << "family " << family << " seed " << seed << " threads "
            << threads[ti];
        EXPECT_EQ(ref_ledger.breakdown(), ledger.breakdown());
      }

      if (seed % 4 == 0) {
        std::vector<double> lambda(
            static_cast<std::size_t>(bg.graph.num_edges()));
        for (auto& v : lambda) v = rng.next_double();
        RoundLedger fresh_l, pooled_l;
        const Defective2ECResult fresh = defective_2_edge_coloring(
            bg.graph, bg.parts, lambda, 1.0, ParamMode::kPractical, &fresh_l,
            1);
        const Defective2ECResult pooled = defective_2_edge_coloring(
            bg.graph, bg.parts, lambda, 1.0, ParamMode::kPractical, &pooled_l,
            1, &pools[0]);
        EXPECT_EQ(d2ec_key(fresh), d2ec_key(pooled))
            << "family " << family << " seed " << seed;
        EXPECT_EQ(fresh_l.breakdown(), pooled_l.breakdown());
      }
    }
  }
}

TEST(PooledSolvers, BipartiteEdgeColoring) {
  NetworkPool pools[] = {NetworkPool(1), NetworkPool(2), NetworkPool(4)};
  for (int family = 0; family < 3; ++family) {
    for (int seed = 0; seed < 20; ++seed) {
      Rng rng(3000 + 100 * family + static_cast<std::uint64_t>(seed));
      const auto bg = family_bipartite(family, seed % 8, rng);
      if (bg.graph.num_edges() == 0) continue;
      RoundLedger ref_ledger;
      const BipartiteColoringResult ref = bipartite_edge_coloring(
          bg.graph, bg.parts, 1.0, ParamMode::kPractical, &ref_ledger, 1);
      const int threads[] = {1, 2, 4};
      for (int ti = 0; ti < 3; ++ti) {
        RoundLedger ledger;
        const BipartiteColoringResult pooled = bipartite_edge_coloring(
            bg.graph, bg.parts, 1.0, ParamMode::kPractical, &ledger,
            threads[ti], &pools[ti]);
        EXPECT_EQ(bipartite_key(ref), bipartite_key(pooled))
            << "family " << family << " seed " << seed << " threads "
            << threads[ti];
        EXPECT_EQ(ref_ledger.breakdown(), ledger.breakdown());
      }
    }
  }
}

}  // namespace
}  // namespace dec
