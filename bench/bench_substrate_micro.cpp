// Micro-benchmarks of the substrate (google-benchmark): graph construction,
// simulator round overhead, generators, and the hot validation predicates.
#include <benchmark/benchmark.h>

#include "coloring/baselines.hpp"
#include "coloring/defective.hpp"
#include "coloring/linial.hpp"
#include "core/defective2ec.hpp"
#include "core/solver_registry.hpp"
#include "core/token_dropping.hpp"
#include "service/solver_service.hpp"
#include "sim/cancel.hpp"
#include "graph/generators.hpp"
#include "graph/line_graph.hpp"
#include "graph/properties.hpp"
#include "graph/subgraph.hpp"
#include "sim/network.hpp"
#include "sim/pool.hpp"
#include "sim/shared_pool.hpp"
#include "sim/topology.hpp"
#include "util/thread_pool.hpp"

#include <algorithm>
#include <thread>
#include <vector>

namespace {

using namespace dec;

void BM_GraphConstruction(benchmark::State& state) {
  Rng rng(1);
  const Graph src = gen::random_regular(
      static_cast<NodeId>(state.range(0)), 8, rng);
  auto edges = src.edge_list();
  for (auto _ : state) {
    Graph g(src.num_nodes(), edges);
    benchmark::DoNotOptimize(g.num_edges());
  }
  state.SetItemsProcessed(state.iterations() * src.num_edges());
}
BENCHMARK(BM_GraphConstruction)->Arg(1000)->Arg(10000);

// L(G) construction; Args are {n, executor threads}. At n = 4000 L(G) has
// 112k edges, below two fill chunks, so /4000/4 runs the serial fill; at
// n = 16000 (448k edges) the fill splits into one chunk per thread.
void BM_LineGraph(benchmark::State& state) {
  Rng rng(2);
  const Graph g = gen::random_regular(
      static_cast<NodeId>(state.range(0)), 8, rng);
  ThreadPool executor(static_cast<int>(state.range(1)));
  for (auto _ : state) {
    const Graph lg = line_graph(g, &executor);
    benchmark::DoNotOptimize(lg.num_edges());
  }
  state.counters["engine_threads"] = static_cast<double>(state.range(1));
}
BENCHMARK(BM_LineGraph)
    ->Args({1000, 1})
    ->Args({4000, 1})
    ->Args({4000, 4})
    ->Args({16000, 1})
    ->Args({16000, 4})
    ->UseRealTime();

// The (Δ̄+1)-edge coloring of one bipartite leaf, isolated: the split-0
// bipartite subgraph of random_regular(10^4, 16) exactly as
// congest_edge_coloring's level 0 cuts it (defective 4-coloring classes
// {0,1} vs {2,3}), colored by edge_color_fast_2delta on a fresh arena per
// run, as each solve's leaf is — L(G) construction, the Linial lease and
// rounds, both reductions and the checks (Arg is the shard count).
void BM_LineGraphEdgeColoring(benchmark::State& state) {
  Rng rng(9);
  const Graph g = gen::random_regular(10000, 16, rng);
  const LinialResult lin = linial_color(g);
  // congest_edge_coloring's level-0 ε for Δ = 16: 1 / (2 · (log2 Δ − 1)).
  const DefectiveResult classes =
      defective_4_coloring(g, lin.colors, lin.palette, 1.0 / 6.0);
  std::vector<bool> take(static_cast<std::size_t>(g.num_edges()));
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    const auto [u, v] = g.endpoints(e);
    take[static_cast<std::size_t>(e)] =
        (classes.colors[static_cast<std::size_t>(u)] >= 2) !=
        (classes.colors[static_cast<std::size_t>(v)] >= 2);
  }
  const EdgeSubgraph leaf = edge_subgraph(g, take);
  const int threads = static_cast<int>(state.range(0));
  for (auto _ : state) {
    NetworkPool pool(threads);
    const EdgeColoringResult r =
        edge_color_fast_2delta(leaf.graph, nullptr, threads, &pool);
    benchmark::DoNotOptimize(r.palette);
  }
  state.SetItemsProcessed(state.iterations() * leaf.graph.num_edges());
  state.counters["edges"] = static_cast<double>(leaf.graph.num_edges());
  state.counters["engine_threads"] = static_cast<double>(threads);
}
BENCHMARK(BM_LineGraphEdgeColoring)
    ->Arg(1)
    ->Arg(4)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// Defective precolor (Lemma 6.2's one-round defect/palette trade-off),
// isolated: congest_edge_coloring's level-0 call on random_regular(n, 16) —
// the level-0 Linial coloring as input, and the target defect
// defective_4_coloring derives from that level's ε = 1/6 — leasing from a
// warm arena, as the solve's stages do after Linial planned g. Times the
// announce round and the digit-polynomial choice at every node.
void BM_DefectivePrecolor(benchmark::State& state) {
  Rng rng(9);
  const Graph g =
      gen::random_regular(static_cast<NodeId>(state.range(0)), 16, rng);
  const LinialResult lin = linial_color(g);
  const double eps = 1.0 / 6.0;
  const int target = std::max(
      1, static_cast<int>(eps * static_cast<double>(g.max_degree()) / 2.0));
  NetworkPool pool(1);
  int palette = 0;
  for (auto _ : state) {
    const DefectiveResult r = defective_precolor(g, lin.colors, lin.palette,
                                                 target, nullptr, 1, &pool);
    palette = r.palette;
    benchmark::DoNotOptimize(r.max_defect);
  }
  state.SetItemsProcessed(state.iterations() * g.num_nodes());
  state.counters["palette"] = static_cast<double>(palette);
  state.counters["target_defect"] = static_cast<double>(target);
}
BENCHMARK(BM_DefectivePrecolor)->Arg(10000)->Unit(benchmark::kMillisecond);

// Topology planning alone: what a NetworkPool cache hit saves per network.
void BM_TopologyPlan(benchmark::State& state) {
  Rng rng(3);
  const Graph g = gen::random_regular(
      static_cast<NodeId>(state.range(0)), 8, rng);
  for (auto _ : state) {
    auto topo = NetworkTopology::plan(g);
    benchmark::DoNotOptimize(topo->num_slots());
  }
  state.SetItemsProcessed(state.iterations() * 2 * g.num_edges());
}
BENCHMARK(BM_TopologyPlan)->Arg(1000)->Arg(10000);

// Directed plan (support graph + lanes) on a token-game digraph.
void BM_DiTopologyPlan(benchmark::State& state) {
  Rng rng(8);
  const Digraph g = layered_game(10, static_cast<int>(state.range(0)), 6, rng);
  for (auto _ : state) {
    auto topo = DiTopology::plan(g);
    benchmark::DoNotOptimize(topo->num_arcs());
  }
  state.SetItemsProcessed(state.iterations() * g.num_arcs());
}
BENCHMARK(BM_DiTopologyPlan)->Arg(100);

// O(shards) epoch-based reset of an existing run state...
void BM_NetworkReset(benchmark::State& state) {
  Rng rng(3);
  const Graph g = gen::random_regular(
      static_cast<NodeId>(state.range(0)), 8, rng);
  SyncNetwork net(g);
  for (auto _ : state) {
    net.round_fast([](NodeId v, const auto&, auto&& out) {
      for (auto&& m : out) m.assign({v});
    });
    net.reset();
    benchmark::DoNotOptimize(net.rounds_executed());
  }
  state.SetItemsProcessed(state.iterations() * 2 * g.num_edges());
}
BENCHMARK(BM_NetworkReset)->Arg(1000)->Arg(10000);

// ...vs reconstructing plan + run state from scratch each time (the cost
// reset()/the pool avoid). Same one-round workload for a like-for-like item
// rate.
void BM_NetworkReconstruct(benchmark::State& state) {
  Rng rng(3);
  const Graph g = gen::random_regular(
      static_cast<NodeId>(state.range(0)), 8, rng);
  for (auto _ : state) {
    SyncNetwork net(g);
    net.round_fast([](NodeId v, const auto&, auto&& out) {
      for (auto&& m : out) m.assign({v});
    });
    benchmark::DoNotOptimize(net.rounds_executed());
  }
  state.SetItemsProcessed(state.iterations() * 2 * g.num_edges());
}
BENCHMARK(BM_NetworkReconstruct)->Arg(1000)->Arg(10000);

// The headline round-throughput row: every node sends its id on every edge
// (a single-field echo, declared width 1) on the 16 B slot plane; the
// round_fast<F> node program stays a direct call.
void BM_NetworkRoundNarrow(benchmark::State& state) {
  Rng rng(3);
  const Graph g = gen::random_regular(
      static_cast<NodeId>(state.range(0)), 8, rng);
  SyncNetwork net(g);
  for (auto _ : state) {
    net.round_fast([](NodeId v, const auto&, auto&& out) {
      for (auto&& m : out) m.assign({v});
    });
  }
  state.SetItemsProcessed(state.iterations() * 2 * g.num_edges());
  state.counters["bytes_per_node"] = static_cast<double>(net.memory_bytes()) /
                                     static_cast<double>(g.num_nodes());
}
BENCHMARK(BM_NetworkRoundNarrow)->Arg(1000)->Arg(10000);

// Quiet rounds: 1% of nodes send, and every node folds its inbox only when
// its mail summary (in.any()) says something arrived — the shape of
// defective refine's sparse announce and intent rounds. Items are nodes
// visited, so the row tracks the per-node floor of a near-silent round
// rather than per-message throughput.
void BM_NetworkRoundSparse(benchmark::State& state) {
  Rng rng(3);
  const Graph g = gen::random_regular(
      static_cast<NodeId>(state.range(0)), 8, rng);
  SyncNetwork net(g);
  std::vector<std::int64_t> acc(static_cast<std::size_t>(g.num_nodes()), 0);
  for (auto _ : state) {
    net.round_fast([&](NodeId v, const auto& in, auto&& out) {
      if (in.any()) {
        for (std::size_t i = 0; i < in.size(); ++i) {
          if (!in[i].empty()) acc[static_cast<std::size_t>(v)] += in[i].at(0);
        }
      }
      if (v % 100 == 0) {
        for (auto&& m : out) m.assign({v});
      }
    });
  }
  benchmark::DoNotOptimize(acc.data());
  state.SetItemsProcessed(state.iterations() * g.num_nodes());
}
BENCHMARK(BM_NetworkRoundSparse)->Arg(1000)->Arg(10000);

// Active rounds against the full visit on a refine-like program: 16 fixed
// senders (independent of n) announce every round, and every visited node
// folds its mail into a per-edge neighbor-color cache and rescans that
// cache for its defect, as refine's quiet visit does. The defect is
// recomputed, not accumulated, so a node with no mail is a no-op and the
// active round (second arg 1: round_fast(prog, wake = senders)) may skip
// it; second arg 0 runs the same program as a full visit. Items are n per
// round on both, so items/s compares directly: the full visit's time grows
// with n, the active round's with the senders' neighborhoods.
void BM_NetworkRoundActive(benchmark::State& state) {
  Rng rng(3);
  const Graph g = gen::random_regular(
      static_cast<NodeId>(state.range(0)), 8, rng);
  const bool active = state.range(1) != 0;
  SyncNetwork net(g);
  const std::size_t n = static_cast<std::size_t>(g.num_nodes());
  std::vector<std::int64_t> cache(2 * static_cast<std::size_t>(g.num_edges()),
                                  -1);
  std::vector<std::size_t> first(n + 1, 0);
  for (std::size_t v = 0; v < n; ++v) {
    first[v + 1] = first[v] + g.neighbors(static_cast<NodeId>(v)).size();
  }
  std::vector<std::int64_t> defect(n, 0);
  constexpr NodeId kSenders = 16;
  std::vector<NodeId> senders;
  for (NodeId k = 0; k < kSenders; ++k) {
    senders.push_back(k * (g.num_nodes() / kSenders));
  }
  std::vector<char> is_sender(n, 0);
  for (const NodeId v : senders) is_sender[static_cast<std::size_t>(v)] = 1;
  const auto prog = [&](NodeId v, const auto& in, auto&& out) {
    const std::size_t vi = static_cast<std::size_t>(v);
    std::int64_t* c = cache.data() + first[vi];
    if (in.any()) {
      for (std::size_t i = 0; i < in.size(); ++i) {
        if (!in[i].empty()) c[i] = in[i].at(0);
      }
    }
    std::int64_t d = 0;
    for (std::size_t i = 0; i < in.size(); ++i) d += c[i] == v % 4;
    defect[vi] = d;
    if (is_sender[vi]) {
      for (auto&& m : out) m.assign({v % 4});
    }
  };
  for (auto _ : state) {
    if (active) {
      net.round_fast(prog, senders);
    } else {
      net.round_fast(prog);
    }
  }
  benchmark::DoNotOptimize(defect.data());
  state.SetItemsProcessed(state.iterations() * g.num_nodes());
}
BENCHMARK(BM_NetworkRoundActive)
    ->Args({1000, 0})
    ->Args({1000, 1})
    ->Args({10000, 0})
    ->Args({10000, 1});

// BM_NetworkRoundNarrow with an installed (never-tripping) CancelToken: the
// cost of the relaxed aborted() load the barrier pays per round when a
// token is present. Compare against BM_NetworkRoundNarrow for the delta.
void BM_NetworkRoundCancelToken(benchmark::State& state) {
  Rng rng(3);
  const Graph g = gen::random_regular(
      static_cast<NodeId>(state.range(0)), 8, rng);
  SyncNetwork net(g);
  CancelToken token;
  net.set_cancel(&token);
  for (auto _ : state) {
    net.round_fast([](NodeId v, const auto&, auto&& out) {
      for (auto&& m : out) m.assign({v});
    });
  }
  net.set_cancel(nullptr);
  state.SetItemsProcessed(state.iterations() * 2 * g.num_edges());
}
BENCHMARK(BM_NetworkRoundCancelToken)->Arg(1000)->Arg(10000);

// The sharded round's fixed cost: an empty node program, so a round is
// the executor's dispatch and join (the caller runs shard 0) plus the
// epoch, audit and per-node visit bookkeeping. Args are {n, shards}; wall
// time, as for the parallel rows below.
void BM_RoundBarrier(benchmark::State& state) {
  Rng rng(3);
  const Graph g = gen::random_regular(
      static_cast<NodeId>(state.range(0)), 8, rng);
  SyncNetwork net(g, nullptr, "network", static_cast<int>(state.range(1)));
  for (auto _ : state) {
    net.round_fast([](NodeId, const auto&, auto&&) {});
  }
  benchmark::DoNotOptimize(net.rounds_executed());
  state.counters["engine_threads"] = static_cast<double>(state.range(1));
}
BENCHMARK(BM_RoundBarrier)->Args({10000, 2})->Args({10000, 4})->UseRealTime();

// Parallel round engine; Args are {n, threads}. Wall time: the main thread
// sleeps in the pool barrier, so its CPU time would overstate items/s.
// The engine_threads counter tells compare_benches.py this row is
// multi-threaded.
void BM_NetworkRoundParallel(benchmark::State& state) {
  Rng rng(3);
  const Graph g = gen::random_regular(
      static_cast<NodeId>(state.range(0)), 8, rng);
  SyncNetwork net(g, nullptr, "network", static_cast<int>(state.range(1)));
  for (auto _ : state) {
    net.round_fast([](NodeId v, const auto&, auto&& out) {
      for (auto&& m : out) m.assign({v});
    });
  }
  state.SetItemsProcessed(state.iterations() * 2 * g.num_edges());
  state.counters["engine_threads"] = static_cast<double>(state.range(1));
}
BENCHMARK(BM_NetworkRoundParallel)
    ->Args({10000, 2})
    ->Args({10000, 4})
    ->Args({10000, 8})
    ->UseRealTime();

// Multi-field payloads (declared width 8): exercises the slab-arena spill
// path.
void BM_NetworkRoundSpill(benchmark::State& state) {
  Rng rng(3);
  const Graph g = gen::random_regular(
      static_cast<NodeId>(state.range(0)), 8, rng);
  constexpr int kWidth = 8;
  SyncNetwork net(g, nullptr, "network", 1, SlotPlan{.max_fields = kWidth});
  for (auto _ : state) {
    net.round_fast([](NodeId v, const auto&, auto&& out) {
      for (auto&& m : out) {
        for (std::int64_t k = 0; k < kWidth; ++k) m.push(v + k);
      }
    });
  }
  state.SetItemsProcessed(state.iterations() * 2 * g.num_edges());
}
BENCHMARK(BM_NetworkRoundSpill)->Arg(1000)->Arg(10000);

// Defective refine on the message-passing substrate (Args are
// {n, threads}); items = audited rounds x slot-plane size. Multi-threaded
// rows (here and in the solver rows below) report wall time and carry an
// engine_threads counter.
void BM_DefectiveRefine(benchmark::State& state) {
  Rng rng(7);
  const Graph g = gen::random_regular(
      static_cast<NodeId>(state.range(0)), 12, rng);
  const LinialResult lin = linial_color(g);
  const int threads = static_cast<int>(state.range(1));
  const int threshold = g.max_degree() / 4 + 2;
  std::int64_t rounds = 0;
  for (auto _ : state) {
    const DefectiveResult r = defective_refine(
        g, lin.colors, lin.palette, 4, threshold, 256, nullptr, threads);
    rounds = r.rounds;
    benchmark::DoNotOptimize(r.max_defect);
  }
  state.SetItemsProcessed(state.iterations() * rounds * 2 * g.num_edges());
  state.counters["engine_threads"] = static_cast<double>(threads);
}
BENCHMARK(BM_DefectiveRefine)->Args({1000, 1});
BENCHMARK(BM_DefectiveRefine)->Args({1000, 2})->UseRealTime();

// Token dropping on the directed adapter over the substrate (Args are
// {width, threads}); items = audited rounds x arcs.
void BM_TokenDropping(benchmark::State& state) {
  Rng rng(8);
  const int width = static_cast<int>(state.range(0));
  const Digraph g = layered_game(10, width, 6, rng);
  const int threads = static_cast<int>(state.range(1));
  TokenDroppingParams p;
  p.k = 64;
  p.delta = 2;
  p.alpha.assign(static_cast<std::size_t>(g.num_nodes()), 4);
  std::vector<int> init(static_cast<std::size_t>(g.num_nodes()));
  for (auto& t : init) {
    t = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(p.k) + 1));
  }
  std::int64_t rounds = 0;
  for (auto _ : state) {
    const TokenDroppingResult r =
        run_token_dropping(g, init, p, nullptr, threads);
    rounds = r.rounds;
    benchmark::DoNotOptimize(r.tokens_moved);
  }
  state.SetItemsProcessed(state.iterations() * rounds * g.num_arcs());
  state.counters["engine_threads"] = static_cast<double>(threads);
}
BENCHMARK(BM_TokenDropping)->Args({100, 1});
BENCHMARK(BM_TokenDropping)->Args({100, 2})->UseRealTime();

// Balanced orientation (§5) as node programs: two substrate rounds per
// phase plus the embedded token dropping games on their own DiNetworks
// (Args are {n_per_side, threads}); items = rounds x slot-plane size.
void BM_BalancedOrientation(benchmark::State& state) {
  const auto bg = gen::regular_bipartite(
      static_cast<NodeId>(state.range(0)), 32);
  const std::vector<double> eta(
      static_cast<std::size_t>(bg.graph.num_edges()), 0.0);
  OrientationParams p;
  p.nu = 0.125;
  const int threads = static_cast<int>(state.range(1));
  std::int64_t rounds = 0;
  for (auto _ : state) {
    const BalancedOrientationResult r =
        balanced_orientation(bg.graph, bg.parts, eta, p, nullptr, threads);
    rounds = r.rounds;
    benchmark::DoNotOptimize(r.max_excess);
  }
  state.SetItemsProcessed(state.iterations() * rounds * 2 *
                          bg.graph.num_edges());
  state.counters["engine_threads"] = static_cast<double>(threads);
}
BENCHMARK(BM_BalancedOrientation)->Args({256, 1});
BENCHMARK(BM_BalancedOrientation)->Args({256, 2})->UseRealTime();

// Generalized defective 2-edge coloring (Lemma 5.3 reduction onto the
// balanced orientation; Args are {n_per_side, threads}).
void BM_Defective2EC(benchmark::State& state) {
  const auto bg = gen::regular_bipartite(
      static_cast<NodeId>(state.range(0)), 16);
  const std::vector<double> lambda(
      static_cast<std::size_t>(bg.graph.num_edges()), 0.5);
  const int threads = static_cast<int>(state.range(1));
  std::int64_t rounds = 0;
  for (auto _ : state) {
    const Defective2ECResult r = defective_2_edge_coloring(
        bg.graph, bg.parts, lambda, 1.0, ParamMode::kPractical, nullptr,
        threads);
    rounds = r.rounds;
    benchmark::DoNotOptimize(r.beta_emp);
  }
  state.SetItemsProcessed(state.iterations() * rounds * 2 *
                          bg.graph.num_edges());
  state.counters["engine_threads"] = static_cast<double>(threads);
}
BENCHMARK(BM_Defective2EC)->Args({128, 1});
BENCHMARK(BM_Defective2EC)->Args({128, 2})->UseRealTime();

void BM_ProperEdgeColoringCheck(benchmark::State& state) {
  Rng rng(4);
  const Graph g = gen::random_regular(
      static_cast<NodeId>(state.range(0)), 8, rng);
  const LinialResult lin = linial_edge_color(g);
  for (auto _ : state) {
    benchmark::DoNotOptimize(is_proper_edge_coloring(g, lin.colors));
  }
}
BENCHMARK(BM_ProperEdgeColoringCheck)->Arg(1000)->Arg(10000);

void BM_LinialEndToEnd(benchmark::State& state) {
  Rng rng(5);
  const Graph g = gen::random_regular(
      static_cast<NodeId>(state.range(0)), 8, rng);
  for (auto _ : state) {
    const LinialResult r = linial_color(g);
    benchmark::DoNotOptimize(r.palette);
  }
}
BENCHMARK(BM_LinialEndToEnd)->Arg(1000)->Arg(10000);

void BM_RandomRegularGenerator(benchmark::State& state) {
  Rng rng(6);
  for (auto _ : state) {
    const Graph g = gen::random_regular(
        static_cast<NodeId>(state.range(0)), 16, rng);
    benchmark::DoNotOptimize(g.num_edges());
  }
}
BENCHMARK(BM_RandomRegularGenerator)->Arg(1000)->Arg(10000);

// Shared-arena contention: N tenant threads, each with its own NetworkPool
// view over one SharedNetworkPool, lease-run-release in a tight loop.
// Views do not recycle run states across each other: every iteration's
// fresh views each build their own run state on the first lease and reuse
// it for the rest. range(0) = tenant threads; range(1) = 1 for all tenants
// on one shape (every lookup after warmup rides the lock-free fast path of
// one cache shard) vs 0 for per-tenant shapes (lookups spread across
// shards). Items = leases.
void BM_SharedPoolContention(benchmark::State& state) {
  const int tenants = static_cast<int>(state.range(0));
  const bool same_shape = state.range(1) == 1;
  std::vector<Graph> graphs;
  graphs.reserve(static_cast<std::size_t>(tenants));
  for (int t = 0; t < tenants; ++t) {
    Rng grng(same_shape ? 7u : 7u + static_cast<std::uint64_t>(t));
    graphs.push_back(gen::random_regular(256, 8, grng));
  }
  constexpr int kLeasesPerTenant = 32;
  SharedNetworkPool shared(1);
  for (auto _ : state) {
    std::vector<std::thread> threads;
    threads.reserve(static_cast<std::size_t>(tenants));
    for (int t = 0; t < tenants; ++t) {
      threads.emplace_back([&shared, &graphs, t] {
        NetworkPool view(shared);
        for (int i = 0; i < kLeasesPerTenant; ++i) {
          auto lease =
              view.network(graphs[static_cast<std::size_t>(t)]);
          lease->round_fast([](NodeId v, const auto&, auto&& out) {
            for (auto&& m : out) m.assign({v});
          });
        }
      });
    }
    for (auto& th : threads) th.join();
  }
  state.SetItemsProcessed(state.iterations() * tenants * kLeasesPerTenant);
  const double lookups = static_cast<double>(shared.topology_hits() +
                                             shared.topology_misses());
  state.counters["plan_hit_rate"] =
      lookups > 0 ? static_cast<double>(shared.topology_hits()) / lookups
                  : 0.0;
}
BENCHMARK(BM_SharedPoolContention)
    ->Args({2, 1})
    ->Args({2, 0})
    ->Args({4, 1})
    ->Args({4, 0})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// Cancellation round-trip through the service: submit a long solve, cancel
// immediately, block on the future. Measures how fast an abort propagates
// from cancel() through the next round barrier to a satisfied future.
// cancelled_frac counts how often the cancel beat the solver (the rest
// complete kOk — both are valid resolutions of the race).
void BM_ServiceCancellation(benchmark::State& state) {
  Rng rng(9);
  auto g = std::make_shared<const Graph>(gen::gnp(220, 0.12, rng));
  SolverService service({.workers = 1, .queue_capacity = 4});
  std::int64_t cancelled = 0;
  for (auto _ : state) {
    JobTicket t = service.submit(make_congest_request(g, {0.25}));
    service.cancel(t.id);
    const SolverResult r = t.result.get();
    if (r.status == SolverStatus::kCancelled) ++cancelled;
    benchmark::DoNotOptimize(r.status);
  }
  state.counters["cancelled_frac"] =
      state.iterations() > 0
          ? static_cast<double>(cancelled) /
                static_cast<double>(state.iterations())
          : 0.0;
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ServiceCancellation)->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
