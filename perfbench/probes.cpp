// Per-layer probes of a traced run. Each probe times calls into one module's
// public functions from outside, inside a span named after the layer, and
// reports the median (or a count) under the per-layer metric names.
#include <algorithm>

#include "bench.hpp"
#include "coloring/defective.hpp"
#include "coloring/linial.hpp"
#include "sim/network.hpp"
#include "sim/pool.hpp"
#include "sim/shared_pool.hpp"
#include "util/logstar.hpp"

namespace perfbench {

using namespace dec;

namespace {

/// Run `f` inside a span called `name`; returns its wall time in ns.
template <class F>
double timed_ns(const char* name, F&& f) {
  const ScopedSpan span(name);
  const auto t0 = Clock::now();
  f();
  return std::chrono::duration<double, std::nano>(Clock::now() - t0).count();
}

/// The slot plan the coloring stages lease with (one narrow field, single
/// plane), so sim probes exercise the solve's own round path.
constexpr SlotPlan kSolvePlan{SlotFormat::kNarrow, 1, PlaneMode::kSingle};

/// Keep probing while fewer than `min_samples` were taken and the probe has
/// spent less than `budget_s`, always taking at least one sample.
template <class F>
std::vector<double> sample(int min_samples, double budget_s, F&& one) {
  std::vector<double> out;
  const auto t0 = Clock::now();
  do {
    out.push_back(one());
  } while (static_cast<int>(out.size()) < min_samples &&
           seconds_since(t0) < budget_s);
  return out;
}

}  // namespace

void time_requests(const std::vector<SolverRequest>& requests,
                   NetworkPool& view, Report& report) {
  std::vector<double> ms[3];  // congest, bipartite, token_dropping
  for (const SolverRequest& req : requests) {
    const int kind = req.solver == "congest_edge_coloring"     ? 0
                     : req.solver == "bipartite_edge_coloring" ? 1
                                                               : 2;
    execute_request(req, view.num_threads(), &view);  // warm the view
    const auto t = sample(8, 0.05, [&] {
      return timed_ns("registry.execute", [&] {
               execute_request(req, view.num_threads(), &view);
             }) / 1e6;
    });
    ms[kind].insert(ms[kind].end(), t.begin(), t.end());
  }
  const char* names[] = {"registry.execute_ms.congest",
                         "registry.execute_ms.bipartite",
                         "registry.execute_ms.token_dropping"};
  for (int k = 0; k < 3; ++k) {
    if (!ms[k].empty()) report.add(names[k], median(ms[k]), "ms");
  }
}

void probe_pool(const std::vector<SolverRequest>& templates,
                const Graph& probe_graph, int shards, Report& report) {
  // Shapes: every template graph and game, or the workload's own graph when
  // it has no templates.
  std::vector<const Graph*> graphs;
  std::vector<const Digraph*> games;
  for (const SolverRequest& req : templates) {
    if (req.graph) graphs.push_back(req.graph.get());
    if (req.digraph) games.push_back(req.digraph.get());
  }
  if (graphs.empty()) graphs.push_back(&probe_graph);
  // Misses: the first topology() of a shape on a fresh arena; hits: the
  // repeat lookups right after it.
  std::vector<double> miss_us, hit_us;
  const auto t0 = Clock::now();
  do {
    SharedNetworkPool fresh(shards);
    const auto lookup = [&](const auto& shape) {
      miss_us.push_back(
          timed_ns("pool.topology_miss", [&] { fresh.topology(shape); }) /
          1e3);
      for (int r = 0; r < 4; ++r) {
        hit_us.push_back(
            timed_ns("pool.topology_hit", [&] { fresh.topology(shape); }) /
            1e3);
      }
    };
    for (const Graph* g : graphs) lookup(*g);
    for (const Digraph* dg : games) lookup(*dg);
  } while (miss_us.size() < 200 && seconds_since(t0) < 1.0);
  report.add("pool.topology_hit_us", median(hit_us), "us");
  report.add("pool.topology_miss_us", median(miss_us), "us");

  // Leases on a warm view: acquire + release of a run state whose shape the
  // view already holds (the per-stage cost a pooled solver pays).
  SharedNetworkPool shared(shards);
  NetworkPool view(shared);
  for (const Graph* g : graphs) view.network(*g, nullptr, "probe", kSolvePlan);
  std::vector<double> lease_us;
  const auto t1 = Clock::now();
  do {
    for (const Graph* g : graphs) {
      lease_us.push_back(timed_ns("pool.lease", [&] {
                           view.network(*g, nullptr, "probe", kSolvePlan);
                         }) / 1e3);
    }
  } while (lease_us.size() < 500 && seconds_since(t1) < 0.5);
  report.add("pool.lease_us", median(lease_us), "us");

  const auto lease = view.network(probe_graph, nullptr, "probe", kSolvePlan);
  report.add("sim.run_state_bytes_per_node",
             static_cast<double>(lease->memory_bytes()) /
                 std::max<NodeId>(1, probe_graph.num_nodes()),
             "B");
}

void probe_sim(const Graph& g, int shards, bool smoke, Report& report) {
  const double budget = smoke ? 0.05 : 0.5;
  // Planning on the workload's shard count (the plan fixes the partition).
  report.add("sim.plan_ms",
             median(sample(5, budget, [&] {
               SharedNetworkPool fresh(shards);
               return timed_ns("sim.plan", [&] { fresh.topology(g); }) / 1e6;
             })),
             "ms");

  // Width-1 narrow rounds: every node folds its inbox, then sends its id on
  // every edge — the message pattern of the Linial/defective rounds.
  std::vector<std::int64_t> sink(static_cast<std::size_t>(g.num_nodes()));
  const auto send_ids = [&](NodeId v, const auto& in, auto&& out) {
    std::int64_t acc = 0;
    for (std::size_t i = 0; i < in.size(); ++i) {
      if (!in[i].empty()) acc += in[i].at(0);
    }
    sink[static_cast<std::size_t>(v)] = acc;
    for (auto&& m : out) m.assign({static_cast<std::int64_t>(v)});
  };
  const auto nothing = [](NodeId, const auto&, auto&&) {};
  const auto per_round_us = [&](SyncNetwork& net, const auto& program,
                                const char* span) {
    for (int r = 0; r < 4; ++r) net.round_fast(program);  // warm
    // Batches long enough that the clock read is noise (>= ~1 ms).
    int rounds = 1;
    while (rounds < (1 << 16) &&
           timed_ns(span, [&] {
             for (int r = 0; r < rounds; ++r) net.round_fast(program);
           }) < 1e6) {
      rounds *= 2;
    }
    return median(sample(15, budget, [&] {
      return timed_ns(span, [&] {
               for (int r = 0; r < rounds; ++r) net.round_fast(program);
             }) / 1e3 / rounds;
    }));
  };
  {
    SyncNetwork net(g, nullptr, "probe", 1, kSolvePlan);
    report.add("sim.round_us.1shard", per_round_us(net, send_ids, "sim.round"),
               "us");
  }
  // Sharded at every core, whatever the workload's own shard count: the
  // serial workloads show these stay flat when only the executor changes.
  SyncNetwork net(g, nullptr, "probe", resolve_num_threads(0), kSolvePlan);
  report.add("sim.round_us.sharded",
             per_round_us(net, send_ids, "sim.round_sharded"), "us");
  report.add("sim.barrier_us.sharded",
             per_round_us(net, nothing, "sim.barrier_sharded"), "us");
}

void probe_coloring(const Graph& g, NetworkPool& view, Report& report) {
  const int shards = view.num_threads();
  // The level-0 calls of congest_edge_coloring (core/congest_coloring.cpp).
  LinialResult lin;
  const double linial_ns = timed_ns("coloring.linial", [&] {
    lin = linial_color(g, nullptr, {}, 0, shards, &view);
  });
  const int delta = g.max_degree();
  const int k_levels = std::max(
      1, floor_log2(static_cast<std::uint64_t>(std::max(2, delta))) - 1);
  const double eps1 = std::min(0.25, 1.0 / (2.0 * k_levels));
  const double def_ns = timed_ns("coloring.defective4", [&] {
    defective_4_coloring(g, lin.colors, lin.palette, eps1, nullptr, shards,
                         &view);
  });
  report.add("coloring.linial_s", linial_ns / 1e9, "s");
  report.add("coloring.defective4_s", def_ns / 1e9, "s");
}

void report_ledger(const SolverResult& solve, Report& report) {
  for (const char* c : {"linial", "defective4", "bipartite_level", "tail"}) {
    report.add(std::string("core.rounds.") + c,
               static_cast<double>(solve.ledger.component(c)), "count");
  }
}

}  // namespace perfbench
