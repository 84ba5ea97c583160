// Pool plan safety: the plane mode is STRUCTURAL — part of a run state's
// identity. A single-plane run state parked in the arena must never be
// adopted for a double-plane lease (or vice versa); the pool reconstructs
// instead. Pinned directly on SharedNetworkPool's park/adopt for both
// network kinds, through the NetworkPool view (idle-slot filtering), and
// under a multi-threaded lease/park/adopt stress that TSan checks for races
// on the mode-filtered scan. The plane each solver leases is pinned by what
// its view parks: the drain-free solvers (Linial, defective precolor +
// refine, and the line-graph edge coloring built on Linial) park only
// single-plane states; token dropping and balanced orientation, whose
// pipelined phases drain, park only double-plane ones.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "coloring/baselines.hpp"
#include "coloring/defective.hpp"
#include "coloring/linial.hpp"
#include "core/balanced_orientation.hpp"
#include "core/token_dropping.hpp"
#include "graph/generators.hpp"
#include "sim/dinetwork.hpp"
#include "sim/network.hpp"
#include "sim/pool.hpp"
#include "sim/shared_pool.hpp"
#include "sim/topology.hpp"
#include "util/rng.hpp"

namespace dec {
namespace {

constexpr SlotPlan kSingle{.mode = PlaneMode::kSingle};

// Two rounds on a leased network, verifying the lease carries the
// requested plane mode and delivers correctly on it (the second round's
// inbox reads the first round's sends; single-plane safe).
void echo_round(SyncNetwork& net, PlaneMode mode) {
  ASSERT_EQ(net.plane_mode(), mode);
  const Graph& g = net.graph();
  net.round_fast([&](NodeId v, const auto&, auto&& out) {
    for (auto&& m : out) m.assign({v});
  });
  net.round_fast([&](NodeId v, const auto& in, auto&&) {
    const auto nb = g.neighbors(v);
    for (std::size_t i = 0; i < in.size(); ++i) {
      ASSERT_FALSE(in[i].empty());
      ASSERT_EQ(in[i].at(0), static_cast<std::int64_t>(nb[i].neighbor));
    }
  });
}

TEST(PoolFormat, SharedParkAdoptFiltersByPlaneMode) {
  SharedNetworkPool shared(1);
  const Graph g = gen::cycle(8);
  const auto topo = shared.topology(g);

  auto single =
      std::make_unique<SyncNetwork>(g, topo, nullptr, "s", kSingle);
  SyncNetwork* single_raw = single.get();
  shared.park(std::move(single));
  EXPECT_EQ(shared.parked_run_states(), 1u);
  // A double-plane lease must NOT adopt the single-plane state.
  EXPECT_EQ(shared.adopt_network(topo.get(), PlaneMode::kDouble), nullptr);
  EXPECT_EQ(shared.parked_run_states(), 1u);
  // A single-plane lease gets exactly that state back.
  auto adopted = shared.adopt_network(topo.get(), PlaneMode::kSingle);
  ASSERT_NE(adopted, nullptr);
  EXPECT_EQ(adopted.get(), single_raw);
  EXPECT_EQ(adopted->plane_mode(), PlaneMode::kSingle);

  // Mirror direction: a parked double-plane state never serves single.
  shared.park(std::make_unique<SyncNetwork>(g, topo, nullptr, "d",
                                            SlotPlan{}));
  EXPECT_EQ(shared.adopt_network(topo.get(), PlaneMode::kSingle), nullptr);
  EXPECT_NE(shared.adopt_network(topo.get(), PlaneMode::kDouble), nullptr);
}

TEST(PoolFormat, SharedParkAdoptFiltersByPlaneModeDiNetwork) {
  SharedNetworkPool shared(1);
  const Digraph dg(4, {{0, 1}, {1, 2}, {2, 3}, {3, 0}});
  const auto topo = shared.topology(dg);
  shared.park(std::make_unique<DiNetwork>(
      dg, topo, nullptr, "sd",
      SlotPlan{.max_fields = 2, .mode = PlaneMode::kSingle}));
  EXPECT_EQ(shared.adopt_dinetwork(topo.get(), PlaneMode::kDouble), nullptr);
  auto di = shared.adopt_dinetwork(topo.get(), PlaneMode::kSingle);
  ASSERT_NE(di, nullptr);
  EXPECT_EQ(di->plane_mode(), PlaneMode::kSingle);
  shared.park(std::move(di));
  shared.park(std::make_unique<DiNetwork>(dg, topo, nullptr, "dd"));
  auto dbl = shared.adopt_dinetwork(topo.get(), PlaneMode::kDouble);
  ASSERT_NE(dbl, nullptr);
  EXPECT_EQ(dbl->plane_mode(), PlaneMode::kDouble);
  EXPECT_EQ(shared.adopt_dinetwork(topo.get(), PlaneMode::kDouble), nullptr);
}

TEST(PoolFormat, ViewReconstructsOnPlaneModeMiss) {
  // One view, one graph: a single-plane lease released back to the view
  // must not be handed out again for a double-plane lease (and vice
  // versa); the view grows a second run state instead, and both keep
  // working.
  NetworkPool pool(1);
  const Graph g = gen::grid(4, 5);
  {
    auto lease = pool.network(g, nullptr, "a", kSingle);
    echo_round(*lease, PlaneMode::kSingle);
  }
  EXPECT_EQ(pool.run_states(), 1u);
  {
    auto lease = pool.network(g, nullptr, "b");
    echo_round(*lease, PlaneMode::kDouble);
  }
  // Mode miss -> fresh construction, not reuse of the single-plane state.
  EXPECT_EQ(pool.run_states(), 2u);
  {
    // Both modes now warm: leases land on the matching state, no growth.
    auto single = pool.network(g, nullptr, "c", kSingle);
    auto dbl = pool.network(g, nullptr, "d");
    echo_round(*single, PlaneMode::kSingle);
    echo_round(*dbl, PlaneMode::kDouble);
  }
  EXPECT_EQ(pool.run_states(), 2u);
}

TEST(PoolFormat, CrossViewLeaseNeverAdoptsOtherPlaneMode) {
  // View 1 parks a single-plane state on destruction; view 2 asks for two
  // planes. It must reconstruct, then a single-plane view 3 may adopt the
  // parked single-plane one.
  SharedNetworkPool shared(1);
  const Graph g = gen::star(12);
  {
    NetworkPool view(shared);
    auto lease = view.network(g, nullptr, "s", kSingle);
    echo_round(*lease, PlaneMode::kSingle);
  }
  EXPECT_EQ(shared.parked_run_states(), 1u);
  {
    NetworkPool view(shared);
    auto lease = view.network(g, nullptr, "d");
    echo_round(*lease, PlaneMode::kDouble);
  }
  // The single-plane state was not consumed by the double-plane lease.
  EXPECT_EQ(shared.parked_run_states(), 2u);
  {
    NetworkPool view(shared);
    auto lease = view.network(g, nullptr, "s2", kSingle);
    echo_round(*lease, PlaneMode::kSingle);
    EXPECT_EQ(view.run_states(), 1u);  // adopted, not constructed
  }
}

TEST(PoolFormat, ConcurrentMixedPlaneModeLeaseStress) {
  // Tenants on their own threads lease alternating plane modes over one
  // shared arena, so mode-filtered adopt scans race with parks. TSan
  // watches the arena; the asserts watch that no lease ever carries the
  // wrong mode.
  SharedNetworkPool shared(1);
  constexpr int kThreads = 4;
  constexpr int kIters = 40;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&shared, t] {
      for (int i = 0; i < kIters; ++i) {
        NetworkPool view(shared);
        const Graph g = i % 2 == 0 ? gen::cycle(16 + t)
                                   : gen::grid(3 + t, 4 + i % 3);
        const PlaneMode mode = (i + t) % 2 == 0 ? PlaneMode::kSingle
                                                : PlaneMode::kDouble;
        auto lease =
            view.network(g, nullptr, "stress", SlotPlan{.mode = mode});
        echo_round(*lease, mode);
      }
    });
  }
  for (auto& w : workers) w.join();
}

// Runs `solve` on a view over a fresh shared arena, destroys the view (its
// run states park in the arena), and returns the arena for inspection.
std::unique_ptr<SharedNetworkPool> parked_after(
    const std::function<void(NetworkPool*)>& solve) {
  auto shared = std::make_unique<SharedNetworkPool>(1);
  {
    NetworkPool view(*shared);
    solve(&view);
  }
  EXPECT_GT(shared->parked_run_states(), 0u);
  return shared;
}

TEST(PoolFormat, DrainFreeSolversLeaseOnlyTheSinglePlane) {
  Rng rng(31);
  const Graph g = gen::gnp(60, 0.1, rng);
  const LinialResult lin = linial_color(g);
  const std::function<void(NetworkPool*)> solvers[] = {
      [&](NetworkPool* pool) { linial_color(g, nullptr, {}, 0, 1, pool); },
      [&](NetworkPool* pool) {
        defective_4_coloring(g, lin.colors, lin.palette, 0.5, nullptr, 1,
                             pool);
      },
      [&](NetworkPool* pool) { edge_color_fast_2delta(g, nullptr, 1, pool); },
  };
  for (std::size_t i = 0; i < std::size(solvers); ++i) {
    const auto shared = parked_after(solvers[i]);
    EXPECT_EQ(shared->adopt_network(nullptr, PlaneMode::kDouble), nullptr)
        << "solver " << i;
    EXPECT_EQ(shared->adopt_dinetwork(nullptr, PlaneMode::kDouble), nullptr)
        << "solver " << i;
    EXPECT_NE(shared->adopt_network(nullptr, PlaneMode::kSingle), nullptr)
        << "solver " << i;
  }
}

TEST(PoolFormat, DrainingSolversLeaseOnlyTheDoublePlane) {
  Rng rng(32);
  const Graph support = gen::gnp(40, 0.15, rng);
  std::vector<std::pair<NodeId, NodeId>> arcs;
  for (EdgeId e = 0; e < support.num_edges(); ++e) {
    arcs.push_back(support.endpoints(e));
  }
  const Digraph game(support.num_nodes(), std::move(arcs));
  TokenDroppingParams tp;
  tp.k = 6;
  const std::vector<int> init(static_cast<std::size_t>(game.num_nodes()), 3);
  const auto games = parked_after([&](NetworkPool* pool) {
    run_token_dropping(game, init, tp, nullptr, 1, pool);
  });
  EXPECT_EQ(games->adopt_dinetwork(nullptr, PlaneMode::kSingle), nullptr);
  EXPECT_EQ(games->adopt_network(nullptr, PlaneMode::kSingle), nullptr);
  EXPECT_NE(games->adopt_dinetwork(nullptr, PlaneMode::kDouble), nullptr);

  const auto bg = gen::regular_bipartite(24, 6);
  const std::vector<double> eta(
      static_cast<std::size_t>(bg.graph.num_edges()), 0.0);
  const auto orientation = parked_after([&](NetworkPool* pool) {
    balanced_orientation(bg.graph, bg.parts, eta, OrientationParams{},
                         nullptr, 1, pool);
  });
  EXPECT_EQ(orientation->adopt_network(nullptr, PlaneMode::kSingle), nullptr);
  EXPECT_EQ(orientation->adopt_dinetwork(nullptr, PlaneMode::kSingle),
            nullptr);
  EXPECT_NE(orientation->adopt_network(nullptr, PlaneMode::kDouble), nullptr);
  EXPECT_NE(orientation->adopt_dinetwork(nullptr, PlaneMode::kDouble),
            nullptr);
}

}  // namespace
}  // namespace dec
