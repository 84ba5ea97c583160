// Pool run-state identity: a run state's only identity is the plan it was
// last bound to, and that only steers preference. Every parked or idle
// state can serve every lease — the declared width is re-bound per lease —
// so the arena never constructs a second state where one is free. Pinned
// directly on SharedNetworkPool's park/adopt for both network kinds,
// through the NetworkPool view (idle-slot reuse across widths and across
// views), and under a multi-threaded same-shape lease/park/adopt stress
// that TSan checks for races on the adopt scan.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "graph/generators.hpp"
#include "sim/dinetwork.hpp"
#include "sim/network.hpp"
#include "sim/pool.hpp"
#include "sim/shared_pool.hpp"
#include "sim/topology.hpp"

namespace dec {
namespace {

// Two rounds on a leased network, verifying it delivers correctly (the
// second round's inbox reads the first round's sends).
void echo_round(SyncNetwork& net) {
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

TEST(PoolFormat, SharedParkAdoptReturnsTheParkedState) {
  SharedNetworkPool shared(1);
  const Graph g = gen::cycle(8);
  const auto topo = shared.topology(g);
  auto net = std::make_unique<SyncNetwork>(g, topo, nullptr, "s",
                                           SlotPlan{.max_fields = 3});
  SyncNetwork* raw = net.get();
  shared.park(std::move(net));
  EXPECT_EQ(shared.parked_run_states(), 1u);
  auto adopted = shared.adopt_network(topo.get());
  ASSERT_NE(adopted, nullptr);
  EXPECT_EQ(adopted.get(), raw);
  EXPECT_EQ(shared.parked_run_states(), 0u);
  EXPECT_EQ(shared.adopt_network(topo.get()), nullptr);
  // A lease of another width re-binds the adopted state in place.
  adopted->rebind(g, topo, nullptr, "s1", SlotPlan{});
  EXPECT_EQ(adopted->declared_fields(), 1);
  echo_round(*adopted);
}

TEST(PoolFormat, SharedParkAdoptReturnsTheParkedDiNetwork) {
  SharedNetworkPool shared(1);
  const Digraph dg(4, {{0, 1}, {1, 2}, {2, 3}, {3, 0}});
  const auto topo = shared.topology(dg);
  auto di = std::make_unique<DiNetwork>(dg, topo, nullptr, "sd",
                                        SlotPlan{.max_fields = 2});
  DiNetwork* raw = di.get();
  shared.park(std::move(di));
  auto adopted = shared.adopt_dinetwork(topo.get());
  ASSERT_NE(adopted, nullptr);
  EXPECT_EQ(adopted.get(), raw);
  EXPECT_EQ(shared.adopt_dinetwork(topo.get()), nullptr);
  // Network and dinetwork states park in separate lists.
  EXPECT_EQ(shared.adopt_network(nullptr), nullptr);
}

TEST(PoolFormat, ViewReusesOneRunStateAcrossWidths) {
  // One view, one graph: a released state serves the next lease whatever
  // width it declares, so the view never grows a second state.
  NetworkPool pool(1);
  const Graph g = gen::grid(4, 5);
  {
    auto lease = pool.network(g, nullptr, "a", SlotPlan{.max_fields = 3});
    EXPECT_EQ(lease->declared_fields(), 3);
    echo_round(*lease);
  }
  {
    auto lease = pool.network(g, nullptr, "b");
    EXPECT_EQ(lease->declared_fields(), 1);
    echo_round(*lease);
  }
  EXPECT_EQ(pool.run_states(), 1u);
  {
    // Two leases at once need two states; both keep working.
    auto first = pool.network(g, nullptr, "c");
    auto second = pool.network(g, nullptr, "d", SlotPlan{.max_fields = 2});
    echo_round(*first);
    echo_round(*second);
  }
  EXPECT_EQ(pool.run_states(), 2u);
}

TEST(PoolFormat, CrossViewLeaseAdoptsTheParkedState) {
  // View 1 parks its state on destruction; view 2 adopts it instead of
  // constructing, whatever width it declares.
  SharedNetworkPool shared(1);
  const Graph g = gen::star(12);
  {
    NetworkPool view(shared);
    auto lease = view.network(g, nullptr, "s", SlotPlan{.max_fields = 2});
    echo_round(*lease);
  }
  EXPECT_EQ(shared.parked_run_states(), 1u);
  {
    NetworkPool view(shared);
    auto lease = view.network(g, nullptr, "d");
    echo_round(*lease);
    EXPECT_EQ(view.run_states(), 1u);
    EXPECT_EQ(shared.parked_run_states(), 0u);  // adopted, not constructed
  }
  EXPECT_EQ(shared.parked_run_states(), 1u);
}

TEST(PoolFormat, ConcurrentSameShapeLeaseStress) {
  // Tenants on their own threads lease the same two shapes, at varying
  // widths, over one shared arena, so adopt scans race with parks on the
  // same home shard. TSan watches the arena; the asserts watch delivery.
  SharedNetworkPool shared(1);
  constexpr int kThreads = 4;
  constexpr int kIters = 40;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&shared, t] {
      for (int i = 0; i < kIters; ++i) {
        NetworkPool view(shared);
        const Graph g = i % 2 == 0 ? gen::cycle(16) : gen::grid(3, 4);
        auto lease = view.network(g, nullptr, "stress",
                                  SlotPlan{.max_fields = 1 + (i + t) % 3});
        echo_round(*lease);
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_LE(shared.cached_topologies(), 2u);
}

}  // namespace
}  // namespace dec
