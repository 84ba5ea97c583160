// Pool run-state identity: a run state's only identity is the plan it was
// last bound to, and that only steers preference. Every idle state of a
// view can serve every lease of that view — the declared width is re-bound
// per lease — so a view never constructs a second state where one of its
// own is free. Plans are shared across views, run states are not: each
// view builds its own. Pinned through the NetworkPool view (idle-slot
// reuse across widths, plan sharing across views) and under a
// multi-threaded same-shape lease stress that TSan checks for races on the
// shared plan cache.
#include <gtest/gtest.h>

#include <cstdint>
#include <thread>
#include <vector>

#include "graph/generators.hpp"
#include "sim/network.hpp"
#include "sim/pool.hpp"
#include "sim/shared_pool.hpp"

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

TEST(PoolFormat, CrossViewLeaseSharesThePlanNotTheState) {
  // View 2 reuses the plan view 1 built, but builds its own run state (at
  // whatever width it declares) while view 1 still holds its idle one.
  SharedNetworkPool shared(1);
  const Graph g = gen::star(12);
  NetworkPool first(shared);
  {
    auto lease = first.network(g, nullptr, "s", SlotPlan{.max_fields = 2});
    echo_round(*lease);
  }
  NetworkPool second(shared);
  {
    auto lease = second.network(g, nullptr, "d");
    EXPECT_EQ(lease->declared_fields(), 1);
    echo_round(*lease);
  }
  EXPECT_EQ(first.run_states(), 1u);
  EXPECT_EQ(second.run_states(), 1u);
  EXPECT_EQ(shared.topology_misses(), 1);
  EXPECT_EQ(shared.topology_hits(), 1);
}

TEST(PoolFormat, ConcurrentSameShapeLeaseStress) {
  // Tenants on their own threads lease the same two shapes, at varying
  // widths, over one shared arena, so first lookups of a shape race with
  // repeat ones in the same cache shard while every view builds and frees
  // its own run states. TSan watches the arena; the asserts watch delivery.
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
