// Single-vs-double plane bit-identity and safety at the substrate level:
// PlaneMode::kSingle is a pure storage choice for drain-free protocols —
// one buffer plane, parity-alternating slot ownership instead of a swap.
// A multi-round echo of silent, single-field and spilled payloads must
// deliver the same log under both modes — fresh and pooled, serial and
// 2/4-shard, across random/grid/star families. The solvers that always run
// on the single plane (Linial, defective precolor + refine) are pinned to
// recorded golden results by tests/test_narrow_equivalence.cpp.
// The mode's safety rails are pinned too: drain on a single plane throws an
// actionable error, a write-before-read hazard throws instead of returning
// the node's own message, an aborted round poisons the state until reset(),
// and memory_bytes counts exactly the planes that exist. Pool adoption
// never crossing plane modes, and which mode each solver leases, are
// pinned by tests/test_pool_format.cpp.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "graph/generators.hpp"
#include "sim/dinetwork.hpp"
#include "sim/network.hpp"
#include "sim/pool.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace dec {
namespace {

Graph family_graph(int family, int seed, Rng& rng) {
  switch (family) {
    case 0: return gen::gnp(40 + seed, 0.12, rng);
    case 1: return gen::grid(4 + seed % 4, 5 + seed % 5);
    default: return gen::star(20 + 2 * seed);
  }
}

// Multi-round delivery log at the network level: round r sends a
// deterministic mix of silent, single-field, and spilled payloads per edge,
// and round r+1 records a hash of every inbox entry at its slot index. Any
// divergence between plane modes — ordering, spill resolution, epoch
// staleness — shows up as a differing log. Reads strictly precede writes in
// the program, so it is single-plane safe; an odd round count ends on the
// swapped parity.
std::vector<std::uint64_t> echo_log(const Graph& g, SlotPlan plan, int rounds,
                                    int num_threads, NetworkPool* pool) {
  ScopedNetwork scope(pool, g, nullptr, "echo", num_threads, nullptr, plan);
  SyncNetwork& net = *scope;
  const std::size_t ns = net.num_slots();
  std::vector<std::uint64_t> log(static_cast<std::size_t>(rounds) * ns, 0);
  for (int r = 0; r < rounds; ++r) {
    net.round_fast([&, r](NodeId v, const auto& in, auto&& out) {
      if (r > 0) {
        for (std::size_t i = 0; i < in.size(); ++i) {
          const auto& m = in[i];
          // Unsigned: the hash wraps by design.
          std::uint64_t acc = 1234567;
          for (const std::int64_t f : m.fields()) {
            acc = acc * 31 + static_cast<std::uint64_t>(f);
          }
          log[static_cast<std::size_t>(r - 1) * ns + net.slot(v, i)] = acc;
        }
      }
      for (std::size_t i = 0; i < out.size(); ++i) {
        const auto kind = (static_cast<std::size_t>(v) + 3 * i +
                           static_cast<std::size_t>(r)) %
                          4;
        if (kind == 0) continue;  // silent edge: stale-epoch read next round
        auto&& m = out[i];
        const auto vv = static_cast<std::int64_t>(v);
        const auto ii = static_cast<std::int64_t>(i);
        if (kind == 1) {
          m.assign({vv * 1000 + r});
        } else {
          m.assign({vv, r, ii});  // spill (count >= 2 hits the slab)
        }
      }
    });
  }
  return log;
}

void expect_echo_equivalence(SlotPlan double_plan, SlotPlan single_plan) {
  NetworkPool pools[] = {NetworkPool(1), NetworkPool(2), NetworkPool(4)};
  const int threads[] = {1, 2, 4};
  for (int family = 0; family < 3; ++family) {
    for (int seed = 0; seed < 4; ++seed) {
      Rng rng(9000 + 100 * family + static_cast<std::uint64_t>(seed));
      const Graph g = family_graph(family, seed, rng);
      const std::vector<std::uint64_t> baseline =
          echo_log(g, double_plan, 7, 1, nullptr);
      EXPECT_EQ(baseline, echo_log(g, single_plan, 7, 1, nullptr))
          << "fresh serial, family " << family << " seed " << seed;
      for (int ti = 0; ti < 3; ++ti) {
        EXPECT_EQ(baseline, echo_log(g, single_plan, 7, threads[ti],
                                     &pools[ti]))
            << "pooled, family " << family << " seed " << seed << " threads "
            << threads[ti];
        // Pooled double too: both modes coexist in one arena without ever
        // adopting each other's run states.
        EXPECT_EQ(baseline, echo_log(g, double_plan, 7, threads[ti],
                                     &pools[ti]));
      }
    }
  }
}

TEST(SinglePlane, EchoEquivalence) {
  expect_echo_equivalence(
      SlotPlan{.max_fields = 3},
      SlotPlan{.max_fields = 3, .mode = PlaneMode::kSingle});
}

TEST(SinglePlane, DrainThrowsActionable) {
  const Graph g = gen::cycle(8);
  SyncNetwork net(g, nullptr, "echo", 1,
                  SlotPlan{.max_fields = 1, .mode = PlaneMode::kSingle});
  net.round_fast([](NodeId v, const auto&, auto&& out) {
    for (auto&& m : out) m.assign({static_cast<std::int64_t>(v)});
  });
  try {
    net.drain_fast([](NodeId, const auto&) {});
    FAIL() << "drain on a single-plane lease must throw";
  } catch (const CheckError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("drain on a single-plane lease"), std::string::npos)
        << msg;
    EXPECT_NE(msg.find("component 'echo'"), std::string::npos) << msg;
    EXPECT_NE(msg.find("after round 1"), std::string::npos) << msg;
    EXPECT_NE(msg.find("PlaneMode::kDouble"), std::string::npos) << msg;
  }
}

TEST(SinglePlane, DrainThrowsOnDiNetwork) {
  const Digraph dg(4, {{0, 1}, {1, 2}, {2, 3}, {3, 0}});
  DiNetwork din(dg, nullptr, "game", 1,
                SlotPlan{.max_fields = 1, .mode = PlaneMode::kSingle});
  EXPECT_EQ(din.plane_mode(), PlaneMode::kSingle);
  din.round_fast([](NodeId, const auto&, auto&& out) {
    out.along(0, {7});
  });
  try {
    din.drain_fast([](NodeId, const auto&) {});
    FAIL() << "arc drain on a single-plane lease must throw";
  } catch (const CheckError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("drain on a single-plane lease"), std::string::npos)
        << msg;
    EXPECT_NE(msg.find("PlaneMode::kDouble"), std::string::npos) << msg;
  }
}

TEST(SinglePlane, WriteBeforeReadHazardThrows) {
  const Graph g = gen::cycle(8);
  SyncNetwork net(g, nullptr, "echo", 1,
                  SlotPlan{.max_fields = 1, .mode = PlaneMode::kSingle});
  try {
    net.round_fast([](NodeId, const auto& in, auto&& out) {
      out[0].assign({1});  // write the slot that backs inbox entry 0...
      (void)in[0].empty();  // ...then read it: the hazard
    });
    FAIL() << "single-plane write-before-read must throw";
  } catch (const CheckError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("read-after-write hazard"), std::string::npos)
        << msg;
    EXPECT_NE(msg.find("component 'echo'"), std::string::npos) << msg;
  }
}

TEST(SinglePlane, AbortPoisonsUntilReset) {
  const Graph g = gen::cycle(8);
  SyncNetwork net(g, nullptr, "poisoned", 1,
                  SlotPlan{.max_fields = 1, .mode = PlaneMode::kSingle});
  // A clean first round, so the abort below lands mid-protocol.
  net.round_fast([](NodeId v, const auto&, auto&& out) {
    for (auto&& m : out) m.assign({static_cast<std::int64_t>(v)});
  });
  struct Boom {};
  EXPECT_THROW(net.round_fast([](NodeId v, const auto& in, auto&& out) {
                 for (std::size_t i = 0; i < in.size(); ++i) {
                   (void)in[i].empty();
                 }
                 out[0].assign({1});  // touch a slot before failing
                 if (v == 2) throw Boom{};
               }),
               Boom);
  // The abort overwrote round 1's deliveries in place; the state must refuse
  // further rounds loudly instead of delivering corrupt messages.
  try {
    net.round_fast([](NodeId, const auto&, auto&&) {});
    FAIL() << "a poisoned single-plane network must refuse the next round";
  } catch (const CheckError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("poisoned single-plane network"), std::string::npos)
        << msg;
    EXPECT_NE(msg.find("component 'poisoned'"), std::string::npos) << msg;
    EXPECT_NE(msg.find("reset()"), std::string::npos) << msg;
  }
  // reset() is the documented recovery: one bump, fully reusable state.
  net.reset();
  EXPECT_EQ(net.rounds_executed(), 0);
  net.round_fast([](NodeId v, const auto&, auto&& out) {
    for (auto&& m : out) m.assign({static_cast<std::int64_t>(v)});
  });
  net.round_fast([&](NodeId v, const auto& in, auto&& out) {
    const auto nb = g.neighbors(v);
    for (std::size_t i = 0; i < in.size(); ++i) {
      EXPECT_FALSE(in[i].empty());
      EXPECT_EQ(in[i].at(0), static_cast<std::int64_t>(nb[i].neighbor));
    }
    (void)out;
  });
}

TEST(SinglePlane, MemoryBytesCountsExactlyOnePlane) {
  Rng rng(42);
  const Graph g = gen::gnp(200, 0.05, rng);
  const SyncNetwork two(g, nullptr, "d", 1, SlotPlan{});
  const SyncNetwork one(g, nullptr, "s", 1,
                        SlotPlan{.mode = PlaneMode::kSingle});
  // The plane pair dominates a fresh run state, so dropping one plane must
  // show up as (well over) a 25% cut, not just "somewhat smaller".
  EXPECT_LE(one.memory_bytes() * 4, two.memory_bytes() * 3);
  EXPECT_GT(one.memory_bytes(), 0u);
}

}  // namespace
}  // namespace dec
