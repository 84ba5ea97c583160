// The single message plane at the substrate level: one buffer plane whose
// slot ownership alternates with round parity. A multi-round echo of
// silent, single-field and spilled payloads must deliver exactly the log
// recorded from the deleted two-plane swap delivery — fresh and pooled,
// serial and 2/4-shard, across random/grid/star families. All five solvers
// are pinned to recorded golden results by
// tests/test_narrow_equivalence.cpp. The plane's safety rails are pinned
// too: a write-before-read hazard throws instead of returning the node's
// own message, an aborted round that wrote poisons the state until
// reset(), and memory_bytes counts the one plane.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "golden_digest.hpp"
#include "graph/generators.hpp"
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
// divergence from the recorded log — ordering, spill resolution, epoch
// staleness — shows up as a differing digest. Reads strictly precede writes in
// the program; an odd round count ends on the odd parity.
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

// FNV-1a over the log, byte by byte.
std::uint64_t log_digest(const std::vector<std::uint64_t>& log) {
  Fnv f;
  f.add_all(log);
  return f.h;
}

// {family, seed, log length, digest}: echo_log over 7 rounds with declared
// width 3, recorded from the former two-plane swap delivery (fresh, serial)
// before it was deleted.
struct EchoGolden {
  int family, seed;
  std::size_t size;
  std::uint64_t digest;
};
constexpr EchoGolden kEchoGolden[] = {
    {0, 0, 1526, 15887343483953123126ull},
    {0, 1, 1330, 13315001816446512053ull},
    {0, 2, 1484, 11254305360808010895ull},
    {0, 3, 1736, 2399003147767971929ull},
    {1, 0, 434, 7591463450646881333ull},
    {1, 1, 686, 11506342364108838773ull},
    {1, 2, 994, 13256759843259564521ull},
    {1, 3, 1358, 15099795086600832927ull},
    {2, 0, 280, 7572081998815837329ull},
    {2, 1, 308, 6310200363193047189ull},
    {2, 2, 336, 4531958800156419286ull},
    {2, 3, 364, 17217691166341108324ull},
};

TEST(SinglePlane, EchoMatchesRecordedTwoPlaneLog) {
  const SlotPlan plan{.max_fields = 3};
  NetworkPool pools[] = {NetworkPool(1), NetworkPool(2), NetworkPool(4)};
  const int threads[] = {1, 2, 4};
  for (const EchoGolden& want : kEchoGolden) {
    Rng rng(9000 + 100 * static_cast<std::uint64_t>(want.family) +
            static_cast<std::uint64_t>(want.seed));
    const Graph g = family_graph(want.family, want.seed, rng);
    const std::vector<std::uint64_t> fresh = echo_log(g, plan, 7, 1, nullptr);
    EXPECT_EQ(fresh.size(), want.size)
        << "family " << want.family << " seed " << want.seed;
    EXPECT_EQ(log_digest(fresh), want.digest)
        << "fresh serial, family " << want.family << " seed " << want.seed;
    for (int ti = 0; ti < 3; ++ti) {
      // Twice per pool: the second lease reuses the first's run state.
      for (int rep = 0; rep < 2; ++rep) {
        EXPECT_EQ(fresh, echo_log(g, plan, 7, threads[ti], &pools[ti]))
            << "pooled, family " << want.family << " seed " << want.seed
            << " threads " << threads[ti];
      }
    }
  }
}

TEST(SinglePlane, WriteBeforeReadHazardThrows) {
  const Graph g = gen::cycle(8);
  SyncNetwork net(g, nullptr, "echo", 1,
                  SlotPlan{.max_fields = 1});
  try {
    net.round_fast([](NodeId, const auto& in, auto&& out) {
      out[0].assign({1});  // write the slot that backs inbox entry 0...
      (void)in[0].empty();  // ...then read it: the hazard
    });
    FAIL() << "write-before-read must throw";
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
                  SlotPlan{.max_fields = 1});
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
    FAIL() << "a poisoned network must refuse the next round";
  } catch (const CheckError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("poisoned network"), std::string::npos)
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
  const SyncNetwork net(g, nullptr, "s", 1, SlotPlan{});
  // The plane dominates a fresh run state: it is counted once, and the
  // rest (tags, shard tables, empty slabs) stays below a second plane.
  const std::size_t plane = net.num_slots() * sizeof(NarrowSlot);
  EXPECT_GE(net.memory_bytes(), plane);
  EXPECT_LT(net.memory_bytes(), 2 * plane);
}

}  // namespace
}  // namespace dec
