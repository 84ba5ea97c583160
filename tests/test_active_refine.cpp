// Defective refine on active-set rounds (SyncNetwork::round_fast(prog,
// wake)): only the woken nodes and last round's receivers are visited, and
// that must change nothing observable.
//
//  * Contract check (builds with DEC_FAULT_INJECTION): the same solve with
//    fault::set_full_visit_check on — every active round visits every node
//    and throws if one outside the visit set writes its outbox — must match
//    the active solve in colors, audited rounds, ledger breakdown, message
//    count and widths. 20 seeds × 3 families × 1/2/4 shards.
//  * Golden fixture: colors digest, rounds and messages of
//    defective_4_coloring on three fixed random_regular instances, recorded
//    from the full-visit engine before refine adopted active rounds.
#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <tuple>
#include <vector>

#include "coloring/defective.hpp"
#include "coloring/linial.hpp"
#include "graph/generators.hpp"
#include "sim/network.hpp"
#include "sim/pool.hpp"
#include "testing/fault_injection.hpp"

namespace dec {
namespace {

auto result_key(const DefectiveResult& r) {
  return std::tuple(r.colors, r.palette, r.rounds, r.messages,
                    r.max_message_bits, r.max_defect, r.sweeps, r.converged);
}

// Turns the full-visit check on for one scope.
struct FullVisitScope {
  FullVisitScope() { fault::set_full_visit_check(true); }
  ~FullVisitScope() { fault::set_full_visit_check(false); }
};

Graph family_graph(int family, std::uint64_t seed) {
  Rng rng(seed);
  switch (family) {
    case 0:
      return gen::random_regular(200, 10, rng);
    case 1:
      return gen::gnp(200, 0.06, rng);
    default:
      return gen::power_law(200, 2.5, 8.0, rng);
  }
}

TEST(ActiveRefine, MatchesFullVisitAcrossFamiliesAndShards) {
  if (!fault::kFullVisitCheckCompiled) {
    GTEST_SKIP() << "the full-visit contract check needs a "
                    "DEC_FAULT_INJECTION build";
  }
  // One arena per shard count: run states and worker threads are reused
  // across the 180 solves instead of respawned per solve.
  NetworkPool pools[] = {NetworkPool(1), NetworkPool(2), NetworkPool(4)};
  int compared = 0;
  for (int family = 0; family < 3; ++family) {
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
      const Graph g = family_graph(family, seed);
      if (g.max_degree() < 2) continue;
      const LinialResult lin = linial_color(g);
      for (int ti = 0; ti < 3; ++ti) {
        const int threads = 1 << ti;
        RoundLedger active_ledger, full_ledger;
        const DefectiveResult active =
            defective_4_coloring(g, lin.colors, lin.palette, 0.5,
                                 &active_ledger, threads, &pools[ti]);
        DefectiveResult full;
        {
          FullVisitScope check;
          full = defective_4_coloring(g, lin.colors, lin.palette, 0.5,
                                      &full_ledger, threads, &pools[ti]);
        }
        EXPECT_EQ(result_key(active), result_key(full))
            << "family " << family << " seed " << seed << " threads "
            << threads;
        EXPECT_EQ(active_ledger.breakdown(), full_ledger.breakdown());
        ++compared;
      }
    }
  }
  EXPECT_GE(compared, 150);
}

TEST(ActiveRefine, FullVisitCheckCatchesASkippedWriter) {
  if (!fault::kFullVisitCheckCompiled) {
    GTEST_SKIP() << "the full-visit contract check needs a "
                    "DEC_FAULT_INJECTION build";
  }
  const Graph g = gen::cycle(12);
  const std::vector<NodeId> wake = {3};
  // Node 7 writes without being woken and without mail: an active round
  // skips it silently, the check names it.
  const auto prog = [](NodeId v, const auto&, auto&& out) {
    if (v == 3 || v == 7) out[0].assign({v});
  };
  for (const int threads : {1, 4}) {
    SyncNetwork plain(g, nullptr, "active", threads);
    plain.round_fast(prog, wake);
    EXPECT_EQ(plain.audit().messages_sent(), 1);

    SyncNetwork checked(g, nullptr, "active", threads);
    FullVisitScope check;
    EXPECT_THROW(checked.round_fast(prog, wake), CheckError);
    EXPECT_EQ(checked.rounds_executed(), 0);
  }
}

std::uint64_t colors_digest(const std::vector<Color>& colors) {
  std::uint64_t h = 1469598103934665603ull;  // FNV-1a
  for (const Color c : colors) {
    h ^= static_cast<std::uint32_t>(c);
    h *= 1099511628211ull;
  }
  return h;
}

TEST(ActiveRefine, GoldenFixtureMatchesTheFullVisitEngine) {
  struct Golden {
    NodeId n;
    int degree;
    std::uint64_t seed;
    double eps;
    std::uint64_t digest;
    std::int64_t rounds;
    std::int64_t messages;
  };
  const Golden cases[] = {
      {2000, 16, 101, 0.10, 0x2f8547e30cb1cabdull, 8215, 67520},
      {3000, 12, 102, 0.10, 0xdc509be785e6ab50ull, 5047, 74184},
      {1000, 32, 105, 0.05, 0x0935c837cf720367ull, 10953, 72064},
  };
  for (const Golden& c : cases) {
    Rng rng(c.seed);
    const Graph g = gen::random_regular(c.n, c.degree, rng);
    const LinialResult lin = linial_color(g);
    for (const int threads : {1, 4}) {
      RoundLedger ledger;
      const DefectiveResult r = defective_4_coloring(
          g, lin.colors, lin.palette, c.eps, &ledger, threads);
      EXPECT_EQ(colors_digest(r.colors), c.digest)
          << "n " << c.n << " threads " << threads;
      EXPECT_EQ(r.rounds, c.rounds) << "n " << c.n << " threads " << threads;
      EXPECT_EQ(r.messages, c.messages)
          << "n " << c.n << " threads " << threads;
      EXPECT_EQ(ledger.total(), c.rounds);
    }
  }
}

}  // namespace
}  // namespace dec
