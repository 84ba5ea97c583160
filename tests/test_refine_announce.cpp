// Regression pin for defective_refine's dirty-flag announce: re-broadcasting
// only changed colors must not change the algorithm — the final coloring,
// audited rounds and ledger equal those of the full re-broadcast, recorded
// below from the former full re-broadcast path (serial and 2/4 shards) —
// while the substrate message count stays under half of the full
// re-broadcast's on instances where most colors stabilize early (the normal
// case: a class-step only moves an independent set of over-threshold
// nodes).
#include <gtest/gtest.h>

#include <cstdint>

#include "golden_digest.hpp"
#include "coloring/defective.hpp"
#include "coloring/linial.hpp"
#include "graph/generators.hpp"

namespace dec {
namespace {

struct Recorded {
  std::uint64_t out;        // out_digest of the final coloring
  std::int64_t rounds;      // audited rounds (= the ledger's refine line)
  int max_bits;
  std::int64_t full_messages;   // full re-broadcast
  std::int64_t dirty_messages;  // dirty-flagged announce
};

void expect_matches_full_rebroadcast(const Graph& g, int threshold,
                                     const Recorded& want) {
  const LinialResult lin = linial_color(g);
  for (const int threads : {1, 2, 4}) {
    RoundLedger ledger;
    const DefectiveResult dirty = defective_refine(
        g, lin.colors, lin.palette, 4, threshold, 256, &ledger, threads);
    EXPECT_EQ(out_digest(dirty), want.out) << "threads " << threads;
    EXPECT_EQ(dirty.rounds, want.rounds) << "threads " << threads;
    EXPECT_EQ(ledger.component("defective_refine"), want.rounds);
    EXPECT_EQ(dirty.max_message_bits, want.max_bits);
    EXPECT_EQ(dirty.messages, want.dirty_messages) << "threads " << threads;
    // After the first announce round only movers re-broadcast. Most nodes
    // never move, so the drop is large — assert a conservative 2x.
    EXPECT_LT(2 * dirty.messages, want.full_messages);
  }
}

TEST(RefineDirtyAnnounce, MatchesRecordedFullRebroadcastOnRegular) {
  Rng rng(55);
  const Graph g = gen::random_regular(200, 8, rng);
  expect_matches_full_rebroadcast(
      g, g.max_degree() / 4 + 2,
      {0xd9f2e4a580b85be9ull, 800, 3, 640032, 1664});
}

TEST(RefineDirtyAnnounce, MatchesRecordedFullRebroadcastOnGnp) {
  Rng rng(56);
  const Graph g = gen::gnp(120, 0.08, rng);
  expect_matches_full_rebroadcast(
      g, g.max_degree() / 4 + 1,
      {0x84e4405330d91538ull, 480, 3, 284237, 1338});
}

}  // namespace
}  // namespace dec
