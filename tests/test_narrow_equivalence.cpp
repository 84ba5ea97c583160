// Golden fixtures for every solver's message-passing run: Linial,
// defective precolor + refine, token dropping, and balanced orientation
// with its embedded games must reproduce, exactly, the outputs, audited
// rounds, message widths/counts and full ledger breakdowns recorded from
// the former 64 B slot plane — fresh and pooled, serial and 2/4-shard,
// across random/grid/star families with 20 seeds each. The 16 B slot is a
// pure storage choice; any divergence here is a substrate bug, not a
// tolerance. The many-parallel-arc games pin that the slot's saturated
// count carries framed lane payloads wider than 254 fields: they used to
// need the 64 B plane and must match its recorded results.
#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "golden_digest.hpp"
#include "coloring/defective.hpp"
#include "coloring/linial.hpp"
#include "core/balanced_orientation.hpp"
#include "core/token_dropping.hpp"
#include "graph/bipartite.hpp"
#include "graph/generators.hpp"
#include "sim/ledger.hpp"
#include "sim/pool.hpp"
#include "util/rng.hpp"

namespace dec {
namespace {

// One recorded run. `messages` is -1 for results that do not report a
// message count.
struct Golden {
  int family;
  int seed;
  std::uint64_t out;
  std::int64_t rounds;
  int max_bits;
  std::int64_t messages;
  std::uint64_t ledger;
};

template <class R>
std::int64_t messages_of(const R& r) {
  if constexpr (requires { r.messages; }) {
    return r.messages;
  } else {
    return -1;
  }
}

template <class R>
void expect_golden(const Golden& want, const R& got, const RoundLedger& l,
                   const char* where) {
  EXPECT_EQ(out_digest(got), want.out)
      << where << " family " << want.family << " seed " << want.seed;
  EXPECT_EQ(got.rounds, want.rounds) << where << " seed " << want.seed;
  EXPECT_EQ(got.max_message_bits, want.max_bits)
      << where << " seed " << want.seed;
  EXPECT_EQ(messages_of(got), want.messages)
      << where << " seed " << want.seed;
  EXPECT_EQ(ledger_digest(l), want.ledger) << where << " seed " << want.seed;
}

// Runs `solve(ledger, threads, pool)` fresh-serial and pooled on 1/2/4
// shards against one recorded row.
template <class Solve>
void expect_all_engines(const Golden& want, NetworkPool* pools,
                        Solve&& solve) {
  RoundLedger fresh_ledger;
  expect_golden(want, solve(&fresh_ledger, 1, nullptr), fresh_ledger,
                "fresh");
  const int threads[] = {1, 2, 4};
  for (int ti = 0; ti < 3; ++ti) {
    RoundLedger ledger;
    expect_golden(want, solve(&ledger, threads[ti], &pools[ti]), ledger,
                  threads[ti] == 1   ? "pooled 1 shard"
                  : threads[ti] == 2 ? "pooled 2 shards"
                                     : "pooled 4 shards");
  }
}

Graph family_graph(int family, int seed, Rng& rng) {
  switch (family) {
    case 0: return gen::gnp(40 + seed, 0.12, rng);
    case 1: return gen::grid(4 + seed % 4, 5 + seed % 5);
    default: return gen::star(20 + 2 * seed);
  }
}

// {family, seed, outputs digest, rounds, max message bits, messages,
// ledger digest}, recorded from the 64 B slot plane, serial.
constexpr Golden kLinial[] = {
    {0, 0, 0x216a385e07a15f63ull, 1, 7, -1, 0xf3f9ce0e8fac18adull},
    {0, 1, 0xe16c8fa658a4336bull, 1, 7, -1, 0xf3f9ce0e8fac18adull},
    {0, 2, 0xf962edf23d519102ull, 1, 7, -1, 0xf3f9ce0e8fac18adull},
    {0, 3, 0x66f48af2aca8fee8ull, 1, 7, -1, 0xf3f9ce0e8fac18adull},
    {0, 4, 0xfff37f0f1be7e323ull, 1, 7, -1, 0xf3f9ce0e8fac18adull},
    {0, 5, 0xc0f789bb4a80f02full, 1, 7, -1, 0xf3f9ce0e8fac18adull},
    {0, 6, 0x66d913e67e7824c2ull, 1, 7, -1, 0xf3f9ce0e8fac18adull},
    {0, 7, 0x9620757d9fffcbacull, 1, 7, -1, 0xf3f9ce0e8fac18adull},
    {0, 8, 0x7ea1fb3e2ac627e3ull, 1, 7, -1, 0xf3f9ce0e8fac18adull},
    {0, 9, 0x6a774ed7dca78df3ull, 1, 7, -1, 0xf3f9ce0e8fac18adull},
    {0, 10, 0xa620bb37630a7982ull, 1, 7, -1, 0xf3f9ce0e8fac18adull},
    {0, 11, 0x4036598d3af47970ull, 1, 7, -1, 0xf3f9ce0e8fac18adull},
    {0, 12, 0xe04d57bbaf682fa3ull, 1, 7, -1, 0xf3f9ce0e8fac18adull},
    {0, 13, 0x1a1e675f7e584eb7ull, 1, 7, -1, 0xf3f9ce0e8fac18adull},
    {0, 14, 0x3d83fd59d1451142ull, 1, 7, -1, 0xf3f9ce0e8fac18adull},
    {0, 15, 0x9e51d20efee7ca34ull, 1, 7, -1, 0xf3f9ce0e8fac18adull},
    {0, 16, 0x80721fe8ca472c63ull, 1, 7, -1, 0xf3f9ce0e8fac18adull},
    {0, 17, 0x746e128f0da6a47bull, 1, 7, -1, 0xf3f9ce0e8fac18adull},
    {0, 18, 0x39898843c47d9e02ull, 1, 7, -1, 0xf3f9ce0e8fac18adull},
    {0, 19, 0xd55c398d3d59aff8ull, 1, 7, -1, 0xf3f9ce0e8fac18adull},
    {1, 0, 0x07eece75b4875623ull, 1, 6, -1, 0xf3f9ce0e8fac18adull},
    {1, 1, 0x3b25c37a9d1cffc2ull, 1, 6, -1, 0xf3f9ce0e8fac18adull},
    {1, 2, 0xf962edf23d519102ull, 1, 7, -1, 0xf3f9ce0e8fac18adull},
    {1, 3, 0x80721fe8ca472c63ull, 1, 7, -1, 0xf3f9ce0e8fac18adull},
    {1, 4, 0x534d26506d356aa3ull, 1, 7, -1, 0xf3f9ce0e8fac18adull},
    {1, 5, 0x7d0bd1364781a2dbull, 1, 6, -1, 0xf3f9ce0e8fac18adull},
    {1, 6, 0x534d26506d356aa3ull, 1, 7, -1, 0xf3f9ce0e8fac18adull},
    {1, 7, 0x6a774ed7dca78df3ull, 1, 7, -1, 0xf3f9ce0e8fac18adull},
    {1, 8, 0x5a96c9e72dfe6ae3ull, 1, 6, -1, 0xf3f9ce0e8fac18adull},
    {1, 9, 0xc0f789bb4a80f02full, 1, 7, -1, 0xf3f9ce0e8fac18adull},
    {1, 10, 0x3b25c37a9d1cffc2ull, 1, 6, -1, 0xf3f9ce0e8fac18adull},
    {1, 11, 0xf962edf23d519102ull, 1, 7, -1, 0xf3f9ce0e8fac18adull},
    {1, 12, 0x0111581bcc8bfe23ull, 1, 6, -1, 0xf3f9ce0e8fac18adull},
    {1, 13, 0x216a385e07a15f63ull, 1, 7, -1, 0xf3f9ce0e8fac18adull},
    {1, 14, 0x3d83fd59d1451142ull, 1, 7, -1, 0xf3f9ce0e8fac18adull},
    {1, 15, 0xdfb1122673a5d860ull, 1, 7, -1, 0xf3f9ce0e8fac18adull},
    {1, 16, 0x67130b7dc83a72a3ull, 1, 6, -1, 0xf3f9ce0e8fac18adull},
    {1, 17, 0xdfb1122673a5d860ull, 1, 7, -1, 0xf3f9ce0e8fac18adull},
    {1, 18, 0x7ea1fb3e2ac627e3ull, 1, 7, -1, 0xf3f9ce0e8fac18adull},
    {1, 19, 0xe2ef1194dde984bcull, 1, 7, -1, 0xf3f9ce0e8fac18adull},
    {2, 0, 0x7f3555d18455a557ull, 1, 6, -1, 0xf3f9ce0e8fac18adull},
    {2, 1, 0x8cdcccf15e883894ull, 1, 6, -1, 0xf3f9ce0e8fac18adull},
    {2, 2, 0x7d0bd1364781a2dbull, 1, 6, -1, 0xf3f9ce0e8fac18adull},
    {2, 3, 0x24c6783c131db618ull, 1, 6, -1, 0xf3f9ce0e8fac18adull},
    {2, 4, 0x235951eb9a27ef5full, 1, 6, -1, 0xf3f9ce0e8fac18adull},
    {2, 5, 0xcb8e163db18d029cull, 1, 6, -1, 0xf3f9ce0e8fac18adull},
    {2, 6, 0x4cd3dcc0f9652ce3ull, 1, 7, -1, 0xf3f9ce0e8fac18adull},
    {2, 7, 0xdfb1122673a5d860ull, 1, 7, -1, 0xf3f9ce0e8fac18adull},
    {2, 8, 0x8dba7c5f1839e5a7ull, 1, 7, -1, 0xf3f9ce0e8fac18adull},
    {2, 9, 0xb3ad5d444dac2124ull, 1, 7, -1, 0xf3f9ce0e8fac18adull},
    {2, 10, 0xe16c8fa658a4336bull, 1, 7, -1, 0xf3f9ce0e8fac18adull},
    {2, 11, 0x66f48af2aca8fee8ull, 1, 7, -1, 0xf3f9ce0e8fac18adull},
    {2, 12, 0xc0f789bb4a80f02full, 1, 7, -1, 0xf3f9ce0e8fac18adull},
    {2, 13, 0x9620757d9fffcbacull, 1, 7, -1, 0xf3f9ce0e8fac18adull},
    {2, 14, 0x6a774ed7dca78df3ull, 1, 7, -1, 0xf3f9ce0e8fac18adull},
    {2, 15, 0x4036598d3af47970ull, 1, 7, -1, 0xf3f9ce0e8fac18adull},
    {2, 16, 0x1a1e675f7e584eb7ull, 1, 7, -1, 0xf3f9ce0e8fac18adull},
    {2, 17, 0x9e51d20efee7ca34ull, 1, 7, -1, 0xf3f9ce0e8fac18adull},
    {2, 18, 0x746e128f0da6a47bull, 1, 7, -1, 0xf3f9ce0e8fac18adull},
    {2, 19, 0xd55c398d3d59aff8ull, 1, 7, -1, 0xf3f9ce0e8fac18adull},
};

constexpr Golden kDefective[] = {
    {0, 0, 0x2f48f3fabf9611cdull, 243, 7, 280, 0x8c485956bcf03ed9ull},
    {0, 1, 0x004cea7236eb6009ull, 243, 7, 372, 0x8c485956bcf03ed9ull},
    {0, 2, 0xcef50baef6207849ull, 243, 7, 432, 0x8c485956bcf03ed9ull},
    {0, 3, 0x5cefc1e7f3bf966cull, 243, 7, 496, 0x8c485956bcf03ed9ull},
    {0, 4, 0x75276fae71f064adull, 243, 7, 512, 0x8c485956bcf03ed9ull},
    {0, 5, 0xc9f8f38265aa5a8cull, 243, 7, 524, 0x8c485956bcf03ed9ull},
    {0, 6, 0x6069de463edcac6dull, 243, 7, 548, 0x8c485956bcf03ed9ull},
    {0, 7, 0x1716610b781c014eull, 243, 7, 476, 0x8c485956bcf03ed9ull},
    {0, 8, 0x9fed7b1ee16dba53ull, 243, 7, 524, 0x8c485956bcf03ed9ull},
    {0, 9, 0x3646f91dbe8ac072ull, 243, 7, 532, 0x8c485956bcf03ed9ull},
    {0, 10, 0xbcaafdc025a6b073ull, 243, 7, 592, 0x8c485956bcf03ed9ull},
    {0, 11, 0x7d231d76dd8e8733ull, 243, 7, 616, 0x8c485956bcf03ed9ull},
    {0, 12, 0xa28e05aa5098fa54ull, 243, 7, 656, 0x8c485956bcf03ed9ull},
    {0, 13, 0xdb907c07b2a0ff10ull, 485, 7, 636, 0x912a1771fdc386b4ull},
    {0, 14, 0xd04e51a47b8f67d7ull, 243, 7, 656, 0x8c485956bcf03ed9ull},
    {0, 15, 0x069f7c60a7e0f0b7ull, 243, 7, 748, 0x8c485956bcf03ed9ull},
    {0, 16, 0x39b8efc624a52c99ull, 485, 7, 808, 0x912a1771fdc386b4ull},
    {0, 17, 0xc5b352c8128e777aull, 243, 7, 808, 0x8c485956bcf03ed9ull},
    {0, 18, 0xe46564ab6f04cd19ull, 243, 7, 804, 0x8c485956bcf03ed9ull},
    {0, 19, 0x0ff4cb55dc9b56baull, 243, 7, 840, 0x8c485956bcf03ed9ull},
    {1, 0, 0xcd9fa896ade43d51ull, 51, 6, 124, 0xcd969714011db699ull},
    {1, 1, 0x956fbabe0bf697b9ull, 243, 6, 196, 0x8c485956bcf03ed9ull},
    {1, 2, 0x055c731c9455acecull, 243, 7, 284, 0x8c485956bcf03ed9ull},
    {1, 3, 0x0dcf2501555b303dull, 243, 7, 388, 0x8c485956bcf03ed9ull},
    {1, 4, 0x514ff3f2e6185f23ull, 243, 7, 236, 0x8c485956bcf03ed9ull},
    {1, 5, 0x19544822d2559e9dull, 51, 6, 160, 0xcd969714011db699ull},
    {1, 6, 0x514ff3f2e6185f23ull, 243, 7, 240, 0x8c485956bcf03ed9ull},
    {1, 7, 0xdc99bb17f6286dd4ull, 243, 7, 336, 0x8c485956bcf03ed9ull},
    {1, 8, 0x7f9cff1f80e30407ull, 243, 6, 208, 0x8c485956bcf03ed9ull},
    {1, 9, 0x808dec15db85088aull, 243, 7, 304, 0x8c485956bcf03ed9ull},
    {1, 10, 0x956fbabe0bf697b9ull, 243, 6, 196, 0x8c485956bcf03ed9ull},
    {1, 11, 0x52abc5940f2981aeull, 243, 7, 284, 0x8c485956bcf03ed9ull},
    {1, 12, 0x1b8f173052facf98ull, 243, 6, 180, 0x8c485956bcf03ed9ull},
    {1, 13, 0x8e287c19eefbe20eull, 243, 7, 268, 0x8c485956bcf03ed9ull},
    {1, 14, 0x1ce9db35f5b684d0ull, 243, 7, 372, 0x8c485956bcf03ed9ull},
    {1, 15, 0x6b5fce0e86c11f06ull, 243, 7, 232, 0x8c485956bcf03ed9ull},
    {1, 16, 0xb6f2607d7a42841dull, 51, 6, 152, 0xcd969714011db699ull},
    {1, 17, 0x1e107b970bed4a44ull, 243, 7, 232, 0x8c485956bcf03ed9ull},
    {1, 18, 0xb774f418933ae096ull, 243, 7, 328, 0x8c485956bcf03ed9ull},
    {1, 19, 0xbfcd3425e51e36dbull, 243, 7, 440, 0x8c485956bcf03ed9ull},
    {2, 0, 0xcf5d7c4c9a3bbc76ull, 51, 6, 80, 0xcd969714011db699ull},
    {2, 1, 0x1d28ff9423f65075ull, 51, 6, 88, 0xcd969714011db699ull},
    {2, 2, 0xd2c50844b729d678ull, 51, 6, 96, 0xcd969714011db699ull},
    {2, 3, 0x09900f0bb4ae94bbull, 243, 6, 104, 0x8c485956bcf03ed9ull},
    {2, 4, 0x6540279be824aebeull, 243, 6, 112, 0x8c485956bcf03ed9ull},
    {2, 5, 0xdf195d1bdbe2d3dcull, 243, 6, 120, 0x8c485956bcf03ed9ull},
    {2, 6, 0x71185e62c8d99423ull, 243, 7, 128, 0x8c485956bcf03ed9ull},
    {2, 7, 0x91337174bb27fa00ull, 243, 7, 136, 0x8c485956bcf03ed9ull},
    {2, 8, 0x1a0f0bb317019186ull, 243, 7, 144, 0x8c485956bcf03ed9ull},
    {2, 9, 0x0bead7e6ce523225ull, 243, 7, 152, 0x8c485956bcf03ed9ull},
    {2, 10, 0x5ae0ad0a8e1207e5ull, 243, 7, 160, 0x8c485956bcf03ed9ull},
    {2, 11, 0x3727fe79bda79784ull, 243, 7, 168, 0x8c485956bcf03ed9ull},
    {2, 12, 0x0bbd525e6c94ef40ull, 243, 7, 176, 0x8c485956bcf03ed9ull},
    {2, 13, 0x4149d90f45b4b901ull, 243, 7, 184, 0x8c485956bcf03ed9ull},
    {2, 14, 0x676f744f620db9bfull, 243, 7, 192, 0x8c485956bcf03ed9ull},
    {2, 15, 0x7493a21da6a180beull, 243, 7, 200, 0x8c485956bcf03ed9ull},
    {2, 16, 0xf8b295a3505789dcull, 243, 7, 208, 0x8c485956bcf03ed9ull},
    {2, 17, 0x0df84f1ba9c8c3b8ull, 243, 7, 216, 0x8c485956bcf03ed9ull},
    {2, 18, 0x258dd91ad65cf674ull, 243, 7, 224, 0x8c485956bcf03ed9ull},
    {2, 19, 0xb8ab15ad5844fdf0ull, 243, 7, 232, 0x8c485956bcf03ed9ull},
};

constexpr Golden kTokenDropping[] = {
    {0, 0, 0x7d76140008316481ull, 6, 8, -1, 0xe6ca08ff36287898ull},
    {0, 1, 0x9bb2dd81aabce7bdull, 6, 8, -1, 0xe6ca08ff36287898ull},
    {0, 2, 0xd763d5d8b55fe78cull, 6, 8, -1, 0xe6ca08ff36287898ull},
    {0, 3, 0x410eaa74861dba80ull, 6, 12, -1, 0xe6ca08ff36287898ull},
    {0, 4, 0xa1e0001c0dedcd07ull, 6, 8, -1, 0xe6ca08ff36287898ull},
    {0, 5, 0x52cd78012540813eull, 6, 13, -1, 0xe6ca08ff36287898ull},
    {0, 6, 0x069c4a24c532f96aull, 6, 8, -1, 0xe6ca08ff36287898ull},
    {0, 7, 0xeba581a95692326full, 6, 13, -1, 0xe6ca08ff36287898ull},
    {0, 8, 0xc9065e115f5f892cull, 6, 8, -1, 0xe6ca08ff36287898ull},
    {0, 9, 0x158c97aa2482597dull, 6, 13, -1, 0xe6ca08ff36287898ull},
    {0, 10, 0x81a1b3e4187a5766ull, 6, 7, -1, 0xe6ca08ff36287898ull},
    {0, 11, 0xc4dee7e6aa9ac841ull, 6, 13, -1, 0xe6ca08ff36287898ull},
    {0, 12, 0x92ac17065e1a343aull, 6, 8, -1, 0xe6ca08ff36287898ull},
    {0, 13, 0x6ad8046ef9bf7eddull, 6, 13, -1, 0xe6ca08ff36287898ull},
    {0, 14, 0x1ad4702ec261de33ull, 6, 8, -1, 0xe6ca08ff36287898ull},
    {0, 15, 0xc1cf9863f1f76cc7ull, 6, 12, -1, 0xe6ca08ff36287898ull},
    {0, 16, 0xee0a083470c3687aull, 6, 8, -1, 0xe6ca08ff36287898ull},
    {0, 17, 0x85522c094861907eull, 6, 13, -1, 0xe6ca08ff36287898ull},
    {0, 18, 0x3985a9a1537eef4cull, 6, 8, -1, 0xe6ca08ff36287898ull},
    {0, 19, 0x5576584039c17d88ull, 6, 13, -1, 0xe6ca08ff36287898ull},
};

constexpr Golden kOrientation[] = {
    {0, 0, 0xfcc5ea55844449eaull, 35, 7, -1, 0x2ee4637b035c84cbull},
    {0, 1, 0x9e02d70317fc2f3eull, 71, 6, -1, 0x0cc4dc3b155de0efull},
    {0, 2, 0x593077f92b5c39c7ull, 50, 7, -1, 0xf5bd8f664194b635ull},
    {0, 3, 0x3f43fb032d7b6c55ull, 77, 7, -1, 0xd6f915e0a804fba5ull},
    {0, 4, 0x8920e2b35ffda838ull, 35, 6, -1, 0x2ee4637b035c84cbull},
    {0, 5, 0xa12d672ff60b71c5ull, 77, 7, -1, 0xd6f915e0a804fba5ull},
    {0, 6, 0xcb293febfe0233a2ull, 40, 6, -1, 0x3205c241ab84ea73ull},
    {0, 7, 0xe873abec2aab7d6bull, 77, 7, -1, 0xd6f915e0a804fba5ull},
    {0, 8, 0xadf1dad1ee475adaull, 46, 7, -1, 0xebe66c77ed20a739ull},
    {0, 9, 0x45489819ada59311ull, 77, 7, -1, 0xd6f915e0a804fba5ull},
    {0, 10, 0x203e631151d6321dull, 46, 7, -1, 0xebe66c77ed20a739ull},
    {0, 11, 0x89f55b5676be7957ull, 81, 7, -1, 0x4290a29582b6c639ull},
    {0, 12, 0x335acb03c6d57a0dull, 50, 7, -1, 0xf5bd8f664194b635ull},
    {0, 13, 0xa3433a1f54118ff4ull, 85, 7, -1, 0xbe7bbeb9ae73eebdull},
    {0, 14, 0x05618fb3ff4c9763ull, 48, 7, -1, 0x3b585b43ff35f8bbull},
    {0, 15, 0x1f645f8aba3c6e6dull, 81, 7, -1, 0x4290a29582b6c639ull},
    {0, 16, 0xe48125dc43f3b74aull, 56, 7, -1, 0xb7c801542bb621f3ull},
    {0, 17, 0xf28471b02f70a928ull, 99, 7, -1, 0x7032a1384789fc8bull},
    {0, 18, 0x4073605a0f37b872ull, 42, 8, -1, 0x058c94e991dd1371ull},
    {0, 19, 0xd1b4708f73c02db8ull, 89, 7, -1, 0x4aba6a4d2b3c7531ull},
    {1, 0, 0xc37d7324d8974bcbull, 27, 6, -1, 0x4761baa1fced91b3ull},
    {1, 1, 0xdaad2111ce8df882ull, 55, 6, -1, 0x9a7bf02fde0e4f5full},
    {1, 2, 0xd8d76ab982922a5full, 27, 6, -1, 0x4761baa1fced91b3ull},
    {1, 3, 0xd2167388afa95f0bull, 55, 6, -1, 0x9a7bf02fde0e4f5full},
    {1, 4, 0xe440872de10b880eull, 27, 6, -1, 0x4761baa1fced91b3ull},
    {1, 5, 0x0f042c0783881663ull, 55, 6, -1, 0x9a7bf02fde0e4f5full},
    {1, 6, 0x531e5bd6d1e95c38ull, 27, 6, -1, 0x4761baa1fced91b3ull},
    {1, 7, 0x47b7af99eb24e35dull, 55, 6, -1, 0x9a7bf02fde0e4f5full},
    {1, 8, 0xfdd598904270e9d7ull, 27, 6, -1, 0x4761baa1fced91b3ull},
    {1, 9, 0x7183246c33be33f2ull, 55, 6, -1, 0x9a7bf02fde0e4f5full},
    {1, 10, 0x76f88f49c8264402ull, 27, 6, -1, 0x4761baa1fced91b3ull},
    {1, 11, 0xe5dbcdf7220bc807ull, 55, 6, -1, 0x9a7bf02fde0e4f5full},
    {1, 12, 0xa424b180439e6e95ull, 27, 6, -1, 0x4761baa1fced91b3ull},
    {1, 13, 0x693a0728226a661dull, 55, 6, -1, 0x9a7bf02fde0e4f5full},
    {1, 14, 0xafe79f2f5fc3254eull, 27, 6, -1, 0x4761baa1fced91b3ull},
    {1, 15, 0x821bf2a9213cc0b0ull, 55, 6, -1, 0x9a7bf02fde0e4f5full},
    {1, 16, 0x8e2234be8423cfd1ull, 27, 6, -1, 0x4761baa1fced91b3ull},
    {1, 17, 0x14e41b521d33109eull, 55, 6, -1, 0x9a7bf02fde0e4f5full},
    {1, 18, 0x681bb3a083201942ull, 27, 6, -1, 0x4761baa1fced91b3ull},
    {1, 19, 0x39a3cffc38ebd321ull, 55, 6, -1, 0x9a7bf02fde0e4f5full},
    {2, 0, 0x65d95b1ceaf85ea6ull, 55, 8, -1, 0xf29a1f86e6c40222ull},
    {2, 1, 0x4f86f4a29271ab56ull, 66, 8, -1, 0x71def90ddeb16e4aull},
    {2, 2, 0xa09bd60a9c8de1d1ull, 53, 8, -1, 0x8a44530ae8ebe214ull},
    {2, 3, 0x3b5f951ebb01a79dull, 142, 8, -1, 0xfc2878ec3b549e79ull},
    {2, 4, 0xee767315bb43b9acull, 74, 9, -1, 0x8693f14891bc837full},
    {2, 5, 0x3d777e3cf37b31e5ull, 133, 8, -1, 0xe64c686cc7663224ull},
    {2, 6, 0x4713001d09cf9b8eull, 73, 9, -1, 0x3f5ad1c0839c9d64ull},
    {2, 7, 0x4921f067786e92f7ull, 82, 9, -1, 0x7b4fc4dd5e86ca3full},
    {2, 8, 0x8b75398896770eefull, 74, 9, -1, 0xbe63c18fbf1d559full},
    {2, 9, 0xd256d22179836cfbull, 95, 9, -1, 0x74d8d752f799210aull},
    {2, 10, 0xa4d5f317b26ca3daull, 104, 9, -1, 0xb48be47b5b268951ull},
    {2, 11, 0x0abaded39fff44ffull, 94, 9, -1, 0x0fb8382883d4ffabull},
    {2, 12, 0x23af0fc0fd98f5efull, 91, 10, -1, 0x6cfcd063486fd3b6ull},
    {2, 13, 0x0aff197d5b886e50ull, 120, 9, -1, 0x2ea0d48fc375f941ull},
    {2, 14, 0xf1ac134c3b5de794ull, 103, 10, -1, 0x635aa04a54023cc2ull},
    {2, 15, 0xf6919ba5affd3cebull, 126, 10, -1, 0x646c9aea30cede8bull},
    {2, 16, 0x8997fe3b7216797bull, 106, 10, -1, 0xfe4083778aaeaf67ull},
    {2, 17, 0xd228524dae7eebc2ull, 112, 10, -1, 0xe2163985bf01c959ull},
    {2, 18, 0xe8c5bf150770d116ull, 115, 11, -1, 0xc6c86547862e585eull},
    {2, 19, 0xb546d645378ae3a7ull, 128, 10, -1, 0x76852f288ec092c9ull},
};

TEST(NarrowEquivalence, Linial) {
  NetworkPool pools[] = {NetworkPool(1), NetworkPool(2), NetworkPool(4)};
  for (const Golden& want : kLinial) {
    Rng rng(4000 + 100 * static_cast<std::uint64_t>(want.family) +
            static_cast<std::uint64_t>(want.seed));
    const Graph g = family_graph(want.family, want.seed, rng);
    expect_all_engines(want, pools,
                       [&](RoundLedger* l, int threads, NetworkPool* pool) {
                         return linial_color(g, l, {}, 0, threads, pool);
                       });
  }
}

TEST(NarrowEquivalence, DefectivePrecolorAndRefine) {
  NetworkPool pools[] = {NetworkPool(1), NetworkPool(2), NetworkPool(4)};
  std::size_t next = 0;
  for (int family = 0; family < 3; ++family) {
    for (int seed = 0; seed < 20; ++seed) {
      Rng rng(5000 + 100 * family + static_cast<std::uint64_t>(seed));
      const Graph g = family_graph(family, seed, rng);
      if (g.max_degree() < 2) continue;
      ASSERT_LT(next, std::size(kDefective));
      const Golden& want = kDefective[next++];
      ASSERT_EQ(want.family, family);
      ASSERT_EQ(want.seed, seed);
      const LinialResult lin = linial_color(g);
      expect_all_engines(
          want, pools, [&](RoundLedger* l, int threads, NetworkPool* pool) {
            return defective_4_coloring(g, lin.colors, lin.palette, 0.5, l,
                                        threads, pool);
          });
    }
  }
  EXPECT_EQ(next, std::size(kDefective));
}

TEST(NarrowEquivalence, TokenDropping) {
  NetworkPool pools[] = {NetworkPool(1), NetworkPool(2), NetworkPool(4)};
  for (const Golden& want : kTokenDropping) {
    const int seed = want.seed;
    Rng rng(6000 + static_cast<std::uint64_t>(seed));
    const Digraph game = seed % 2 == 0
                             ? layered_game(3, 8 + seed, 3, rng)
                             : random_game(24 + seed, 0.1, rng);
    TokenDroppingParams p;
    p.k = 6;
    p.delta = 2;
    std::vector<int> init(static_cast<std::size_t>(game.num_nodes()));
    for (auto& t : init) t = static_cast<int>(rng.next_u64() % (p.k + 1));
    expect_all_engines(want, pools,
                       [&](RoundLedger* l, int threads, NetworkPool* pool) {
                         return run_token_dropping(game, init, p, l, threads,
                                                   pool);
                       });
  }
}

TEST(NarrowEquivalence, BalancedOrientation) {
  NetworkPool pools[] = {NetworkPool(1), NetworkPool(2), NetworkPool(4)};
  std::size_t next = 0;
  for (int family = 0; family < 3; ++family) {
    for (int seed = 0; seed < 20; ++seed) {
      Rng rng(7000 + 100 * family + static_cast<std::uint64_t>(seed));
      Graph g = family == 0 ? gen::random_bipartite(
                                  18 + seed, 16 + (seed * 3) % 9, 0.15, rng)
                                  .graph
                            : family_graph(family, seed, rng);
      const auto parts = try_bipartition(g);
      if (!parts.has_value()) continue;
      ASSERT_LT(next, std::size(kOrientation));
      const Golden& want = kOrientation[next++];
      ASSERT_EQ(want.family, family);
      ASSERT_EQ(want.seed, seed);
      std::vector<double> eta(static_cast<std::size_t>(g.num_edges()));
      for (auto& v : eta) v = 3.0 * (2.0 * rng.next_double() - 1.0);
      OrientationParams p;
      p.nu = seed % 2 == 0 ? 0.125 : 0.0625;
      expect_all_engines(
          want, pools, [&](RoundLedger* l, int threads, NetworkPool* pool) {
            return balanced_orientation(g, *parts, eta, p, l, threads, pool);
          });
    }
  }
  EXPECT_EQ(next, std::size(kOrientation));
}

// Token dropping on digraphs whose node pairs carry many lanes: 85 and 86
// parallel arcs frame support payloads of 255 and 258 fields, and 1,000
// random arcs among 5 nodes put about 100 lanes on every node pair. 86
// parallel arcs used to throw on the 16 B plane (its count capped at 255
// fields).
TEST(NarrowEquivalence, ManyParallelArcsMatchRecordedWidePlane) {
  // Here the seed column holds the number of parallel arcs 0 -> 1.
  const Golden parallel_pair[] = {
      {0, 85, 0x6948cc2d2ae48fc9ull, 267, 1105, -1, 0xc4873859c386c75aull},
      {0, 86, 0xd4cd6280666d61eaull, 267, 1118, -1, 0xc4873859c386c75aull},
  };
  NetworkPool pools[] = {NetworkPool(1), NetworkPool(2), NetworkPool(4)};
  for (const Golden& want : parallel_pair) {
    const std::vector<std::pair<NodeId, NodeId>> arcs(
        static_cast<std::size_t>(want.seed), {0, 1});
    const Digraph game(2, arcs);
    TokenDroppingParams p;
    p.k = 90;
    p.delta = 1;
    const std::vector<int> init = {90, 0};
    expect_all_engines(want, pools,
                       [&](RoundLedger* l, int threads, NetworkPool* pool) {
                         return run_token_dropping(game, init, p, l, threads,
                                                   pool);
                       });
  }

  // Parallel and anti-parallel lanes on every pair.
  const Golden thousand = {0,    1000, 0xbb3e8d72789305f6ull, 297,
                           1094, -1,   0xe1d5a78d374e9fbcull};
  Rng rng(1000);
  std::vector<std::pair<NodeId, NodeId>> arcs;
  while (arcs.size() < 1000) {
    const auto u = static_cast<NodeId>(rng.next_u64() % 5);
    const auto v = static_cast<NodeId>(rng.next_u64() % 5);
    if (u != v) arcs.emplace_back(u, v);
  }
  const Digraph game(5, arcs);
  TokenDroppingParams p;
  p.k = 200;
  p.delta = 2;
  std::vector<int> init(5);
  for (auto& t : init) t = static_cast<int>(rng.next_u64() % (p.k + 1));
  expect_all_engines(thousand, pools,
                     [&](RoundLedger* l, int threads, NetworkPool* pool) {
                       return run_token_dropping(game, init, p, l, threads,
                                                 pool);
                     });
}

}  // namespace
}  // namespace dec
