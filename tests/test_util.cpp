// Unit tests for dec_util: checks, rng, primes, log*, stats, tables, the
// fork-join executor.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "util/check.hpp"
#include "util/logstar.hpp"
#include "util/prime.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

namespace dec {
namespace {

TEST(Check, ThrowsWithLocationAndMessage) {
  try {
    DEC_REQUIRE(1 == 2, "the message");
    FAIL() << "expected CheckError";
  } catch (const CheckError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("test_util.cpp"), std::string::npos);
    EXPECT_NE(what.find("the message"), std::string::npos);
    EXPECT_NE(what.find("precondition"), std::string::npos);
  }
}

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a.next_u64() == b.next_u64() ? 1 : 0;
  EXPECT_LT(same, 3);
}

TEST(Rng, NextBelowIsInRange) {
  Rng r(42);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(r.next_below(7), 7u);
  }
  EXPECT_THROW(r.next_below(0), CheckError);
}

TEST(Rng, NextBelowCoversAllResidues) {
  Rng r(42);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 200; ++i) seen.insert(r.next_below(5));
  EXPECT_EQ(seen.size(), 5u);
}

TEST(Rng, NextInRespectsBounds) {
  Rng r(9);
  for (int i = 0; i < 500; ++i) {
    const auto x = r.next_in(-3, 3);
    EXPECT_GE(x, -3);
    EXPECT_LE(x, 3);
  }
}

TEST(Rng, DoubleInUnitInterval) {
  Rng r(5);
  for (int i = 0; i < 500; ++i) {
    const double d = r.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, BernoulliEdgeCases) {
  Rng r(5);
  EXPECT_FALSE(r.next_bool(0.0));
  EXPECT_TRUE(r.next_bool(1.0));
}

TEST(Rng, ShufflePreservesElements) {
  Rng r(11);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7};
  auto sorted = v;
  r.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(Rng, ForkProducesIndependentStream) {
  Rng a(77);
  Rng child = a.fork();
  EXPECT_NE(a.next_u64(), child.next_u64());
}

TEST(Prime, SmallValues) {
  EXPECT_FALSE(is_prime(0));
  EXPECT_FALSE(is_prime(1));
  EXPECT_TRUE(is_prime(2));
  EXPECT_TRUE(is_prime(3));
  EXPECT_FALSE(is_prime(4));
  EXPECT_TRUE(is_prime(5));
  EXPECT_FALSE(is_prime(1000001));  // 101 * 9901
  EXPECT_TRUE(is_prime(1000003));
}

TEST(Prime, LargeKnownPrimes) {
  EXPECT_TRUE(is_prime(2147483647ULL));           // 2^31 - 1
  EXPECT_TRUE(is_prime(6700417ULL));              // Fermat factor
  EXPECT_FALSE(is_prime(3215031751ULL));          // strong pseudoprime
  EXPECT_TRUE(is_prime(18446744073709551557ULL)); // largest 64-bit prime
}

TEST(Prime, NextPrime) {
  EXPECT_EQ(next_prime(0), 2u);
  EXPECT_EQ(next_prime(2), 2u);
  EXPECT_EQ(next_prime(3), 3u);
  EXPECT_EQ(next_prime(4), 5u);
  EXPECT_EQ(next_prime(14), 17u);
  EXPECT_EQ(next_prime(90), 97u);
}

TEST(Prime, PowMod) {
  EXPECT_EQ(pow_mod(2, 10, 1000), 24u);
  EXPECT_EQ(pow_mod(3, 0, 7), 1u);
  EXPECT_EQ(pow_mod(10, 18, 1000000007ULL), pow_mod(10, 18, 1000000007ULL));
}

TEST(LogStar, KnownValues) {
  EXPECT_EQ(log_star(1.0), 0);
  EXPECT_EQ(log_star(2.0), 1);
  EXPECT_EQ(log_star(4.0), 2);
  EXPECT_EQ(log_star(16.0), 3);
  EXPECT_EQ(log_star(65536.0), 4);
  EXPECT_EQ(log_star(1e18), 5);
}

TEST(LogStar, CeilFloorLog2) {
  EXPECT_EQ(ceil_log2(1), 0);
  EXPECT_EQ(ceil_log2(2), 1);
  EXPECT_EQ(ceil_log2(3), 2);
  EXPECT_EQ(ceil_log2(1024), 10);
  EXPECT_EQ(ceil_log2(1025), 11);
  EXPECT_EQ(floor_log2(1), 0);
  EXPECT_EQ(floor_log2(1023), 9);
  EXPECT_EQ(floor_log2(1024), 10);
}

TEST(Stats, SummaryBasics) {
  const Summary s = summarize({3.0, 1.0, 2.0});
  EXPECT_EQ(s.count, 3u);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 3.0);
  EXPECT_DOUBLE_EQ(s.mean, 2.0);
  EXPECT_DOUBLE_EQ(s.p50, 2.0);
}

TEST(Stats, EmptySummary) {
  const Summary s = summarize({});
  EXPECT_EQ(s.count, 0u);
  EXPECT_DOUBLE_EQ(s.max, 0.0);
}

TEST(Stats, RunningStat) {
  RunningStat rs;
  rs.add(1.0);
  rs.add(5.0);
  rs.add(3.0);
  EXPECT_EQ(rs.count(), 3u);
  EXPECT_DOUBLE_EQ(rs.mean(), 3.0);
  EXPECT_DOUBLE_EQ(rs.max(), 5.0);
  EXPECT_DOUBLE_EQ(rs.min(), 1.0);
}

TEST(Table, RendersAlignedRows) {
  Table t("demo", {"a", "long_header"});
  t.add_row({"1", "2"});
  t.add_row({"333", "4"});
  const std::string out = t.render();
  EXPECT_NE(out.find("== demo =="), std::string::npos);
  EXPECT_NE(out.find("long_header"), std::string::npos);
  EXPECT_EQ(t.rows(), 2u);
}

TEST(Table, RejectsMismatchedRow) {
  Table t("demo", {"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), CheckError);
}

TEST(Table, Formatters) {
  EXPECT_EQ(fmt_int(-42), "-42");
  EXPECT_EQ(fmt_double(3.14159, 2), "3.14");
  EXPECT_EQ(fmt_ratio(1.0, 0.0), "n/a");
  EXPECT_EQ(fmt_ratio(3.0, 2.0, 1), "1.5");
  EXPECT_EQ(fmt_bool(true), "yes");
}

TEST(ThreadPool, RunsEveryChunkOnceCallerTakingChunkZero) {
  ThreadPool pool(4);
  const std::thread::id caller = std::this_thread::get_id();
  for (int chunks = 1; chunks <= 4; ++chunks) {
    for (int rep = 0; rep < 50; ++rep) {
      std::vector<int> hits(4, 0);
      std::vector<std::thread::id> who(4);
      pool.run(chunks, [&](int i) {
        ++hits[static_cast<std::size_t>(i)];
        who[static_cast<std::size_t>(i)] = std::this_thread::get_id();
      });
      for (int i = 0; i < 4; ++i) {
        EXPECT_EQ(hits[static_cast<std::size_t>(i)], i < chunks ? 1 : 0);
      }
      EXPECT_EQ(who[0], caller);
      for (int i = 1; i < chunks; ++i) {
        EXPECT_NE(who[static_cast<std::size_t>(i)], caller);
      }
    }
  }
  EXPECT_THROW(pool.run(5, [](int) {}), CheckError);
}

TEST(ThreadPool, RethrowsOnlyAfterEveryChunkFinished) {
  ThreadPool pool(4);
  for (const int thrower : {0, 1, 3}) {
    std::atomic<int> finished{0};
    try {
      pool.run(4, [&](int i) {
        if (i == thrower) throw std::runtime_error("chunk " + std::to_string(i));
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
        finished.fetch_add(1);
      });
      FAIL() << "expected the chunk's exception";
    } catch (const std::runtime_error& e) {
      EXPECT_EQ(std::string(e.what()), "chunk " + std::to_string(thrower));
    }
    // Every other chunk ran to completion before the rethrow.
    EXPECT_EQ(finished.load(), 3) << "thrower " << thrower;
  }
  // The pool is still usable after a failed run.
  std::atomic<int> ran{0};
  pool.run(4, [&](int) { ran.fetch_add(1); });
  EXPECT_EQ(ran.load(), 4);
}

TEST(ThreadPool, OneThreadPoolRunsInline) {
  ThreadPool pool(1);
  int ran = 0;
  pool.run(1, [&](int i) { ran += i + 1; });
  EXPECT_EQ(ran, 1);
  EXPECT_THROW(pool.run(2, [](int) {}), CheckError);
}

TEST(ThreadPool, ChunkCountFollowsWorkAndThreads) {
  ThreadPool pool(4);
  EXPECT_EQ(chunk_count(nullptr, 1 << 20, 100), 1);
  EXPECT_EQ(chunk_count(&pool, 199, 100), 1);  // below two chunks' worth
  EXPECT_EQ(chunk_count(&pool, 200, 100), 2);
  EXPECT_EQ(chunk_count(&pool, 399, 100), 3);
  EXPECT_EQ(chunk_count(&pool, 1 << 20, 100), 4);  // capped by threads
}

TEST(ThreadPool, BalancedBoundsSplitByPrefixWeight) {
  // Weight 10 at index 0, then 1 each: the first chunk holds index 0 alone.
  const std::vector<std::size_t> prefix = {0, 10, 11, 12, 13, 14, 15, 16,
                                           17, 18, 19, 20};
  const auto at = [&](std::size_t i) { return prefix[i]; };
  EXPECT_EQ(balanced_bounds(11, 2, at),
            (std::vector<std::size_t>{0, 1, 11}));
  EXPECT_EQ(balanced_bounds(11, 1, at), (std::vector<std::size_t>{0, 11}));
  const auto unit = [](std::size_t i) { return i; };
  EXPECT_EQ(balanced_bounds(8, 4, unit),
            (std::vector<std::size_t>{0, 2, 4, 6, 8}));
  EXPECT_EQ(balanced_bounds(0, 3, unit),
            (std::vector<std::size_t>{0, 0, 0, 0}));
}

}  // namespace
}  // namespace dec
