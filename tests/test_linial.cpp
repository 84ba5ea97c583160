// Tests for Linial's O(Δ²)-coloring in O(log* n) rounds (EXP-G invariants).
#include <gtest/gtest.h>

#include <numeric>
#include <string>

#include "coloring/digit_poly.hpp"
#include "coloring/linial.hpp"
#include "graph/generators.hpp"
#include "util/logstar.hpp"
#include "util/prime.hpp"

namespace dec {
namespace {

TEST(LinialParams, StepRespectsConstraints) {
  for (const std::int64_t m : {10LL, 1000LL, 1000000LL, 1LL << 40}) {
    for (const int delta : {1, 2, 8, 100}) {
      const LinialStep s = linial_step_params(m, delta);
      EXPECT_TRUE(is_prime(static_cast<std::uint64_t>(s.q)));
      EXPECT_GT(s.q, static_cast<std::int64_t>(delta) * s.d)
          << "m=" << m << " delta=" << delta;
      // Coverage q^(d+1) >= m.
      double cover = 1.0;
      for (int i = 0; i <= s.d; ++i) cover *= static_cast<double>(s.q);
      EXPECT_GE(cover, static_cast<double>(m));
    }
  }
}

// The digit kernel's reciprocal division against the hardware's, for every
// prime q < 2^16 at the boundary numerators and at random ones.
TEST(DigitPoly, DivModMatchHardwareForEveryPrimeBelow2To16) {
  Rng rng(17);
  std::int64_t primes = 0;
  std::int64_t mismatches = 0;
  std::string first;
  for (std::uint32_t q = 2; q < (1u << 16); ++q) {
    if (!is_prime(q)) continue;
    ++primes;
    const DigitPoly poly(q, 1);
    std::vector<std::uint32_t> nums{0u, q - 1, q, q * q - 1, (1u << 31) - 1,
                                    ~0u};
    for (int i = 0; i < 32; ++i) {
      nums.push_back(static_cast<std::uint32_t>(rng.next_u64()));
    }
    for (const std::uint32_t n : nums) {
      if (poly.div(n) != n / q || poly.mod(n) != n % q) {
        if (mismatches++ == 0) {
          first = "q=" + std::to_string(q) + " n=" + std::to_string(n);
        }
      }
    }
  }
  EXPECT_EQ(primes, 6542);
  EXPECT_EQ(mismatches, 0) << "first mismatch at " << first;
}

// Digits and Horner evaluation against the 64-bit %-and-/ reference, up to
// the largest 16-bit prime, where acc·r + digit comes closest to 2^32.
TEST(DigitPoly, DecodeAndEvalMatchReference) {
  Rng rng(18);
  for (const std::uint32_t q : {2u, 3u, 59u, 4099u, 46337u, 65521u}) {
    for (const int d : {0, 1, 2, 5}) {
      const DigitPoly poly(q, d);
      std::vector<std::uint32_t> digits(static_cast<std::size_t>(d) + 1);
      for (int trial = 0; trial < 200; ++trial) {
        const auto color = static_cast<std::uint32_t>(rng.next_u64());
        poly.decode(color, digits.data());
        std::int64_t ref[6];
        std::int64_t c = color;
        for (int i = 0; i <= d; ++i) {
          ref[i] = c % q;
          c /= q;
          ASSERT_EQ(digits[static_cast<std::size_t>(i)], ref[i]);
        }
        const std::uint32_t r =
            trial == 0 ? q - 1
                       : static_cast<std::uint32_t>(rng.next_below(q));
        std::int64_t acc = 0;
        for (int i = d; i >= 0; --i) acc = (acc * r + ref[i]) % q;
        ASSERT_EQ(poly.eval(digits.data(), r), acc)
            << "q=" << q << " d=" << d << " color=" << color << " r=" << r;
      }
    }
  }
}

TEST(DigitPoly, RejectsModulusOutsideDomain) {
  EXPECT_THROW(DigitPoly(1, 1), CheckError);
  EXPECT_THROW(DigitPoly((std::int64_t{1} << 16) + 1, 1), CheckError);
}

TEST(Linial, ProperOnVariousGraphs) {
  Rng rng(10);
  const Graph graphs[] = {gen::cycle(101), gen::gnp(200, 0.05, rng),
                          gen::random_regular(150, 6, rng),
                          gen::hypercube(7)};
  for (const Graph& g : graphs) {
    const LinialResult r = linial_color(g);
    EXPECT_TRUE(is_complete_proper_vertex_coloring(g, r.colors));
    for (const Color c : r.colors) {
      EXPECT_GE(c, 0);
      EXPECT_LT(c, r.palette);
    }
  }
}

TEST(Linial, PaletteIsQuadraticInDelta) {
  Rng rng(11);
  for (const int d : {2, 4, 8, 16}) {
    const Graph g = gen::random_regular(2000, d, rng);
    const LinialResult r = linial_color(g);
    // Final palette is q² for a prime q = O(Δ): generous constant check.
    const std::int64_t q_cap =
        static_cast<std::int64_t>(next_prime(static_cast<std::uint64_t>(4 * d + 2)));
    EXPECT_LE(r.palette, q_cap * q_cap) << "d=" << d;
  }
}

TEST(Linial, RoundsAreIteratedLogOfIdSpace) {
  Rng rng(12);
  for (const NodeId n : {64, 1024, 16384}) {
    const Graph g = gen::random_regular(n, 4, rng);
    const LinialResult r = linial_color(g);
    // rounds = iterations + 1 announcement; iterations tracks log* n.
    EXPECT_LE(r.iterations, log_star(static_cast<double>(n)) + 3) << n;
    EXPECT_EQ(r.rounds, r.iterations + 1);
  }
}

TEST(Linial, MessagesAreLogarithmic) {
  Rng rng(13);
  const Graph g = gen::random_regular(4096, 4, rng);
  const LinialResult r = linial_color(g);
  // CONGEST: colors fit in O(log n) bits.
  EXPECT_LE(r.max_message_bits, 2 * ceil_log2(4096) + 4);
}

TEST(Linial, AcceptsCustomInitialColoring) {
  const Graph g = gen::cycle(8);
  std::vector<Color> initial{10, 20, 30, 40, 50, 60, 70, 80};
  const LinialResult r = linial_color(g, nullptr, initial, 100);
  EXPECT_TRUE(is_complete_proper_vertex_coloring(g, r.colors));
  EXPECT_LT(r.palette, 100);
}

TEST(Linial, RejectsImproperInitialColoring) {
  const Graph g = gen::path(3);
  EXPECT_THROW(linial_color(g, nullptr, {1, 1, 2}, 10), CheckError);
  EXPECT_THROW(linial_color(g, nullptr, {0, 11, 2}, 10), CheckError);
}

// An id space past the int32 Color range used to wrap silently: this star
// returned palette 1,410,665,417 = 100003² mod 2^32 (the true value is
// 10,000,600,009).
TEST(Linial, RejectsIdSpaceBeyondColorRange) {
  const Graph g = gen::star(50000);
  std::vector<Color> ids(static_cast<std::size_t>(g.num_nodes()));
  std::iota(ids.begin(), ids.end(), 0);
  EXPECT_THROW(linial_color(g, nullptr, ids, std::int64_t{1} << 40),
               CheckError);
  EXPECT_THROW(linial_color(g, nullptr, ids, std::int64_t{1} << 31),
               CheckError);
}

TEST(Linial, AcceptsTheFullColorRange) {
  const Graph g = gen::cycle(8);
  std::vector<Color> initial{0, 1, 2, 3, 4, 5, 6, INT32_MAX - 1};
  const LinialResult r = linial_color(g, nullptr, initial, INT32_MAX);
  EXPECT_TRUE(is_complete_proper_vertex_coloring(g, r.colors));
  EXPECT_GT(r.iterations, 0);
  EXPECT_LT(r.palette, 100);
}

TEST(Linial, EdgelessGraphOneColor) {
  const LinialResult r = linial_color(gen::empty(10));
  EXPECT_EQ(r.palette, 1);
  EXPECT_EQ(r.rounds, 0);
}

TEST(Linial, EdgeColoringOnLineGraph) {
  Rng rng(14);
  const Graph g = gen::random_regular(200, 5, rng);
  const LinialResult r = linial_edge_color(g);
  EXPECT_TRUE(is_complete_proper_edge_coloring(g, r.colors));
  const int dbar = g.max_edge_degree();
  const std::int64_t q_cap = static_cast<std::int64_t>(
      next_prime(static_cast<std::uint64_t>(4 * dbar + 2)));
  EXPECT_LE(r.palette, q_cap * q_cap);
}

TEST(Linial, DeterministicAcrossRuns) {
  Rng rng(15);
  const Graph g = gen::gnp(100, 0.1, rng);
  const LinialResult a = linial_color(g);
  const LinialResult b = linial_color(g);
  EXPECT_EQ(a.colors, b.colors);
}

// Parameterized sweep over n: rounds stay within log* + O(1), colors O(Δ²).
class LinialSweep : public ::testing::TestWithParam<int> {};

TEST_P(LinialSweep, ScalesWithN) {
  Rng rng(16);
  const NodeId n = GetParam();
  const Graph g = gen::random_regular(n, 6, rng);
  const LinialResult r = linial_color(g);
  EXPECT_TRUE(is_complete_proper_vertex_coloring(g, r.colors));
  EXPECT_LE(r.rounds, log_star(static_cast<double>(n)) + 4);
  EXPECT_LE(r.palette, 29 * 29);  // q <= next_prime(4*6+2)=29 at the end
}

INSTANTIATE_TEST_SUITE_P(Sizes, LinialSweep,
                         ::testing::Values(32, 128, 512, 2048, 8192));

}  // namespace
}  // namespace dec
