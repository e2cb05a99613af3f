// Unit tests for the fundamental types and arithmetic helpers.
#include "util/types.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <tuple>
#include <vector>

#include "util/rng.hpp"

namespace topkmon {
namespace {

TEST(Midpoint, SimplePositive) {
  EXPECT_EQ(midpoint(0, 10), 5);
  EXPECT_EQ(midpoint(0, 11), 5);
  EXPECT_EQ(midpoint(3, 5), 4);
  EXPECT_EQ(midpoint(1, 2), 1);
}

TEST(Midpoint, EqualEndpoints) {
  EXPECT_EQ(midpoint(7, 7), 7);
  EXPECT_EQ(midpoint(-7, -7), -7);
  EXPECT_EQ(midpoint(0, 0), 0);
}

TEST(Midpoint, NegativeValues) {
  EXPECT_EQ(midpoint(-10, 0), -5);
  const Value m = midpoint(-3, -2);
  EXPECT_GE(m, -3);
  EXPECT_LE(m, -2);
}

TEST(Midpoint, MixedSign) {
  const Value m = midpoint(-5, 6);
  EXPECT_GE(m, -5);
  EXPECT_LE(m, 6);
}

TEST(Midpoint, NoOverflowAtExtremes) {
  // Naive (lo + hi) / 2 would overflow; the implementation must not.
  const Value big = std::numeric_limits<Value>::max() - 1;
  const Value m = midpoint(big - 10, big);
  EXPECT_GE(m, big - 10);
  EXPECT_LE(m, big);

  const Value small = std::numeric_limits<Value>::min() + 2;
  const Value m2 = midpoint(small, small + 10);
  EXPECT_GE(m2, small);
  EXPECT_LE(m2, small + 10);
}

TEST(Midpoint, AlwaysWithinRangeSweep) {
  for (Value lo = -25; lo <= 25; ++lo) {
    for (Value hi = lo; hi <= 25; ++hi) {
      const Value m = midpoint(lo, hi);
      EXPECT_GE(m, lo) << "lo=" << lo << " hi=" << hi;
      EXPECT_LE(m, hi) << "lo=" << lo << " hi=" << hi;
    }
  }
}

TEST(Midpoint, HalvesGap) {
  // The Algorithm 1 analysis needs the gap to at least halve when the
  // boundary is re-placed at the midpoint: max(m - lo, hi - m) <=
  // ceil((hi - lo) / 2).
  for (Value lo = -20; lo <= 20; ++lo) {
    for (Value hi = lo; hi <= 20; ++hi) {
      const Value m = midpoint(lo, hi);
      const Value gap = hi - lo;
      EXPECT_LE(m - lo, (gap + 1) / 2);
      EXPECT_LE(hi - m, (gap + 1) / 2);
    }
  }
}

TEST(InClosed, Basics) {
  EXPECT_TRUE(in_closed(5, 0, 10));
  EXPECT_TRUE(in_closed(0, 0, 10));
  EXPECT_TRUE(in_closed(10, 0, 10));
  EXPECT_FALSE(in_closed(-1, 0, 10));
  EXPECT_FALSE(in_closed(11, 0, 10));
}

TEST(InClosed, InfinitySentinels) {
  EXPECT_TRUE(in_closed(0, kMinusInf, kPlusInf));
  EXPECT_TRUE(in_closed(kMinusInf, kMinusInf, kPlusInf));
  EXPECT_TRUE(in_closed(kPlusInf, kMinusInf, kPlusInf));
}

TEST(NextPow2, Values) {
  EXPECT_EQ(next_pow2(0), 1u);
  EXPECT_EQ(next_pow2(1), 1u);
  EXPECT_EQ(next_pow2(2), 2u);
  EXPECT_EQ(next_pow2(3), 4u);
  EXPECT_EQ(next_pow2(4), 4u);
  EXPECT_EQ(next_pow2(5), 8u);
  EXPECT_EQ(next_pow2(1023), 1024u);
  EXPECT_EQ(next_pow2(1024), 1024u);
  EXPECT_EQ(next_pow2(1025), 2048u);
  EXPECT_EQ(next_pow2(1ull << 62), 1ull << 62);
}

TEST(FastMod32, MatchesRemainderForEveryDivisorWidth) {
  // Edge divisors (1, powers of two and their neighbours, the 32-bit
  // limits) plus pseudo-random ones; edge and random numerators.
  std::vector<std::uint64_t> divisors = {1,          2,          3,
                                         5,          7,          8,
                                         13,         1000,       65'537,
                                         (1ull << 31) - 1, 1ull << 31,
                                         (1ull << 31) + 1, (1ull << 32) - 1,
                                         1ull << 32};
  std::uint64_t state = 12345;
  for (int i = 0; i < 200; ++i) {
    const std::uint64_t bits = 1 + splitmix64(state) % 32;
    divisors.push_back(1 + (splitmix64(state) & ((1ull << bits) - 1)));
  }
  for (const std::uint64_t d : divisors) {
    const FastMod32 fm(d);
    std::vector<std::uint64_t> xs = {0, 1, d - 1, d, d + 1, 2 * d - 1,
                                     0xFFFFFFFFull, 0xFFFFFFFEull};
    for (int i = 0; i < 200; ++i) xs.push_back(splitmix64(state));
    for (const std::uint64_t x64 : xs) {
      const auto x = static_cast<std::uint32_t>(x64);
      ASSERT_EQ(fm.mod(x), x % d) << "x=" << x << " d=" << d;
    }
  }
}

TEST(FloorLog2, Values) {
  EXPECT_EQ(floor_log2(1), 0u);
  EXPECT_EQ(floor_log2(2), 1u);
  EXPECT_EQ(floor_log2(3), 1u);
  EXPECT_EQ(floor_log2(4), 2u);
  EXPECT_EQ(floor_log2(1023), 9u);
  EXPECT_EQ(floor_log2(1024), 10u);
  EXPECT_EQ(floor_log2(1ull << 40), 40u);
}

TEST(CeilLog2, Values) {
  EXPECT_EQ(ceil_log2(1), 0u);
  EXPECT_EQ(ceil_log2(2), 1u);
  EXPECT_EQ(ceil_log2(3), 2u);
  EXPECT_EQ(ceil_log2(4), 2u);
  EXPECT_EQ(ceil_log2(5), 3u);
  EXPECT_EQ(ceil_log2(1024), 10u);
  EXPECT_EQ(ceil_log2(1025), 11u);
}

TEST(Log2Identities, PowerRelation) {
  for (std::uint64_t x = 1; x < 100'000; x = x * 3 + 1) {
    const auto p = next_pow2(x);
    EXPECT_GE(p, x);
    EXPECT_LT(p / 2, x) << "next_pow2 not tight for " << x;
    EXPECT_EQ(floor_log2(p), ceil_log2(x) + (x == 1 ? 0 : 0));
  }
}

}  // namespace
}  // namespace topkmon
