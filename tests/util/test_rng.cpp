// Unit + statistical tests for the PRNG. Statistical bounds use generous
// tolerances so the suite is deterministic and robust (fixed seeds).
#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <numeric>
#include <set>
#include <vector>

namespace topkmon {
namespace {

TEST(SplitMix64, KnownSequenceIsDeterministic) {
  std::uint64_t s1 = 12345;
  std::uint64_t s2 = 12345;
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(splitmix64(s1), splitmix64(s2));
  }
}

TEST(SplitMix64, AdvancesState) {
  std::uint64_t s = 0;
  const auto a = splitmix64(s);
  const auto b = splitmix64(s);
  EXPECT_NE(a, b);
}

TEST(Rng, DeterministicForSameSeed) {
  Rng a(99);
  Rng b(99);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_LE(same, 1);
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10'000; ++i) {
    const double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, NextDoubleMeanNearHalf) {
  Rng rng(11);
  double sum = 0.0;
  constexpr int kN = 100'000;
  for (int i = 0; i < kN; ++i) sum += rng.next_double();
  EXPECT_NEAR(sum / kN, 0.5, 0.01);
}

TEST(Rng, UniformIntRespectsBounds) {
  Rng rng(13);
  for (int i = 0; i < 10'000; ++i) {
    const auto v = rng.uniform_int(-5, 17);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 17);
  }
}

TEST(Rng, UniformIntSingleton) {
  Rng rng(17);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.uniform_int(42, 42), 42);
}

TEST(Rng, UniformIntCoversRange) {
  Rng rng(19);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 2'000; ++i) seen.insert(rng.uniform_int(0, 9));
  EXPECT_EQ(seen.size(), 10u);
}

TEST(Rng, UniformIntRangesWiderThanInt64Max) {
  // hi - lo = 2^63 overflows int64; the draw is still lo + uniform_below
  // of the exact width.
  constexpr std::int64_t kLo = -(std::int64_t{1} << 62);
  constexpr std::int64_t kHi = std::int64_t{1} << 62;
  constexpr std::uint64_t kSpan = (std::uint64_t{1} << 63) + 1;
  Rng rng(31);
  Rng ref = rng;
  for (int i = 0; i < 10'000; ++i) {
    const std::int64_t v = rng.uniform_int(kLo, kHi);
    EXPECT_GE(v, kLo);
    EXPECT_LE(v, kHi);
    EXPECT_EQ(static_cast<std::uint64_t>(v) - static_cast<std::uint64_t>(kLo),
              ref.uniform_below(kSpan));
  }
}

TEST(Rng, UniformIntApproximatelyUniform) {
  Rng rng(23);
  std::array<int, 8> counts{};
  constexpr int kN = 80'000;
  for (int i = 0; i < kN; ++i) {
    ++counts[static_cast<std::size_t>(rng.uniform_int(0, 7))];
  }
  for (const int c : counts) {
    EXPECT_NEAR(static_cast<double>(c), kN / 8.0, kN / 8.0 * 0.06);
  }
}

TEST(Rng, UniformBelowBounds) {
  Rng rng(29);
  for (int i = 0; i < 10'000; ++i) {
    EXPECT_LT(rng.uniform_below(37), 37u);
  }
}

TEST(Rng, BernoulliEdgeCases) {
  Rng rng(31);
  for (int i = 0; i < 64; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
    EXPECT_FALSE(rng.bernoulli(-0.5));
    EXPECT_TRUE(rng.bernoulli(1.5));
  }
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(37);
  constexpr int kN = 100'000;
  int hits = 0;
  for (int i = 0; i < kN; ++i) hits += rng.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / kN, 0.3, 0.01);
}

TEST(Rng, BernoulliPow2ProbabilityOne) {
  Rng rng(41);
  // r >= log_n means probability 2^r/N >= 1: must always succeed.
  for (std::uint32_t log_n = 0; log_n <= 10; ++log_n) {
    EXPECT_TRUE(rng.bernoulli_pow2(log_n, log_n));
    EXPECT_TRUE(rng.bernoulli_pow2(log_n + 3, log_n));
  }
}

TEST(Rng, BernoulliPow2Frequency) {
  // P(success) = 2^r / 2^log_n exactly; check empirically for several r.
  constexpr int kN = 200'000;
  for (std::uint32_t r : {0u, 2u, 5u}) {
    Rng rng(43 + r);
    constexpr std::uint32_t kLogN = 8;  // N = 256
    int hits = 0;
    for (int i = 0; i < kN; ++i) hits += rng.bernoulli_pow2(r, kLogN) ? 1 : 0;
    const double expect = std::pow(2.0, static_cast<double>(r)) / 256.0;
    EXPECT_NEAR(static_cast<double>(hits) / kN, expect, expect * 0.15 + 0.001)
        << "r=" << r;
  }
}

TEST(Rng, GaussianMoments) {
  Rng rng(47);
  constexpr int kN = 200'000;
  double sum = 0.0;
  double sum_sq = 0.0;
  for (int i = 0; i < kN; ++i) {
    const double g = rng.next_gaussian();
    sum += g;
    sum_sq += g * g;
  }
  const double mean = sum / kN;
  const double var = sum_sq / kN - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.02);
  EXPECT_NEAR(var, 1.0, 0.03);
}

TEST(Rng, DeriveIsDeterministic) {
  const Rng root(55);
  Rng a = root.derive(3);
  Rng b = root.derive(3);
  for (int i = 0; i < 32; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DeriveChildrenIndependent) {
  const Rng root(59);
  Rng a = root.derive(1);
  Rng b = root.derive(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_LE(same, 1);
}

TEST(Rng, DeriveDoesNotPerturbParent) {
  Rng parent(61);
  Rng probe(61);
  (void)parent.derive(9);
  (void)parent.derive(10);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(parent.next_u64(), probe.next_u64());
}

TEST(Rng, ShufflePermutes) {
  Rng rng(67);
  std::vector<int> v(100);
  std::iota(v.begin(), v.end(), 0);
  auto w = v;
  rng.shuffle(w.begin(), w.end());
  EXPECT_NE(v, w);  // astronomically unlikely to be identity
  std::sort(w.begin(), w.end());
  EXPECT_EQ(v, w);  // same multiset
}

TEST(Rng, ShuffleUniformFirstElement) {
  Rng rng(71);
  std::array<int, 5> counts{};
  constexpr int kTrials = 50'000;
  for (int t = 0; t < kTrials; ++t) {
    std::array<int, 5> v{0, 1, 2, 3, 4};
    rng.shuffle(v.begin(), v.end());
    ++counts[static_cast<std::size_t>(v[0])];
  }
  for (const int c : counts) {
    EXPECT_NEAR(static_cast<double>(c), kTrials / 5.0, kTrials / 5.0 * 0.08);
  }
}

}  // namespace
}  // namespace topkmon
