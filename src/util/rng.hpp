// Deterministic pseudo-random number generation.
//
// Every stochastic component of the library (stream generators, protocol
// coin flips) draws from an Rng instance seeded through SplitMix64, so a
// single top-level seed reproduces an entire experiment bit-for-bit.
// The generator is xoshiro256** (Blackman & Vigna), which is fast, has a
// 2^256-1 period and passes BigCrush; quality matters here because the
// MaximumProtocol analysis assumes independent Bernoulli(2^r/N) trials.
#pragma once

#include <array>
#include <iterator>
#include <cstdint>

#include "util/types.hpp"

namespace topkmon {

/// SplitMix64 step; used for seeding and for cheap stream derivation.
std::uint64_t splitmix64(std::uint64_t& state) noexcept;

namespace detail {
constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
  return (x << k) | (x >> (64 - k));
}

/// One xoshiro256** step on the state words s0..s3, in place; returns
/// the output. Rng::next_u64 and the random-walk column bank (whose
/// state lives in per-word columns) share this one copy.
inline std::uint64_t xoshiro_next(std::uint64_t& s0, std::uint64_t& s1,
                                  std::uint64_t& s2,
                                  std::uint64_t& s3) noexcept {
  const std::uint64_t result = rotl(s1 * 5, 7) * 9;
  const std::uint64_t t = s1 << 17;
  s2 ^= s0;
  s3 ^= s1;
  s1 ^= s2;
  s0 ^= s3;
  s2 ^= t;
  s3 = rotl(s3, 45);
  return result;
}

/// Uniform integer in [0, n) for n >= 1 from the 64-bit draws of
/// `next`, by Lemire's multiply-shift rejection method: a draw x is
/// rejected while the low word of x*n is below (2^64 - n) mod n.
template <typename Next>
inline std::uint64_t lemire_below(std::uint64_t n, Next&& next) noexcept {
  std::uint64_t x = next();
  __uint128_t m = static_cast<__uint128_t>(x) * n;
  auto l = static_cast<std::uint64_t>(m);
  if (l < n) {
    const std::uint64_t t = (0 - n) % n;
    while (l < t) {
      x = next();
      m = static_cast<__uint128_t>(x) * n;
      l = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}
}  // namespace detail

/// xoshiro256** PRNG with convenience distributions used by the library.
class Rng {
 public:
  /// Seeds the four 64-bit words of state from `seed` via SplitMix64.
  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ull) noexcept;

  /// Next raw 64-bit output. The three hot draws (this one,
  /// uniform_int and uniform_below) are inline so stream generators can
  /// fold them into their per-step loops.
  std::uint64_t next_u64() noexcept {
    return detail::xoshiro_next(s_[0], s_[1], s_[2], s_[3]);
  }

  /// Uniform double in [0, 1) with 53 bits of precision.
  double next_double() noexcept;

  /// Uniform integer in the inclusive range [lo, hi]. Requires lo <= hi.
  /// Width and offset are formed in unsigned arithmetic, so ranges wider
  /// than INT64_MAX are exact too.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) noexcept {
    const auto ulo = static_cast<std::uint64_t>(lo);
    const std::uint64_t span = static_cast<std::uint64_t>(hi) - ulo + 1;
    if (span == 0) {  // full 64-bit range
      return static_cast<std::int64_t>(next_u64());
    }
    return static_cast<std::int64_t>(ulo + uniform_below(span));
  }

  /// Uniform integer in [0, n) for n >= 1, via Lemire's unbiased method.
  std::uint64_t uniform_below(std::uint64_t n) noexcept {
    return detail::lemire_below(n, [this] { return next_u64(); });
  }

  /// Bernoulli trial with probability p (clamped to [0,1]).
  bool bernoulli(double p) noexcept;

  /// Exact Bernoulli(2^r / N) trial for power-of-two N = 2^log_n, r <= log_n.
  /// This is the only coin the paper's nodes are required to support
  /// ("perform Bernoulli trials with success probability 2^i/n"); it is
  /// exact (no floating point) by comparing log_n - r low bits to zero.
  bool bernoulli_pow2(std::uint32_t r, std::uint32_t log_n) noexcept;

  /// Standard normal via Box-Muller (cached second variate).
  double next_gaussian() noexcept;

  /// The four xoshiro256** state words (column banks seed from them).
  const std::array<std::uint64_t, 4>& state() const noexcept { return s_; }

  /// A generator resuming from raw state words `s` (not all zero), with
  /// an empty Gaussian cache.
  static Rng from_state(const std::array<std::uint64_t, 4>& s) noexcept {
    Rng rng;
    rng.s_ = s;
    return rng;
  }

  /// Derives an independent child generator; `stream_id` selects the child.
  /// Children with different ids are statistically independent.
  Rng derive(std::uint64_t stream_id) const noexcept;

  /// Full-state equality: two generators compare equal iff their future
  /// output sequences are identical (state() exposes the words the
  /// differential harness digests to prove a role port consumed exactly
  /// the same coin flips as the frozen lock-step records).
  friend bool operator==(const Rng& a, const Rng& b) noexcept {
    return a.s_ == b.s_ &&
           a.has_cached_gaussian_ == b.has_cached_gaussian_ &&
           (!a.has_cached_gaussian_ ||
            a.cached_gaussian_ == b.cached_gaussian_);
  }
  friend bool operator!=(const Rng& a, const Rng& b) noexcept {
    return !(a == b);
  }

  /// Fisher-Yates shuffle of a random-access range.
  template <typename RandomIt>
  void shuffle(RandomIt first, RandomIt last) noexcept {
    using Diff = typename std::iterator_traits<RandomIt>::difference_type;
    const auto n = static_cast<std::uint64_t>(last - first);
    for (std::uint64_t i = n; i > 1; --i) {
      const auto j = uniform_below(i);
      using std::swap;
      swap(first[static_cast<Diff>(i - 1)], first[static_cast<Diff>(j)]);
    }
  }

 private:
  std::array<std::uint64_t, 4> s_{};
  double cached_gaussian_ = 0.0;
  bool has_cached_gaussian_ = false;
};

}  // namespace topkmon
