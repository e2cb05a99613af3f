#include "util/rng.hpp"

#include <cmath>

namespace topkmon {

Rng::Rng(std::uint64_t seed) noexcept {
  std::uint64_t sm = seed;
  for (auto& word : s_) word = splitmix64(sm);
  // All-zero state is the one invalid xoshiro state; splitmix64 cannot
  // produce four zero outputs in a row, but guard anyway.
  if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) s_[0] = 1;
}

double Rng::next_double() noexcept {
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

bool Rng::bernoulli(double p) noexcept {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return next_double() < p;
}

bool Rng::bernoulli_pow2(std::uint32_t r, std::uint32_t log_n) noexcept {
  if (r >= log_n) return true;  // probability 2^r/2^log_n >= 1
  // Success iff the low (log_n - r) bits of a uniform draw are all zero:
  // that event has probability exactly 2^-(log_n - r) = 2^r / N.
  const std::uint32_t bits = log_n - r;
  const std::uint64_t mask = (bits >= 64) ? ~0ull : ((1ull << bits) - 1);
  return (next_u64() & mask) == 0;
}

double Rng::next_gaussian() noexcept {
  if (has_cached_gaussian_) {
    has_cached_gaussian_ = false;
    return cached_gaussian_;
  }
  double u1 = 0.0;
  do {
    u1 = next_double();
  } while (u1 <= 0.0);
  const double u2 = next_double();
  const double radius = std::sqrt(-2.0 * std::log(u1));
  const double angle = 2.0 * 3.14159265358979323846 * u2;
  cached_gaussian_ = radius * std::sin(angle);
  has_cached_gaussian_ = true;
  return radius * std::cos(angle);
}

Rng Rng::derive(std::uint64_t stream_id) const noexcept {
  // Mix the child id with fresh words drawn from a copy of our state; the
  // parent instance is left untouched so derivation is repeatable.
  std::uint64_t mix =
      s_[0] ^ detail::rotl(s_[2], 13) ^ (stream_id * 0x9E3779B97F4A7C15ull);
  std::uint64_t sm = mix;
  (void)splitmix64(sm);
  return Rng(splitmix64(sm) ^ detail::rotl(stream_id, 31));
}

}  // namespace topkmon
