// Fundamental value types shared by every subsystem.
//
// The paper's model: n nodes with ids {1..n} observe values v_i^t in N.
// We use 0-based 32-bit node ids and signed 64-bit values (filters need
// -inf/+inf sentinels; signed arithmetic keeps midpoint computations simple).
#pragma once

#include <cstdint>
#include <limits>

namespace topkmon {

/// Identifier of a distributed node. Nodes are numbered 0..n-1; the
/// coordinator is not a node and has no id.
using NodeId = std::uint32_t;

/// A value observed on a data stream. The paper assumes naturals; we allow
/// the full signed range so midpoints and sentinel infinities are exact.
using Value = std::int64_t;

/// Discrete time step of the synchronized observation clock.
using TimeStep = std::uint64_t;

/// Sentinel for the lower filter bound "-infinity" (Definition 2.1 allows
/// filter intervals over N ∪ {-inf, +inf}).
inline constexpr Value kMinusInf = std::numeric_limits<Value>::min();

/// Sentinel for the upper filter bound "+infinity".
inline constexpr Value kPlusInf = std::numeric_limits<Value>::max();

/// Overflow-safe midpoint of two values, rounding toward the lower value.
/// Used when halving the gap between T+ and T- (Algorithm 1, line 32).
constexpr Value midpoint(Value lo, Value hi) noexcept {
  // floor((lo + hi) / 2) without overflow, valid for any ordering of inputs.
  return lo / 2 + hi / 2 + (lo % 2 + hi % 2) / 2;
}

/// True if `v` lies in the closed interval [lo, hi].
constexpr bool in_closed(Value v, Value lo, Value hi) noexcept {
  return lo <= v && v <= hi;
}

/// Smallest power of two >= x (x >= 1). Used to pick the protocol bound N.
constexpr std::uint64_t next_pow2(std::uint64_t x) noexcept {
  if (x <= 1) return 1;
  --x;
  x |= x >> 1;
  x |= x >> 2;
  x |= x >> 4;
  x |= x >> 8;
  x |= x >> 16;
  x |= x >> 32;
  return x + 1;
}

/// Precomputed divisor for fastmod_u32: exact `x % d` for every 32-bit x
/// and 1 <= d <= 2^32 with one 64-bit and one 128-bit multiply instead of
/// a 64-bit divide (Lemire, Kaser & Kurz, "Faster Remainder by Direct
/// Computation", 2019).
struct FastMod32 {
  std::uint64_t d = 1;
  std::uint64_t magic = 0;  // ceil(2^64 / d), wrapping to 0 for d = 1

  constexpr FastMod32() noexcept = default;
  constexpr explicit FastMod32(std::uint64_t divisor) noexcept
      : d(divisor), magic(~std::uint64_t{0} / divisor + 1) {}

  /// x % d.
  constexpr std::uint32_t mod(std::uint32_t x) const noexcept {
    const std::uint64_t low = magic * x;
    return static_cast<std::uint32_t>(
        (static_cast<unsigned __int128>(low) * d) >> 64);
  }
};

/// floor(log2(x)) for x >= 1.
constexpr std::uint32_t floor_log2(std::uint64_t x) noexcept {
  std::uint32_t r = 0;
  while (x >>= 1) ++r;
  return r;
}

/// ceil(log2(x)) for x >= 1.
constexpr std::uint32_t ceil_log2(std::uint64_t x) noexcept {
  return x <= 1 ? 0 : floor_log2(x - 1) + 1;
}

}  // namespace topkmon
