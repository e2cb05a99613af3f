#include "core/frame_kernels.hpp"

#include <algorithm>
#include <bit>

#include "util/bitset.hpp"

namespace topkmon {

namespace {

/// Bit j set iff v[j] lies outside q[j], for j < len <= 64. Branch-free;
/// full words pass len = 64, a constant once inlined.
[[gnu::always_inline]] inline std::uint64_t outside_bits(
    const Value* __restrict v, const QuietRange* __restrict q,
    std::size_t len) noexcept {
  std::uint64_t bits = 0;
  for (std::size_t j = 0; j < len; ++j) {
    const std::uint64_t out = static_cast<std::uint64_t>(v[j] < q[j].lo) |
                              static_cast<std::uint64_t>(v[j] > q[j].hi);
    bits |= kWordBit[j] & (0 - out);
  }
  return bits;
}

/// The range pass over words of candidates (moved, alive, bit clear). A
/// word with fewer than kLaneCompareMinBits candidates tests them one by
/// one, a denser word compares all 64 lanes; kLaneCompareMinBits > 64
/// never compares lanes. The cut-over is where the two cost the same per
/// word (BM_DriverStepDensity, BM_DriverRangePass; docs/architecture.md,
/// "The sparse event loop").
template <int kLaneCompareMinBits>
[[gnu::always_inline]] inline void range_pass(
    std::span<const Value> values, std::span<const QuietRange> quiet,
    std::span<const std::uint64_t> changed,
    std::span<const std::uint64_t> alive,
    std::span<std::uint64_t> needs) noexcept {
  const std::size_t n = values.size();
  for (std::size_t w = 0; w < needs.size(); ++w) {
    std::uint64_t cand = changed[w] & ~needs[w];
    if (!alive.empty()) cand &= alive[w];
    if (cand == 0) continue;
    const std::size_t base = w * 64;
    if (kLaneCompareMinBits > 64 ||
        std::popcount(cand) < kLaneCompareMinBits) {
      std::uint64_t out = 0;
      for (std::uint64_t bits = cand; bits != 0; bits &= bits - 1) {
        const std::size_t i = base + std::countr_zero(bits);
        if (!quiet[i].contains(values[i])) out |= bits & (0 - bits);
      }
      needs[w] |= out;
      continue;
    }
    const Value* v = values.data() + base;
    const QuietRange* q = quiet.data() + base;
    const std::size_t len = std::min<std::size_t>(64, n - base);
    needs[w] |= cand & (len == 64 ? outside_bits(v, q, 64)
                                  : outside_bits(v, q, len));
  }
}

/// dst[j] = src[j] where bit j of m is set, j < len <= 64. Branch-free
/// select in unsigned arithmetic.
[[gnu::always_inline]] inline void blend_word(std::uint64_t m,
                                              const Value* __restrict src,
                                              Value* __restrict dst,
                                              std::size_t len) noexcept {
  for (std::size_t j = 0; j < len; ++j) {
    const std::uint64_t take =
        0 - static_cast<std::uint64_t>((m & kWordBit[j]) != 0);
    dst[j] = static_cast<Value>((static_cast<std::uint64_t>(src[j]) & take) |
                                (static_cast<std::uint64_t>(dst[j]) & ~take));
  }
}

[[gnu::always_inline]] inline void copy_pass(
    std::span<const std::uint64_t> mask, std::span<const Value> src,
    std::span<Value> dst) noexcept {
  const std::size_t n = dst.size();
  for (std::size_t w = 0; w < mask.size(); ++w) {
    const std::uint64_t m = mask[w];
    if (m == 0) continue;
    const std::size_t base = w * 64;
    const std::size_t len = std::min<std::size_t>(64, n - base);
    if (len == 64) {
      blend_word(m, src.data() + base, dst.data() + base, 64);
    } else {
      blend_word(m, src.data() + base, dst.data() + base, len);
    }
  }
}

// One body per kernel, three compilations (util/isa.hpp). The range
// pass's cut-over differs per level: a 64-lane compare costs about as
// much as 16 single tests on x86-64-v4 and AVX2, and more than 64 on
// baseline x86-64, where SSE2 has no 64-bit compare.
#if defined(__x86_64__)
[[gnu::target("arch=x86-64-v4")]] void range_x86_64_v4(
    std::span<const Value> values, std::span<const QuietRange> quiet,
    std::span<const std::uint64_t> changed,
    std::span<const std::uint64_t> alive, std::span<std::uint64_t> needs) {
  range_pass<16>(values, quiet, changed, alive, needs);
}

[[gnu::target("avx2,popcnt")]] void range_avx2(
    std::span<const Value> values, std::span<const QuietRange> quiet,
    std::span<const std::uint64_t> changed,
    std::span<const std::uint64_t> alive, std::span<std::uint64_t> needs) {
  range_pass<16>(values, quiet, changed, alive, needs);
}

[[gnu::target("arch=x86-64-v4")]] void copy_x86_64_v4(
    std::span<const std::uint64_t> mask, std::span<const Value> src,
    std::span<Value> dst) {
  copy_pass(mask, src, dst);
}

[[gnu::target("avx2")]] void copy_avx2(std::span<const std::uint64_t> mask,
                                       std::span<const Value> src,
                                       std::span<Value> dst) {
  copy_pass(mask, src, dst);
}
#endif

void range_baseline(std::span<const Value> values,
                    std::span<const QuietRange> quiet,
                    std::span<const std::uint64_t> changed,
                    std::span<const std::uint64_t> alive,
                    std::span<std::uint64_t> needs) {
  range_pass<65>(values, quiet, changed, alive, needs);
}

void copy_baseline(std::span<const std::uint64_t> mask,
                   std::span<const Value> src, std::span<Value> dst) {
  copy_pass(mask, src, dst);
}

}  // namespace

void mark_out_of_range(IsaLevel isa, std::span<const Value> values,
                       std::span<const QuietRange> quiet,
                       std::span<const std::uint64_t> changed,
                       std::span<const std::uint64_t> alive,
                       std::span<std::uint64_t> needs) noexcept {
  switch (isa) {
#if defined(__x86_64__)
    case IsaLevel::kX86_64_v4:
      return range_x86_64_v4(values, quiet, changed, alive, needs);
    case IsaLevel::kAvx2:
      return range_avx2(values, quiet, changed, alive, needs);
#endif
    default:
      return range_baseline(values, quiet, changed, alive, needs);
  }
}

void copy_masked(IsaLevel isa, std::span<const std::uint64_t> mask,
                 std::span<const Value> src, std::span<Value> dst) noexcept {
  switch (isa) {
#if defined(__x86_64__)
    case IsaLevel::kX86_64_v4:
      return copy_x86_64_v4(mask, src, dst);
    case IsaLevel::kAvx2:
      return copy_avx2(mask, src, dst);
#endif
    default:
      return copy_baseline(mask, src, dst);
  }
}

}  // namespace topkmon
