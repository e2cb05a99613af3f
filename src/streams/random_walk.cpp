#include "streams/random_walk.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <string>

namespace topkmon {

void validate_walk_params(const RandomWalkParams& p, std::size_t distinct_n) {
  constexpr Value kMax = std::numeric_limits<Value>::max();
  constexpr Value kMin = std::numeric_limits<Value>::min();
  if (p.lo > p.hi || p.max_step < 0) {
    throw std::invalid_argument("random walk: invalid bounds");
  }
  if (p.max_step > (kMax - 1) / 2) {
    throw std::invalid_argument("random walk: max_step too large");
  }
  if (p.hi > kMax - p.max_step || p.lo < kMin + p.max_step) {
    throw std::invalid_argument(
        "random walk: a step from the bounds leaves the value range");
  }
  if (distinct_n == 0) return;
  const auto vn = static_cast<Value>(distinct_n);
  Value top = 0, bottom = 0;
  if (__builtin_mul_overflow(p.hi, vn, &top) ||
      __builtin_add_overflow(top, vn - 1, &top) ||
      __builtin_mul_overflow(p.lo, vn, &bottom)) {
    throw std::invalid_argument(
        "random walk: distinct values of the bounds leave the value range");
  }
}

RandomWalkStream::RandomWalkStream(RandomWalkParams params, Rng rng)
    : p_(params), rng_(rng), current_(params.start) {
  validate_walk_params(p_);
  // Clamp only after the check: std::clamp requires lo <= hi.
  current_ = std::clamp(current_, p_.lo, p_.hi);
}

Value RandomWalkStream::next() {
  current_ = reflect_into(
      current_ + rng_.uniform_int(-p_.max_step, p_.max_step), p_.lo, p_.hi);
  return current_;
}

namespace {

/// Column pointers and per-bank constants of one vector pass.
struct WalkPass {
  std::uint64_t* s0;
  std::uint64_t* s1;
  std::uint64_t* s2;
  std::uint64_t* s3;
  Value* cur;
  std::uint32_t* rejected;
  Value* out;
  std::uint64_t* mask;
  std::size_t n;
  Value max_step, lo, hi;
  std::uint32_t span;  ///< 2 * max_step + 1 < 2^32
  std::uint64_t threshold;
};

/// Advances lanes [base, base + len) once, len <= 64: the xoshiro step,
/// Lemire's draw below span, reflect_into, and distinct_value. out[i]
/// holds lane i's previous observation on entry; the returned word has
/// bit i - base set iff the lane's new observation differs from it. A
/// lane whose draw falls in Lemire's rejection zone keeps its old value
/// and observation (bit clear) and sets its flag for the scalar fix-up;
/// `any` collects the flags. No branch depends on a lane, so the loop
/// vectorizes across nodes; full blocks pass len = 64, a constant once
/// inlined.
template <bool kDistinct>
[[gnu::always_inline]] inline std::uint64_t walk_block(
    std::uint64_t* __restrict s0, std::uint64_t* __restrict s1,
    std::uint64_t* __restrict s2, std::uint64_t* __restrict s3,
    Value* __restrict cur, std::uint32_t* __restrict rejected,
    Value* __restrict out, std::size_t base, std::size_t len,
    const WalkPass& p, std::uint64_t& any) noexcept {
  const std::uint32_t span = p.span;
  const auto max_step = static_cast<std::uint64_t>(p.max_step);
  const Value lo = p.lo, hi = p.hi, vn = static_cast<Value>(p.n);
  const std::uint64_t threshold = p.threshold;
  std::uint64_t changed = 0;
  std::uint64_t rejects = 0;
  for (std::size_t j = 0; j < len; ++j) {
    const std::size_t i = base + j;
    std::uint64_t a = s0[i], b = s1[i], c = s2[i], d = s3[i];
    const std::uint64_t x = detail::xoshiro_next(a, b, c, d);
    s0[i] = a;
    s1[i] = b;
    s2[i] = c;
    s3[i] = d;
    // The 128-bit x * span from two 32x32->64 products, exact while
    // span < 2^32: x * span = (hi32(x) * span) * 2^32 + lo32(x) * span.
    const std::uint64_t low_prod =
        std::uint64_t{static_cast<std::uint32_t>(x)} * span;
    const std::uint64_t mid =
        std::uint64_t{static_cast<std::uint32_t>(x >> 32)} * span +
        (low_prod >> 32);
    const std::uint64_t low = (mid << 32) | (low_prod & 0xFFFFFFFFu);
    const std::uint64_t reject = low < threshold;
    const Value old = cur[i];
    // old + (draw - max_step) with draw = mid >> 32, the high word.
    const auto moved = static_cast<Value>(static_cast<std::uint64_t>(old) +
                                          (mid >> 32) - max_step);
    const Value v = reject ? old : reflect_into(moved, lo, hi);
    cur[i] = v;
    rejected[i] = static_cast<std::uint32_t>(reject);
    rejects |= reject;
    const Value prev = out[i];
    const Value fresh =
        kDistinct ? distinct_value(v, static_cast<NodeId>(i), vn) : v;
    // Rejected lanes keep their previous observation (bitwise select:
    // GCC does not if-convert the conditional form here).
    const std::uint64_t keep = 0 - reject;
    const auto obs = static_cast<Value>(
        (static_cast<std::uint64_t>(prev) & keep) |
        (static_cast<std::uint64_t>(fresh) & ~keep));
    out[i] = obs;
    changed |= kWordBit[j] & (0 - static_cast<std::uint64_t>(obs != prev));
  }
  any |= rejects;
  return changed;
}

/// Advances every lane once, writing the observations to p.out and the
/// change mask to p.mask (one word per 64 lanes). Returns true if any
/// lane was rejected.
template <bool kDistinct>
[[gnu::always_inline]] inline bool walk_lanes(
    std::uint64_t* __restrict s0, std::uint64_t* __restrict s1,
    std::uint64_t* __restrict s2, std::uint64_t* __restrict s3,
    Value* __restrict cur, std::uint32_t* __restrict rejected,
    Value* __restrict out, std::uint64_t* __restrict mask,
    const WalkPass& p) noexcept {
  const std::size_t full = p.n / 64;
  std::uint64_t any = 0;
  for (std::size_t w = 0; w < full; ++w) {
    mask[w] = walk_block<kDistinct>(s0, s1, s2, s3, cur, rejected, out,
                                    w * 64, 64, p, any);
  }
  if (p.n % 64 != 0) {
    mask[full] = walk_block<kDistinct>(s0, s1, s2, s3, cur, rejected, out,
                                       full * 64, p.n % 64, p, any);
  }
  return any != 0;
}

// The columns reach walk_lanes as __restrict parameters: GCC ignores
// __restrict on local pointer variables, and without it the loop needs
// more run-time alias checks than the vectorizer allows.
[[gnu::always_inline]] inline bool walk_pass(const WalkPass& p,
                                             bool distinct) noexcept {
  return distinct ? walk_lanes<true>(p.s0, p.s1, p.s2, p.s3, p.cur,
                                     p.rejected, p.out, p.mask, p)
                  : walk_lanes<false>(p.s0, p.s1, p.s2, p.s3, p.cur,
                                      p.rejected, p.out, p.mask, p);
}

// One body, three compilations (util/isa.hpp).
#if defined(__x86_64__)
[[gnu::target("arch=x86-64-v4")]] bool pass_x86_64_v4(const WalkPass& p,
                                                       bool distinct) {
  return walk_pass(p, distinct);
}

[[gnu::target("avx2")]] bool pass_avx2(const WalkPass& p, bool distinct) {
  return walk_pass(p, distinct);
}
#endif

bool pass_baseline(const WalkPass& p, bool distinct) {
  return walk_pass(p, distinct);
}

}  // namespace

std::vector<WalkKernel> RandomWalkBank::host_kernels() {
  return host_isa_levels();
}

RandomWalkBank::RandomWalkBank(const RandomWalkParams& params, std::size_t n,
                               bool distinct)
    : s0_(n),
      s1_(n),
      s2_(n),
      s3_(n),
      cur_(n, params.lo),
      rejected_(n),
      max_step_(params.max_step),
      lo_(params.lo),
      hi_(params.hi),
      span_(2 * static_cast<std::uint64_t>(params.max_step) + 1),
      threshold_((0 - span_) % span_),
      distinct_(distinct),
      kernel_(best_host_isa()) {
  validate_walk_params(params, distinct ? n : 0);
  if (n == 0) throw std::invalid_argument("RandomWalkBank: n == 0");
}

void RandomWalkBank::set_walk(NodeId id, Value start,
                              const std::array<std::uint64_t, 4>& state) {
  if (id >= size()) throw std::out_of_range("RandomWalkBank: bad id");
  s0_[id] = state[0];
  s1_[id] = state[1];
  s2_[id] = state[2];
  s3_[id] = state[3];
  cur_[id] = std::clamp(start, lo_, hi_);
}

void RandomWalkBank::set_kernel(WalkKernel kernel) {
  if (!host_supports(kernel)) {
    throw std::invalid_argument("RandomWalkBank: kernel '" +
                                std::string(kernel_name(kernel)) +
                                "' not supported by this CPU");
  }
  kernel_ = kernel;
}

void RandomWalkBank::scalar_step(std::size_t i) noexcept {
  const auto next = [&] {
    return detail::xoshiro_next(s0_[i], s1_[i], s2_[i], s3_[i]);
  };
  const std::uint64_t draw = detail::lemire_below(span_, next);
  // cur + (draw - max_step), as Rng::uniform_int(-max_step, max_step).
  cur_[i] = reflect_into(
      cur_[i] + (static_cast<Value>(draw) - max_step_), lo_, hi_);
}

Value RandomWalkBank::advance(NodeId id) {
  scalar_step(id);
  return observe(id);
}

void RandomWalkBank::advance_all_masked(std::span<Value> values,
                                        std::span<std::uint64_t> changed) {
  const std::size_t n = size();
  const auto finish_lane = [&](std::size_t i) {
    const Value prev = values[i];
    scalar_step(i);
    values[i] = observe(i);
    if (values[i] != prev) changed[i / 64] |= kWordBit[i % 64];
  };
  if (span_ > std::numeric_limits<std::uint32_t>::max()) {
    // The 32-bit product split is inexact: every lane takes the scalar
    // step over the same columns.
    std::fill(changed.begin(), changed.end(), 0);
    for (std::size_t i = 0; i < n; ++i) finish_lane(i);
    return;
  }
  const WalkPass pass{
      .s0 = s0_.data(),
      .s1 = s1_.data(),
      .s2 = s2_.data(),
      .s3 = s3_.data(),
      .cur = cur_.data(),
      .rejected = rejected_.data(),
      .out = values.data(),
      .mask = changed.data(),
      .n = n,
      .max_step = max_step_,
      .lo = lo_,
      .hi = hi_,
      .span = static_cast<std::uint32_t>(span_),
      .threshold = threshold_,
  };
  bool any_rejected = false;
  switch (kernel_) {
#if defined(__x86_64__)
    case WalkKernel::kX86_64_v4:
      any_rejected = pass_x86_64_v4(pass, distinct_);
      break;
    case WalkKernel::kAvx2:
      any_rejected = pass_avx2(pass, distinct_);
      break;
#endif
    default:
      any_rejected = pass_baseline(pass, distinct_);
      break;
  }
  // Rejections are rare (each draw lands in the zone with probability
  // below 2^-32): finish those lanes with the scalar continuation. The
  // vector pass left their observation and mask bit untouched.
  if (any_rejected) {
    for (std::size_t i = 0; i < n; ++i) {
      if (rejected_[i] != 0) finish_lane(i);
    }
  }
}

}  // namespace topkmon
