// Reflected integer random walk — the canonical "similar to previous
// values" input on which filter-based algorithms should shine (paper §1,
// §2.1). The maximum step size directly controls Δ in the analysis.
//
// Two forms share one arithmetic: RandomWalkStream is one node's walk
// (make_stream, the sparse wrapper's inner walks, hand-built sets), and
// RandomWalkBank is the factory's n-node bank, which keeps the walks in
// flat columns and advances them with a vector kernel. Both draw the
// step with Rng::uniform_int's exact sequence and reflect it with
// reflect_into, so their outputs are bit-identical.
#pragma once

#include <array>
#include <cstdint>
#include <string_view>
#include <vector>

#include "streams/stream.hpp"
#include "util/isa.hpp"

namespace topkmon {

struct RandomWalkParams {
  Value start = 0;
  /// Per-step increment is uniform in [-max_step, +max_step].
  Value max_step = 8;
  /// Walk is reflected into [lo, hi].
  Value lo = 0;
  Value hi = 1'000'000;
};

/// Throws std::invalid_argument unless the walk's arithmetic is exact:
/// lo <= hi, 0 <= max_step <= (INT64_MAX - 1) / 2 (so the step width
/// 2 * max_step + 1 is representable), and both excursions lo - max_step
/// and hi + max_step are representable. With distinct_n > 0 the walk's
/// values also pass through distinct_value with n = distinct_n, so
/// hi * n + n - 1 and lo * n must be representable too. `start` is not
/// checked; it is clamped into [lo, hi].
void validate_walk_params(const RandomWalkParams& p,
                          std::size_t distinct_n = 0);

/// The reflection rule: a value v at most max_step outside [lo, hi]
/// reflects once off the bound it crossed. A step wider than the interval
/// overshoots the far bound and is clamped to it; lo == hi pins v to lo.
/// Written with selects only, so the bank's vector kernel inlines this
/// same rule; both reflected candidates are formed in unsigned arithmetic
/// because they are computed for every lane, also where unused.
inline Value reflect_into(Value v, Value lo, Value hi) noexcept {
  const auto uv = static_cast<std::uint64_t>(v);
  const auto ulo = static_cast<std::uint64_t>(lo);
  const auto uhi = static_cast<std::uint64_t>(hi);
  const auto below = static_cast<Value>(2 * ulo - uv);
  const auto above = static_cast<Value>(2 * uhi - uv);
  const Value off_lo = below < hi ? below : hi;
  const Value off_hi = above > lo ? above : lo;
  return v < lo ? off_lo : (v > hi ? off_hi : v);
}

class RandomWalkStream final : public Stream {
 public:
  /// Throws std::invalid_argument unless validate_walk_params(params)
  /// passes.
  RandomWalkStream(RandomWalkParams params, Rng rng);

  Value next() override;

 private:
  RandomWalkParams p_;
  Rng rng_;
  Value current_;
};

/// Kernel variants of RandomWalkBank::advance_all_masked: the same loop
/// body compiled for each ISA level (util/isa.hpp).
using WalkKernel = IsaLevel;

/// "baseline", "avx2", "x86-64-v4".
inline std::string_view kernel_name(WalkKernel kernel) noexcept {
  return isa_name(kernel);
}

/// n random walks sharing one RandomWalkParams (only the starts differ),
/// stored as columns: the four xoshiro256** state words, the current
/// value, and a rejection flag per node. advance_all_masked advances
/// every walk with one branch-free loop, vectorized across nodes, that
/// also packs the change mask (new != previous observation) 64 lanes to
/// a word (StreamBank::advance_all runs it into a scratch mask).
/// advance(id) takes the scalar step on one column lane. Outputs, and
/// every node's RNG draws, are identical to a RandomWalkStream per node.
class RandomWalkBank final : public StreamBank {
 public:
  /// n walks over `params` (its start is ignored: set_walk sets each
  /// node's), each at `lo` with an unseeded state until set_walk; with
  /// `distinct`, observations pass through distinct_value. Throws
  /// std::invalid_argument if validate_walk_params(params, distinct ? n
  /// : 0) fails or n == 0. Runs the best kernel the host CPU supports.
  RandomWalkBank(const RandomWalkParams& params, std::size_t n,
                 bool distinct);

  /// Node `id`'s walk starts at `start` (clamped into [lo, hi]) and draws
  /// from the xoshiro256** state words `state`, as
  /// RandomWalkStream({start, ...}, Rng::from_state(state)) would.
  void set_walk(NodeId id, Value start,
                const std::array<std::uint64_t, 4>& state);

  /// Kernels the host CPU can run, baseline first, best last.
  static std::vector<WalkKernel> host_kernels();

  /// The kernel advance_all_masked runs.
  WalkKernel kernel() const noexcept { return kernel_; }

  /// Selects `kernel` (tests and micro benchmarks compare variants).
  /// Throws std::invalid_argument unless the host CPU supports it.
  void set_kernel(WalkKernel kernel);

  std::size_t size() const noexcept override { return cur_.size(); }
  Value advance(NodeId id) override;
  void advance_all_masked(std::span<Value> values,
                          std::span<std::uint64_t> changed) override;

 private:
  /// The draw, step and reflection of lane i through the full-width
  /// scalar path (detail::lemire_below). It also completes a lane the
  /// vector pass rejected: cur_[i] still holds the old value there and
  /// the rejected draw is consumed, so lemire_below from the lane's state
  /// accepts the first later draw at or above the threshold — the draw
  /// Rng::uniform_below's retry loop would accept.
  void scalar_step(std::size_t i) noexcept;

  Value observe(std::size_t i) const noexcept {
    return distinct_ ? distinct_value(cur_[i], static_cast<NodeId>(i),
                                      static_cast<Value>(size()))
                     : cur_[i];
  }

  std::vector<std::uint64_t> s0_, s1_, s2_, s3_;  ///< xoshiro state words
  std::vector<Value> cur_;                        ///< current values
  /// Lanes the last vector pass rejected. 32-bit rather than bytes: GCC
  /// sizes the vector loop by its narrowest column, and byte flags made
  /// it 32 or 64 lanes wide, spilling the state words.
  std::vector<std::uint32_t> rejected_;
  Value max_step_, lo_, hi_;
  std::uint64_t span_;       ///< draws are below 2 * max_step + 1
  std::uint64_t threshold_;  ///< Lemire rejection bound (2^64 - span) % span
  bool distinct_;
  WalkKernel kernel_;
};

}  // namespace topkmon
