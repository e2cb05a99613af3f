// Skewed / heavy-tailed inputs.
//
// ZipfSampler draws ranks 1..M with P(r) ∝ r^-s via inverse-CDF binary
// search over a precomputed table (exact, O(log M) per draw). Heavy-tailed
// value streams model workloads like per-flow packet counters where a few
// nodes dominate — the regime the paper's intro motivates (top-k of
// frequencies).
#pragma once

#include <cstddef>
#include <vector>

#include "streams/stream.hpp"

namespace topkmon {

/// Exact bounded Zipf(s, M) rank sampler.
class ZipfSampler {
 public:
  /// Ranks 1..num_ranks, exponent s >= 0 (s = 0 is uniform).
  ZipfSampler(std::size_t num_ranks, double s);

  /// Draws a rank in [1, num_ranks].
  std::size_t sample(Rng& rng) const;

  std::size_t num_ranks() const noexcept { return cdf_.size(); }

 private:
  std::vector<double> cdf_;  // cdf_[i] = P(rank <= i+1), cdf_.back() == 1
};

/// Stream of iid Zipf-distributed values: value = value_of_rank(r) where
/// rank 1 maps to `peak` and rank M to `peak / M` (monotone decreasing), so
/// larger values are exponentially rarer.
class ZipfStream final : public Stream {
 public:
  ZipfStream(std::size_t num_ranks, double s, Value peak, Rng rng);

  Value next() override;

 private:
  ZipfSampler sampler_;
  Value peak_;
  Rng rng_;
};

/// Pareto (continuous heavy tail) stream: v = floor(xm / u^{1/alpha}),
/// clamped to `cap`. Produces occasional huge spikes over a stable base —
/// stress input for filter resets.
class ParetoStream final : public Stream {
 public:
  ParetoStream(Value xm, double alpha, Value cap, Rng rng);

  Value next() override;

 private:
  Value xm_;
  double alpha_;
  Value cap_;
  Rng rng_;
};

extern template class TypedBank<ZipfStream>;
extern template class TypedBank<ParetoStream>;

}  // namespace topkmon
