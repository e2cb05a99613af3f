// Reflected integer random walk — the canonical "similar to previous
// values" input on which filter-based algorithms should shine (paper §1,
// §2.1). The maximum step size directly controls Δ in the analysis.
#pragma once

#include "streams/stream.hpp"

namespace topkmon {

struct RandomWalkParams {
  Value start = 0;
  /// Per-step increment is uniform in [-max_step, +max_step].
  Value max_step = 8;
  /// Walk is reflected into [lo, hi].
  Value lo = 0;
  Value hi = 1'000'000;
};

class RandomWalkStream final : public Stream {
 public:
  RandomWalkStream(RandomWalkParams params, Rng rng);

  Value next() override;

 private:
  RandomWalkParams p_;
  Rng rng_;
  Value current_;
};

extern template class TypedBank<RandomWalkStream>;

}  // namespace topkmon
