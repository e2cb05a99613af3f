// Independent identically distributed streams: fresh draws every step,
// i.e. no temporal similarity for filters to exploit. Used as a stress
// input where per-round recomputation is near-optimal (paper §2.1).
#pragma once

#include "streams/stream.hpp"

namespace topkmon {

/// Uniform integer draws from [lo, hi] each step.
class IidUniformStream final : public Stream {
 public:
  IidUniformStream(Value lo, Value hi, Rng rng);

  Value next() override;

 private:
  Value lo_;
  Value hi_;
  Rng rng_;
};

/// Rounded Gaussian draws (mean, sigma), clamped to [lo, hi].
class IidGaussianStream final : public Stream {
 public:
  IidGaussianStream(double mean, double sigma, Value lo, Value hi, Rng rng);

  Value next() override;

 private:
  double mean_;
  double sigma_;
  Value lo_;
  Value hi_;
  Rng rng_;
};

extern template class TypedBank<IidUniformStream>;
extern template class TypedBank<IidGaussianStream>;

}  // namespace topkmon
