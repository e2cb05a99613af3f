// Phase-shifted sinusoidal streams — a stylized model of periodic sensor
// readings (temperature, load). With distinct phases, the identity of the
// top-k rotates slowly and predictably; filters are violated in bursts
// around crossings.
#pragma once

#include "streams/stream.hpp"

namespace topkmon {

struct SinusoidalParams {
  double offset = 1000.0;     ///< vertical offset of the wave
  double amplitude = 500.0;   ///< peak deviation from the offset
  double period = 200.0;      ///< steps per full cycle
  double phase = 0.0;         ///< phase shift in steps
  double noise_sigma = 0.0;   ///< additive Gaussian noise
};

class SinusoidalStream final : public Stream {
 public:
  SinusoidalStream(SinusoidalParams params, Rng rng);

  Value next() override;

 private:
  SinusoidalParams p_;
  Rng rng_;
  std::uint64_t t_ = 0;
};

extern template class TypedBank<SinusoidalStream>;

}  // namespace topkmon
