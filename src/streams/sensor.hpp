// Composite "environmental sensor" stream: bounded random walk plus a
// diurnal sinusoidal drift plus rare spikes. This is the application the
// paper's summary highlights (temperature-like values naturally bounded by
// the domain, where the approach "performs quite well").
#pragma once

#include "streams/stream.hpp"

namespace topkmon {

struct SensorParams {
  double base = 180.0;          ///< long-run mean (e.g. tenths of a degree)
  double diurnal_amplitude = 60.0;
  double diurnal_period = 1440.0;  ///< steps per simulated day
  double phase = 0.0;
  Value walk_step = 3;          ///< local fluctuation magnitude
  double spike_prob = 0.001;    ///< probability of a transient spike
  Value spike_magnitude = 120;
  Value lo = -400;
  Value hi = 1'200;
};

class SensorStream final : public Stream {
 public:
  SensorStream(SensorParams params, Rng rng);

  Value next() override;

 private:
  SensorParams p_;
  Rng rng_;
  Value walk_ = 0;       ///< mean-reverting local fluctuation
  std::uint64_t t_ = 0;
  std::uint32_t spike_left_ = 0;
};

extern template class TypedBank<SensorStream>;

}  // namespace topkmon
