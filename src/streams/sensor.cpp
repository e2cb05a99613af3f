#include "streams/sensor.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace topkmon {

SensorStream::SensorStream(SensorParams params, Rng rng)
    : p_(params), rng_(rng) {
  if (p_.diurnal_period <= 0.0 || p_.lo > p_.hi || p_.walk_step < 0) {
    throw std::invalid_argument("SensorStream: invalid parameters");
  }
}

Value SensorStream::next() {
  constexpr double kTau = 6.28318530717958647692;
  // Mean-reverting fluctuation: drift one unit back toward zero, then step.
  if (walk_ > 0) --walk_;
  else if (walk_ < 0) ++walk_;
  walk_ += rng_.uniform_int(-p_.walk_step, p_.walk_step);

  if (spike_left_ > 0) {
    --spike_left_;
  } else if (rng_.bernoulli(p_.spike_prob)) {
    spike_left_ = static_cast<std::uint32_t>(rng_.uniform_int(3, 12));
  }

  const double diurnal =
      p_.diurnal_amplitude *
      std::sin(kTau * (static_cast<double>(t_) + p_.phase) / p_.diurnal_period);
  ++t_;

  double v = p_.base + diurnal + static_cast<double>(walk_);
  if (spike_left_ > 0) v += static_cast<double>(p_.spike_magnitude);
  const auto rounded = static_cast<Value>(std::llround(v));
  return std::clamp(rounded, p_.lo, p_.hi);
}

template class TypedBank<SensorStream>;

}  // namespace topkmon
