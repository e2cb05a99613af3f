#include "streams/sinusoidal.hpp"

#include <cmath>
#include <stdexcept>

namespace topkmon {

SinusoidalStream::SinusoidalStream(SinusoidalParams params, Rng rng)
    : p_(params), rng_(rng) {
  if (p_.period <= 0.0) {
    throw std::invalid_argument("SinusoidalStream: period must be positive");
  }
}

Value SinusoidalStream::next() {
  constexpr double kTau = 6.28318530717958647692;
  const double angle =
      kTau * (static_cast<double>(t_) + p_.phase) / p_.period;
  double v = p_.offset + p_.amplitude * std::sin(angle);
  if (p_.noise_sigma > 0.0) v += p_.noise_sigma * rng_.next_gaussian();
  ++t_;
  return static_cast<Value>(std::llround(v));
}

template class TypedBank<SinusoidalStream>;

}  // namespace topkmon
