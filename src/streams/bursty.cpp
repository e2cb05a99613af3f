#include "streams/bursty.hpp"

#include <algorithm>
#include <stdexcept>

namespace topkmon {

BurstyStream::BurstyStream(BurstyParams params, Rng rng)
    : p_(params),
      rng_(rng),
      current_(params.start) {
  if (p_.lo > p_.hi || p_.calm_step < 0 || p_.burst_step < 0) {
    throw std::invalid_argument("BurstyStream: invalid parameters");
  }
  // Clamp only after the check: std::clamp requires lo <= hi.
  current_ = std::clamp(current_, p_.lo, p_.hi);
}

Value BurstyStream::next() {
  if (bursting_) {
    if (rng_.bernoulli(p_.p_exit_burst)) bursting_ = false;
  } else {
    if (rng_.bernoulli(p_.p_enter_burst)) bursting_ = true;
  }
  const Value step = bursting_ ? p_.burst_step : p_.calm_step;
  current_ += rng_.uniform_int(-step, step);
  current_ = std::clamp(current_, p_.lo, p_.hi);
  return current_;
}

template class TypedBank<BurstyStream>;

}  // namespace topkmon
