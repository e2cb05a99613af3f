#include "streams/random_walk.hpp"

#include <algorithm>
#include <stdexcept>

namespace topkmon {

RandomWalkStream::RandomWalkStream(RandomWalkParams params, Rng rng)
    : p_(params),
      rng_(rng),
      current_(params.start) {
  if (p_.lo > p_.hi || p_.max_step < 0) {
    throw std::invalid_argument("RandomWalkStream: invalid bounds");
  }
  // Clamp only after the check: std::clamp requires lo <= hi.
  current_ = std::clamp(current_, p_.lo, p_.hi);
}

Value RandomWalkStream::next() {
  current_ += rng_.uniform_int(-p_.max_step, p_.max_step);
  // Reflect once into [lo, hi]. A step wider than the interval can
  // overshoot the reflection; the std::min/std::max after each
  // reflection clamp that case to the far bound, so the value always
  // stays in range.
  const Value width = p_.hi - p_.lo;
  if (width == 0) {
    current_ = p_.lo;
  } else {
    if (current_ < p_.lo) {
      current_ = std::min(p_.lo + (p_.lo - current_), p_.hi);
    }
    if (current_ > p_.hi) {
      current_ = std::max(p_.hi - (current_ - p_.hi), p_.lo);
    }
  }
  return current_;
}

template class TypedBank<RandomWalkStream>;

}  // namespace topkmon
