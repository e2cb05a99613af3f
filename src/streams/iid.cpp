#include "streams/iid.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace topkmon {

IidUniformStream::IidUniformStream(Value lo, Value hi, Rng rng)
    : lo_(lo), hi_(hi), rng_(rng) {
  if (lo > hi) throw std::invalid_argument("IidUniformStream: lo > hi");
}

Value IidUniformStream::next() { return rng_.uniform_int(lo_, hi_); }

IidGaussianStream::IidGaussianStream(double mean, double sigma, Value lo,
                                     Value hi, Rng rng)
    : mean_(mean), sigma_(sigma), lo_(lo), hi_(hi), rng_(rng) {
  if (lo > hi || sigma < 0.0) {
    throw std::invalid_argument("IidGaussianStream: invalid parameters");
  }
}

Value IidGaussianStream::next() {
  const double draw = mean_ + sigma_ * rng_.next_gaussian();
  const auto v = static_cast<Value>(std::llround(draw));
  return std::clamp(v, lo_, hi_);
}

template class TypedBank<IidUniformStream>;
template class TypedBank<IidGaussianStream>;

}  // namespace topkmon
