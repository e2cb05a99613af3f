#include "streams/zipf.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace topkmon {

ZipfSampler::ZipfSampler(std::size_t num_ranks, double s) {
  if (num_ranks == 0) throw std::invalid_argument("ZipfSampler: M == 0");
  if (s < 0.0) throw std::invalid_argument("ZipfSampler: negative exponent");
  cdf_.resize(num_ranks);
  double acc = 0.0;
  for (std::size_t r = 1; r <= num_ranks; ++r) {
    acc += std::pow(static_cast<double>(r), -s);
    cdf_[r - 1] = acc;
  }
  for (auto& c : cdf_) c /= acc;
  cdf_.back() = 1.0;  // guard against rounding
}

std::size_t ZipfSampler::sample(Rng& rng) const {
  const double u = rng.next_double();
  const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  return static_cast<std::size_t>(it - cdf_.begin()) + 1;
}

ZipfStream::ZipfStream(std::size_t num_ranks, double s, Value peak, Rng rng)
    : sampler_(num_ranks, s), peak_(peak), rng_(rng) {
  if (peak <= 0) throw std::invalid_argument("ZipfStream: peak <= 0");
}

Value ZipfStream::next() {
  const auto rank = sampler_.sample(rng_);
  return std::max<Value>(1, peak_ / static_cast<Value>(rank));
}

ParetoStream::ParetoStream(Value xm, double alpha, Value cap, Rng rng)
    : xm_(xm), alpha_(alpha), cap_(cap), rng_(rng) {
  if (xm <= 0 || alpha <= 0.0 || cap < xm) {
    throw std::invalid_argument("ParetoStream: invalid parameters");
  }
}

Value ParetoStream::next() {
  double u = 0.0;
  do {
    u = rng_.next_double();
  } while (u <= 0.0);
  const double draw = static_cast<double>(xm_) / std::pow(u, 1.0 / alpha_);
  if (draw >= static_cast<double>(cap_)) return cap_;
  return static_cast<Value>(draw);
}

template class TypedBank<ZipfStream>;
template class TypedBank<ParetoStream>;

}  // namespace topkmon
