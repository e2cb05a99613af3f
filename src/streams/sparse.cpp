#include "streams/sparse.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace topkmon {

std::uint64_t SparseStream::period_for(double rate) {
  // std::llround is unspecified past LLONG_MAX, so 1/rate must stay below
  // 2^63 (0x1p63) for the period to fit in a std::int64_t.
  if (!(rate > 0.0) || rate > 1.0 || !(1.0 / rate < 0x1p63)) {
    throw std::invalid_argument(
        "SparseStream: rate must be in (0, 1] with 1/rate < 2^63");
  }
  const auto period = static_cast<std::uint64_t>(std::llround(1.0 / rate));
  return period == 0 ? 1 : period;
}

SparseStream::SparseStream(std::unique_ptr<Stream> inner, double rate,
                           std::uint64_t phase)
    : inner_(std::move(inner)), period_(period_for(rate)), phase_(phase) {
  if (phase >= period_) {
    throw std::invalid_argument("SparseStream: phase out of range");
  }
}

void SparseStream::draw() {
  current_ = inner_->next();
  // Step 0 always draws (every node needs a real initial value); the
  // next activity step is then the first t > 0 with
  // (t + phase) % period == 0, i.e. period - phase (or a full period for
  // phase 0). Afterwards draws recur every `period` advances.
  until_ = first_ && phase_ != 0 ? period_ - phase_ : period_;
  first_ = false;
}

Value SparseStream::next() {
  if (until_ == 0) draw();
  --until_;
  return current_;
}

template class TypedBank<SparseStream>;

}  // namespace topkmon
