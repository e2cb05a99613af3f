#include "streams/adversarial.hpp"

#include <stdexcept>

namespace topkmon {

RotatingMaxStream::RotatingMaxStream(RotatingMaxParams params, NodeId id)
    : p_(params), id_(id) {
  if (p_.n == 0 || p_.hold == 0 || id >= p_.n) {
    throw std::invalid_argument("RotatingMaxStream: invalid parameters");
  }
  if (p_.peak <= p_.base + static_cast<Value>(p_.n)) {
    throw std::invalid_argument("RotatingMaxStream: peak must clear base+n");
  }
}

Value RotatingMaxStream::next() {
  const std::uint64_t holder = (t_ / p_.hold) % p_.n;
  ++t_;
  if (holder == id_) return p_.peak;
  return p_.base + static_cast<Value>(id_);
}

CrossingPairsStream::CrossingPairsStream(CrossingPairsParams params, NodeId id)
    : p_(params), id_(id) {
  if (p_.n == 0 || p_.period < 4 || id >= p_.n) {
    throw std::invalid_argument("CrossingPairsStream: invalid parameters");
  }
  if (p_.amplitude * 2 >= p_.pair_gap) {
    throw std::invalid_argument(
        "CrossingPairsStream: amplitude must be < pair_gap/2");
  }
}

Value CrossingPairsStream::next() {
  const std::uint64_t pair = id_ / 2;
  const Value center = static_cast<Value>(pair + 1) * p_.pair_gap;
  // Triangle wave in [-amplitude, +amplitude] with the configured period.
  const std::uint64_t half = p_.period / 2;
  const std::uint64_t phase = t_ % p_.period;
  const Value ramp =
      phase < half
          ? static_cast<Value>(phase)
          : static_cast<Value>(p_.period - phase);
  const Value tri =
      -p_.amplitude + 2 * p_.amplitude * ramp / static_cast<Value>(half);
  ++t_;
  if (id_ % 2 == 1 && id_ == p_.n - 1 && p_.n % 2 == 0) {
    // Even n: the last node is a normal partner; nothing special.
  }
  if (id_ + 1 == p_.n && p_.n % 2 == 1) {
    return center;  // odd leftover node holds its center steady
  }
  return id_ % 2 == 0 ? center + tri : center - tri;
}

template class TypedBank<RotatingMaxStream>;
template class TypedBank<CrossingPairsStream>;

}  // namespace topkmon
