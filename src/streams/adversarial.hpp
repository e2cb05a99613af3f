// Adversarial inputs realizing the paper's worst cases.
//
// RotatingMaxStream: the node holding the maximum changes every step
// ("inputs where the position of the maximum changes considerably from
// round to round", §2.1) — per-round recomputation is unavoidable and any
// filter-based algorithm must pay on every step.
//
// CrossingPairsStream: value-adjacent node pairs repeatedly swap order;
// pairs straddling the k-boundary force genuine top-k changes (OPT must
// also communicate), pairs away from it should cost a competitive
// algorithm nothing (the §3.1 argument against full dominance tracking).
#pragma once

#include "streams/stream.hpp"

namespace topkmon {

struct RotatingMaxParams {
  std::size_t n = 16;       ///< number of nodes in the system
  Value base = 1'000;       ///< value of non-maximum nodes (plus id offset)
  Value peak = 1'000'000;   ///< value of the current maximum holder
  std::uint64_t hold = 1;   ///< steps a node keeps the maximum before it moves
};

/// Node `id`'s view of the rotating-max pattern: it observes `peak` while
/// floor(t / hold) mod n == id and `base + id` otherwise.
class RotatingMaxStream final : public Stream {
 public:
  RotatingMaxStream(RotatingMaxParams params, NodeId id);

  Value next() override;

 private:
  RotatingMaxParams p_;
  NodeId id_;
  std::uint64_t t_ = 0;
};

struct CrossingPairsParams {
  std::size_t n = 16;        ///< number of nodes (odd last node stays flat)
  Value pair_gap = 10'000;   ///< vertical spacing between pair centers
  Value amplitude = 2'000;   ///< half-range of the triangle oscillation
  std::uint64_t period = 64; ///< steps per full up-down-up cycle
};

/// Nodes 2i and 2i+1 oscillate in antiphase around center (i+1)*pair_gap on
/// a triangle wave, exchanging order twice per period. Requires
/// amplitude < pair_gap/2 so only partners ever swap.
class CrossingPairsStream final : public Stream {
 public:
  CrossingPairsStream(CrossingPairsParams params, NodeId id);

  Value next() override;

 private:
  CrossingPairsParams p_;
  NodeId id_;
  std::uint64_t t_ = 0;
};

extern template class TypedBank<RotatingMaxStream>;
extern template class TypedBank<CrossingPairsStream>;

}  // namespace topkmon
