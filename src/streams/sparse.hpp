// Activity-gated stream wrapper — the "almost nothing happens almost all
// the time" workload the paper's premise lives on. Each node re-draws
// from its inner stream only on its *activity steps* and repeats its last
// value otherwise, so exactly a `rate` fraction of nodes changes per
// global step: activity steps recur with period round(1/rate) and the
// per-node phases are spread deterministically by the factory, giving
// floor/ceil(rate * n) changing nodes every step (not merely in
// expectation). The first draw is never gated — every node needs a real
// initial value.
#pragma once

#include <algorithm>
#include <memory>

#include "streams/stream.hpp"

namespace topkmon {

struct SparseParams {
  /// Fraction of nodes that change per step, in (0, 1]. Internally
  /// realized as an activity period of round(1/rate) steps.
  double rate = 0.1;
};

class SparseStream final : public Stream {
 public:
  /// Activity period implied by `rate`: round(1/rate) steps. Throws
  /// std::invalid_argument unless rate lies in (0, 1] and 1/rate < 2^63,
  /// so the period fits in a std::int64_t.
  static std::uint64_t period_for(double rate);

  /// Wraps `inner`; this node draws a fresh value on steps where
  /// (step + phase) % period == 0 with period = period_for(rate). `phase`
  /// must lie in [0, period); the factory spreads phases across nodes.
  SparseStream(std::unique_ptr<Stream> inner, double rate,
               std::uint64_t phase);

  Value next() override;

  /// Quiet-run certification: between draws the value is constant by
  /// construction, so the remaining countdown can be consumed in O(1).
  bool supports_quiet_runs() const override { return true; }
  std::uint64_t advance_quiet(std::uint64_t max_steps) override {
    const std::uint64_t run = std::min(until_, max_steps);
    until_ -= run;
    return run;
  }

  std::uint64_t period() const noexcept { return period_; }

 private:
  /// Draws a fresh inner value and resets the countdown to the next
  /// activity step ((t + phase) % period == 0, with step 0 always a draw).
  void draw();

  std::unique_ptr<Stream> inner_;
  std::uint64_t period_;
  std::uint64_t phase_;
  std::uint64_t until_ = 0;  ///< outer advances until the next draw
  bool first_ = true;
  Value current_ = 0;
};

extern template class TypedBank<SparseStream>;

}  // namespace topkmon
