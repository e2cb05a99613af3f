// Two-regime (calm/burst) Markov-modulated random walk. In the calm regime
// the walk takes small steps (filters stay valid for long stretches); in
// the burst regime it takes large jumps (frequent violations and resets).
// Models e.g. network counters under flash crowds.
#pragma once

#include "streams/stream.hpp"

namespace topkmon {

struct BurstyParams {
  Value start = 500'000;
  Value calm_step = 2;            ///< max |step| while calm
  Value burst_step = 5'000;       ///< max |step| while bursting
  double p_enter_burst = 0.005;   ///< calm -> burst transition probability
  double p_exit_burst = 0.10;     ///< burst -> calm transition probability
  Value lo = 0;
  Value hi = 1'000'000;
};

class BurstyStream final : public Stream {
 public:
  BurstyStream(BurstyParams params, Rng rng);

  Value next() override;

  bool in_burst() const noexcept { return bursting_; }

 private:
  BurstyParams p_;
  Rng rng_;
  Value current_;
  bool bursting_ = false;
};

extern template class TypedBank<BurstyStream>;

}  // namespace topkmon
