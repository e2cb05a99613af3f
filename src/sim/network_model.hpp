// Declarative network-behaviour policy for the simulated star network.
//
// The paper's model delivers every message instantaneously between two
// consecutive stream observations; that is the `instant` policy and the
// default everywhere. A NetworkSpec generalizes delivery into a scheduled
// event model measured in *ticks* (the sub-step unit in which protocol
// rounds execute):
//
//   * delay   — every message takes `delay` ticks link traversal time;
//   * jitter  — plus a deterministic per-(message, link) extra in
//               [0, jitter] (broadcasts fan out with independent per-link
//               jitter, so receivers see the same message at different
//               ticks);
//   * drop    — each (message, link) is lost independently with this
//               probability (the send is still charged to CommStats: the
//               paper's cost measure counts transmissions, not receipts);
//   * batch   — delivery ticks are coalesced up to the next multiple of
//               `batch_window` (links release messages in windowed
//               batches, modelling NIC/queue coalescing);
//   * ticks_per_step — hard tick budget per observation step; 0 means
//               "run to quiescence" (the lock-step semantics). With a
//               budget, messages still in flight when the budget expires
//               carry over into later observation steps, so algorithms
//               observe genuinely stale state.
//
// All randomness (jitter, drops) derives from a deterministic hash of
// (network seed, message sequence number, receiving link), never from
// drain order, so simulations stay bit-reproducible regardless of how and
// when inboxes are polled.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace topkmon {

/// Tick index of the scheduled network clock. Tick 0 is "before the first
/// observation"; each observation step spans one or more ticks.
using SimTime = std::uint64_t;

/// The network-behaviour policy. The default-constructed spec is the
/// paper's instant model.
struct NetworkSpec {
  std::uint32_t delay = 0;         ///< fixed per-link delay in ticks
  std::uint32_t jitter = 0;        ///< extra per-(msg, link) delay, [0, jitter]
  double drop_rate = 0.0;          ///< independent per-(msg, link) loss
  std::uint32_t batch_window = 0;  ///< coalesce to window ends (0 = off)
  std::uint64_t ticks_per_step = 0;  ///< tick budget per step (0 = quiesce)

  /// True when the spec is exactly the paper's lock-step instant model
  /// (the Network then uses the O(1)-broadcast fast path).
  bool is_instant() const noexcept {
    return delay == 0 && jitter == 0 && drop_rate <= 0.0 && batch_window == 0;
  }

  /// Upper bound on the scheduling delay of any single message (without
  /// batch quantization). 64-bit: the two 32-bit knobs are validated
  /// individually, so their sum could wrap a uint32.
  std::uint64_t max_delay() const noexcept {
    return static_cast<std::uint64_t>(delay) + jitter;
  }

  /// Canonical display name: "instant", or "delay=2", or a comma-joined
  /// list of the non-default knobs ("delay=2,drop=0.05").
  std::string name() const;

  friend bool operator==(const NetworkSpec&, const NetworkSpec&) = default;
};

/// Parses a spec string: "instant" or a comma-separated list of
/// key=value pairs with keys delay, jitter, drop, batch, ticks
/// (e.g. "delay=2,jitter=1,drop=0.01", "drop=0.05,ticks=4"), read by
/// SpecReader (util/strings.hpp) as a spec without a name: a repeated
/// key's last value wins. Throws std::invalid_argument on unknown keys
/// (with a did-you-mean hint) or malformed values.
NetworkSpec parse_network_spec(std::string_view text);

}  // namespace topkmon
