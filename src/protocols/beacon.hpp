// Wire encoding of protocol-epoch-tagged broadcast payloads.
//
// Round beacons and winner announcements carry (value, holder) plus the
// epoch of the protocol execution that produced them, so that a node
// participating in a later execution can discard stale beacons still
// sitting in its mailbox. The epoch and holder share the second payload
// word: b = (epoch << 32) | holder. The extremum sessions
// (core/role_session.hpp), the recompute nodes that read winner
// announcements and the filter's side-session handling must agree on
// this packing — it is part of the byte-level message format.
#pragma once

#include <cstdint>

#include "util/types.hpp"

namespace topkmon {

/// Beacon payload packing: a = value, b = (epoch << 32) | holder.
constexpr std::int64_t pack_beacon_b(std::uint32_t epoch,
                                     NodeId holder) noexcept {
  return static_cast<std::int64_t>(
      (static_cast<std::uint64_t>(epoch) << 32) |
      static_cast<std::uint64_t>(holder));
}

struct UnpackedBeacon {
  std::uint32_t epoch;
  NodeId holder;
};

constexpr UnpackedBeacon unpack_beacon_b(std::int64_t b) noexcept {
  const auto raw = static_cast<std::uint64_t>(b);
  return {static_cast<std::uint32_t>(raw >> 32),
          static_cast<NodeId>(raw & 0xFFFFFFFFull)};
}

}  // namespace topkmon
