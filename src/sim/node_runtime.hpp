// Structure-of-arrays machine state for the n simulated nodes.
//
// One NodeRuntime is shared by the three components that touch per-node
// state on the hot path: the Cluster owns it, the Network maintains the
// due-mail bits, and the SimDriver maintains the armed / needs-observe
// bits, the quiet ranges and the beacon-deaf bits its node algorithms
// declare, and streams through the value array in its observe scan. The
// beacon-deaf bits are to round beacons what the quiet ranges are to
// observations: a set bit certifies that a kRoundBeacon is a no-op for
// the node, and the Network's instant fan-out then skips the node.
//
// Keeping each field in its own flat array — instead of one struct per
// node — means every scan touches only the bytes it actually uses: the
// per-tick word-wise scans read two bit arrays (16 bytes per 64 nodes),
// the per-step range pass reads one 16-byte range per changed node, the
// per-step observe scan streams an 8-byte-stride value array, and the
// cold RNG state (most of a cache line per node) is only paged in when a
// protocol execution actually flips coins.
//
// Fields are parallel arrays indexed by NodeId and grouped by access
// pattern; all arrays have the same logical length size().
//
// Threading: plain data, no internal synchronization; the SimDriver and
// the Network read and write it from the one thread driving the
// simulation.
#pragma once

#include <cstddef>
#include <vector>

#include "util/bitset.hpp"
#include "util/rng.hpp"
#include "util/types.hpp"

namespace topkmon {

/// A closed value interval [lo, hi] inside which a node's on_observe is
/// certified to be a no-op (see NodeCtx::set_quiet_range). The default
/// is empty (lo > hi): no value is quiet, the node is observed every
/// step.
struct QuietRange {
  Value lo = kPlusInf;
  Value hi = kMinusInf;

  constexpr bool contains(Value v) const noexcept { return lo <= v && v <= hi; }
};

/// Per-node machine state as parallel flat arrays ("which node needs
/// attention" bits, observed values, RNGs).
struct NodeRuntime {
  NodeRuntime() = default;

  /// Sizes every array for `n` nodes: bits clear, values zero, RNGs
  /// default-seeded (the Cluster re-seeds them from its top-level seed).
  /// All nodes start alive; fault injection (sim/fault_plan.hpp) flips
  /// alive bits through Network::set_node_down / set_node_up.
  explicit NodeRuntime(std::size_t n)
      : due_mail(n),
        armed(n),
        alive(n),
        beacon_deaf(n),
        needs_observe(n),
        quiet(n),
        values(n, 0),
        rngs(n) {
    alive.set_all();
  }

  /// Number of nodes every parallel array is sized for.
  std::size_t size() const noexcept { return values.size(); }

  // -- per-tick hot group: unioned word-wise by SimDriver::run_tick ---------
  /// Bit id set iff a drain of node id would deliver mail right now.
  /// Maintained exclusively by the Network (set on delivery, cleared on
  /// drain/ack).
  IdBitset due_mail;
  /// Bit id set iff node id armed a timer for the next timer phase.
  /// Maintained exclusively by the SimDriver.
  IdBitset armed;
  /// Bit id set iff node id is up (receives mail, runs timers, observes).
  /// All-set unless a FaultPlan is active; maintained exclusively by the
  /// Network (set_node_down / set_node_up) so the transport and the
  /// driver's scans agree on liveness at every tick. A down node's bits
  /// in the other arrays are masked out, never mutated, so recovery
  /// restores exactly the pre-crash machine state.
  IdBitset alive;

  // -- per-beacon group: read word-wise by the instant beacon fan-out -------
  /// Bit id set iff node id certifies that a kRoundBeacon is a no-op for
  /// it (NodeCtx::set_beacon_deaf): an instant-mode beacon broadcast
  /// then raises no due bit for it, so the beacon never costs the node a
  /// visit. All clear by default (every node hears every beacon);
  /// declared by the node's algorithm through the SimDriver, read only
  /// by the Network's instant beacon fan-out.
  IdBitset beacon_deaf;

  // -- per-step hot group: the observe scan ---------------------------------
  /// Bit id set iff node id must receive on_observe this step. Maintained
  /// by the SimDriver: a quiet-range declaration sets it iff the current
  /// value lies outside the range, the step's range pass sets it when a
  /// changed value leaves the range, and only a new declaration clears
  /// it — so a clear bit always means "value inside quiet[id]".
  IdBitset needs_observe;
  /// quiet[id] is node id's declared quiet range (16 bytes per node; read
  /// by the range pass for changed ids whose bit is clear).
  std::vector<QuietRange> quiet;
  /// values[id] is node id's current stream observation (8-byte stride —
  /// the dense observe scan streams this array instead of gathering
  /// through per-node structs).
  std::vector<Value> values;

  // -- warm group: touched only inside protocol executions ------------------
  /// rngs[id] is node id's private coin-flip source (Bernoulli(2^r/N)).
  std::vector<Rng> rngs;
};

}  // namespace topkmon
