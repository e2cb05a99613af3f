// The simulated distributed system: n node runtimes + coordinator + network.
//
// A Cluster owns the per-node state that belongs to the *machine* —
// current observed value, the node's private RNG for protocol coin flips,
// protocol scratch flags — held as structure-of-arrays in a NodeRuntime
// (sim/node_runtime.hpp) shared with the Network (due-mail bits) and the
// SimDriver (armed / needs-observe bits). Algorithm-specific node state
// (filters, membership flags) lives in the algorithm implementations,
// mirroring what a node would store on behalf of the currently deployed
// monitoring algorithm.
#pragma once

#include <cassert>
#include <cstddef>
#include <span>
#include <vector>

#include "sim/comm_stats.hpp"
#include "sim/network.hpp"
#include "sim/node_runtime.hpp"
#include "util/rng.hpp"
#include "util/types.hpp"

namespace topkmon {

/// A coordinator-plus-n-nodes system with unified message accounting.
class Cluster {
 public:
  /// Builds a cluster of `n` nodes; all per-node RNGs and the coordinator
  /// RNG derive deterministically from `seed`. The network delivers
  /// instantly (the paper's lock-step model).
  Cluster(std::size_t n, std::uint64_t seed);

  /// Builds a cluster whose network follows `net_spec` (delay / jitter /
  /// drop / batch policies; see sim/network_model.hpp). Link randomness
  /// derives from `seed` too, independently of the node RNG streams.
  Cluster(std::size_t n, std::uint64_t seed, const NetworkSpec& net_spec);

  /// Builds a cluster of initial.size() nodes with the values preset
  /// (an instant network). Prvalue-friendly convenience for fixtures
  /// and benchmarks: `return Cluster(values, seed);` builds in place.
  Cluster(std::span<const Value> initial, std::uint64_t seed);

  /// Not copyable or movable: the embedded network aliases this
  /// cluster's stats sink and NodeRuntime, so a memberwise copy/move
  /// would keep pointing into the source object.
  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  /// Number of nodes (the coordinator is not counted).
  std::size_t size() const noexcept { return runtime_.size(); }

  /// The shared structure-of-arrays per-node machine state. The Network
  /// maintains runtime().due_mail; the SimDriver maintains
  /// runtime().armed / runtime().needs_observe; protocol sessions flip
  /// their coins on runtime().rngs.
  NodeRuntime& runtime() noexcept { return runtime_; }
  const NodeRuntime& runtime() const noexcept { return runtime_; }

  /// Unchecked hot-path accessors: value()/set_value() run once per node
  /// per step in every monitor's inner loop, so they index directly with
  /// a debug-only assert. Range validation for untrusted ids lives in the
  /// public Network entry points (node_send/coord_unicast/drain_node
  /// throw) and in the checked node_rng() accessor.
  Value value(NodeId id) const {
    assert(id < runtime_.size());
    return runtime_.values[id];
  }
  void set_value(NodeId id, Value v) {
    assert(id < runtime_.size());
    runtime_.values[id] = v;
  }

  /// The dense-step frame's bulk write: every up node takes column[id];
  /// a down node keeps its stale value until its recovery writes it
  /// (set_value). One copy of the column when no node is down. Throws
  /// std::invalid_argument unless column.size() == size().
  void set_up_values(std::span<const Value> column);

  /// All n current values, indexed by node id (flat hot array).
  std::span<const Value> values() const noexcept { return runtime_.values; }

  /// Node id's private randomness source (bounds-checked: coin flips are
  /// per protocol round, not per step, so the check is free noise).
  Rng& node_rng(NodeId id) { return runtime_.rngs.at(id); }

  /// Randomness available to the coordinator (e.g. for baseline sampling).
  Rng& coordinator_rng() noexcept { return coord_rng_; }

  Network& net() noexcept { return net_; }
  const Network& net() const noexcept { return net_; }

  CommStats& stats() noexcept { return stats_; }
  const CommStats& stats() const noexcept { return stats_; }

  /// All node ids 0..n-1 (convenience for "run protocol over everyone").
  const std::vector<NodeId>& all_ids() const noexcept { return all_ids_; }

  /// Issues a fresh protocol epoch. Round beacons are tagged with the epoch
  /// of the protocol execution that produced them so that a node joining a
  /// later execution ignores stale beacons still sitting in its mailbox.
  std::uint32_t next_protocol_epoch() noexcept { return ++protocol_epoch_; }

  /// Epoch of the most recently started protocol execution.
  std::uint32_t current_protocol_epoch() const noexcept {
    return protocol_epoch_;
  }

 private:
  CommStats stats_;
  NodeRuntime runtime_;  // must precede net_: the network aliases due_mail
  Network net_;
  std::vector<NodeId> all_ids_;
  Rng coord_rng_;
  std::uint32_t protocol_epoch_ = 0;
};

}  // namespace topkmon
