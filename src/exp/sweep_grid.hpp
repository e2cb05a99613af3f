// Declarative cartesian-product experiment grids.
//
// A SweepGrid describes axes (n, k, monitor, stream family, network,
// shard count, fault plan, trial index) over one base Scenario and
// expands into a flat list of Scenarios — one independent simulation
// each, run by run_scenario like any other. Every trial derives its RNG
// seed deterministically from the base seed and its grid coordinates
// (NOT from its position in the expansion), so the same grid produces
// bit-identical trials no matter how it is sliced, reordered, or
// executed in parallel.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "exp/scenario.hpp"
#include "sim/network_model.hpp"
#include "streams/factory.hpp"

namespace topkmon::exp {

/// Order-independent seed derivation: mixes the base seed with the trial's
/// grid coordinates through SplitMix64. Exposed for tests and custom grids.
std::uint64_t derive_trial_seed(std::uint64_t seed, std::size_t n,
                                std::size_t k, std::size_t monitor_index,
                                std::size_t family_index,
                                std::size_t trial) noexcept;

/// Cartesian product description:
/// ns × ks × monitors × families × networks × shards × faults × trials.
struct SweepGrid {
  std::vector<std::size_t> ns{16};
  std::vector<std::size_t> ks{4};
  std::vector<std::string> monitors{"topk_filter"};
  std::vector<StreamFamily> families{StreamFamily::kRandomWalk};
  /// Network policies to range over. Deliberately NOT mixed into the
  /// per-trial seed: the same cell under two policies replays the same
  /// streams and protocol coins, so delay/drop sweeps are paired
  /// comparisons.
  std::vector<NetworkSpec> networks{NetworkSpec{}};
  /// Shard-coordinator counts to range over (Scenario::shards). Like
  /// networks, NOT mixed into the per-trial seed: the same
  /// cell at different shard counts replays the same streams, so
  /// message-cost comparisons across c are paired.
  std::vector<std::size_t> shards{1};
  /// Fault plans to range over (Scenario::faults specs). Like networks,
  /// NOT mixed into the per-trial seed: a churned run is a paired replay
  /// of its fault-free twin (same streams, same protocol coins), so
  /// error/recovery deltas attribute entirely to the injected faults.
  std::vector<std::string> faults{"none"};
  std::size_t trials = 1;

  /// Every other setting of a trial. Each expanded Scenario is a copy of
  /// `base` whose axis fields — n, k, monitor, stream.family, network,
  /// shards and faults — are overwritten with the cell's values, and
  /// whose seed is derive_trial_seed(base.seed, cell coordinates). The
  /// rest (steps, walk parameters, validation, dense_loop, ...) carries
  /// through unchanged. A set `base.on_step` is copied into every trial
  /// and runs on that trial's thread, concurrently under a SweepRunner
  /// with jobs > 1.
  Scenario base{};

  /// Number of trials the expansion will produce.
  std::size_t size() const noexcept;

  /// Expands the grid into per-trial Scenarios, ordered n-major then k,
  /// monitor, family, network, shards, faults, trial (deterministic;
  /// trial t of a cell is at index i with i % trials == t). Cells where
  /// k > n are skipped so mixed n/k axes stay valid.
  std::vector<Scenario> expand() const;
};

}  // namespace topkmon::exp
