// Declarative cartesian-product experiment grids.
//
// A SweepGrid describes axes (n, k, monitor, stream family, trial index)
// and expands into a flat list of TrialSpecs — one independent simulation
// each. Every trial derives its RNG seed deterministically from the base
// seed and its grid coordinates (NOT from its position in the expansion),
// so the same grid produces bit-identical trials no matter how it is
// sliced, reordered, or executed in parallel.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/runner.hpp"
#include "sim/network_model.hpp"
#include "streams/factory.hpp"

namespace topkmon::exp {

/// One independent simulation: a monitor (by registry spec) driven over a
/// freshly built stream set on a given network policy. Embarrassingly
/// parallel by construction — each trial owns its own RNG seed and
/// touches no shared state.
struct TrialSpec {
  RunConfig cfg;                     ///< n/k/steps/seed/validation
  StreamSpec stream;                 ///< workload description
  NetworkSpec network{};             ///< delivery policy (default instant)
  std::string monitor{"topk_filter"};  ///< exp::make_monitor spec
  std::size_t shards = 1;            ///< shard coordinators (Scenario::shards)
  std::string faults{"none"};        ///< fault plan spec (Scenario::faults)
  std::size_t trial = 0;             ///< repetition index within its cell
  std::size_t ordinal = 0;           ///< position in the expanded grid
  bool throw_on_error = true;        ///< propagate validation divergence
};

/// Order-independent seed derivation: mixes the base seed with the trial's
/// grid coordinates through SplitMix64. Exposed for tests and custom grids.
std::uint64_t derive_trial_seed(std::uint64_t base_seed, std::size_t n,
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
  std::size_t steps = 1'000;
  std::uint64_t base_seed = 1;

  /// Template for the per-trial StreamSpec; `family` is overwritten with
  /// the axis value, everything else (walk params, ...) is copied through.
  StreamSpec stream_template{};

  RunConfig::Validation validation = RunConfig::Validation::kStrict;
  bool record_trace = false;
  bool throw_on_error = true;

  /// Number of trials the expansion will produce.
  std::size_t size() const noexcept;

  /// Expands the grid into per-trial specs, ordered n-major then k,
  /// monitor, family, network, shards, faults, trial
  /// (deterministic). Cells where k > n are skipped so mixed n/k axes
  /// stay valid.
  std::vector<TrialSpec> expand() const;

  /// Sets one axis by name from string values ("n", "k", "monitor",
  /// "family", "network", "shards", "faults") — the declarative
  /// counterpart of assigning the fields above, for CLIs and config
  /// readers. Throws std::invalid_argument for an empty value list, a
  /// malformed value, or an unknown axis name — the unknown-name message
  /// carries a did-you-mean hint (same edit-distance helper as the CLI's
  /// suite lookup).
  void set_axis(const std::string& name, const std::vector<std::string>& values);
};

}  // namespace topkmon::exp
