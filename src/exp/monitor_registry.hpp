// Name-indexed construction of every Top-k-Position monitor, so sweep
// grids, Scenario specs and the experiment CLI can select algorithms
// declaratively instead of hard-coding factories in each experiment.
//
// A monitor spec is `name` optionally followed by `?key=value,...`
// parameters, e.g.
//
//   "topk_filter"                 the paper's Algorithm 1
//   "topk_filter?nobeacon"        idle-beacon-suppression ablation
//   "slack?alpha=0.1"             B&O-style placement comparator
//   "slack?adaptive"              adaptive placement
//   "approx?eps=512"              ε-approximate variant
//   "multi_k?ks=2+8+16"           simultaneous k ∈ {2,8,16}
//
// Two factories exist: make_monitor yields the legacy lock-step
// MonitorBase; make_role_pair yields the role-separated deployment
// (CoordinatorAlgo + n NodeAlgos) used by run_scenario — native for
// every monitor except recompute, which stays LockstepAdapter-bridged
// as the adapter-path reference (pair.native tells which).
// parse_sharded_spec maps a spec onto the two-tier ShardedDeployment.
// One table in monitor_registry.cpp lists every monitor with its role
// factory and its sharded kind; the name lists below derive from it.
#pragma once

#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/monitor.hpp"
#include "core/roles.hpp"
#include "core/root_merge.hpp"
#include "sim/cluster.hpp"

namespace topkmon::exp {

/// Instantiates the lock-step monitor described by `spec` for top-k size
/// `k`. Throws std::invalid_argument for unknown names or parameters.
std::unique_ptr<MonitorBase> make_monitor(std::string_view spec,
                                          std::size_t k);

/// A deployable role-separated monitor: one coordinator plus one node
/// algorithm per cluster node.
struct RolePair {
  std::unique_ptr<CoordinatorAlgo> coordinator;
  std::vector<std::unique_ptr<NodeAlgo>> nodes;
  /// True when the pair is a native event-driven implementation (runs
  /// under any NetworkSpec); false for LockstepAdapter bridges (instant
  /// only).
  bool native = false;
  /// The wrapped lock-step monitor for adapter pairs (else nullptr).
  const MonitorBase* lockstep = nullptr;
  /// True when the coordinator implements on_set_k, i.e. the pair can
  /// run a fault plan with dynamic-k events.
  bool dynamic_k = false;
};

/// Instantiates the role-separated deployment described by `spec` on
/// `cluster`. Throws std::invalid_argument for unknown names/parameters.
RolePair make_role_pair(Cluster& cluster, std::string_view spec,
                        std::size_t k);

/// Parses a monitor spec (without `shards=`) into the kind and knobs of
/// the two-tier ShardedDeployment; the size, seed and network fields
/// stay default. Throws std::invalid_argument for a monitor without a
/// sharded deployment (the message lists the ones with one) and for any
/// parameter the shard adapters would drop (backoff, suspect, replay,
/// eps, ...).
ShardedSpec parse_sharded_spec(std::string_view spec);

/// True when `spec`'s base name is a registered monitor.
bool is_known_monitor(std::string_view spec) noexcept;

/// Splits the deployment-level `shards=c` parameter out of a monitor spec
/// ("topk_filter?shards=4,nobeacon" -> {"topk_filter?nobeacon", 4}).
/// Returns shards == 0 when the parameter is absent, so callers can tell
/// "not given" from an explicit value; an explicit parameter always wins
/// over Scenario::shards. Throws std::invalid_argument for a malformed
/// or zero value. The remaining spec never reaches the monitor factories
/// with a `shards` key — sharding is a deployment property
/// (exp::run_sharded_scenario), not a monitor parameter.
std::pair<std::string, std::size_t> split_shards_param(std::string_view spec);

/// All registered monitor base names, in a stable canonical order (the
/// paper's Algorithm 1 first, then baselines).
const std::vector<std::string>& all_monitor_names();

/// Base names with a native role-separated implementation (usable under
/// non-instant NetworkSpecs).
const std::vector<std::string>& native_monitor_names();

}  // namespace topkmon::exp
