// What the one observation-step loop (exp::run_scenario,
// src/exp/scenario.cpp) needs from a deployed monitor, whatever its tier:
// the monolithic deployment there (one Cluster, the registry's role pair,
// one SimDriver) or the two-tier ShardedDeployment (core/root_merge.hpp).
// Tier differences — how a dynamic-k event reaches the coordinator, where
// join-provisioned ids start down, which fault plans are accepted — live
// in the implementations, so the loop never branches on the tier.
#pragma once

#include <span>
#include <string_view>
#include <vector>

#include "sim/network_model.hpp"
#include "util/types.hpp"

namespace topkmon {

struct RunResult;

class Deployment {
 public:
  virtual ~Deployment() = default;

  /// Monitor name reported in result tables.
  virtual std::string_view name() const = 0;

  /// Writes column[id] to node `id` for every id in `ids` (any order).
  /// One call per step, so a dense step pays one virtual call, not n.
  virtual void set_values(std::span<const NodeId> ids,
                          std::span<const Value> column) = 0;

  /// Opens observation step t on every per-step message counter.
  virtual void begin_step(TimeStep t) = 0;

  /// Time 0: values must already be set.
  virtual void initialize() = 0;

  /// One observation step; `changed` lists the ids whose value moved.
  virtual void step(TimeStep t, std::span<const NodeId> changed) = 0;

  /// The current answer, ids ascending.
  virtual const std::vector<NodeId>& topk() const = 0;

  /// The ranked answer (best first) when the monitor keeps one.
  virtual const std::vector<NodeId>* ordered_topk() const { return nullptr; }

  /// Delivery ticks consumed so far (monotonic; recovery windows use it).
  virtual SimTime ticks() const = 0;

  /// Copies comm, root_comm (two-tier only) and monitor into `result`.
  virtual void fill_result(RunResult& result) = 0;
};

}  // namespace topkmon
