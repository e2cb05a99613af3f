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
#include "util/bitset.hpp"
#include "util/types.hpp"

namespace topkmon {

struct RunResult;

/// One observation step's writes as the loop hands them to a deployment,
/// in one of two shapes over the same value column (indexed by id):
///
///  * id list (`mask` null) — `ids` lists the nodes to write, any order.
///    The quiet/sparse stream path and single-node recovery writes use it.
///  * dense frame (`mask` set) — bit id of *mask is set iff node id is up
///    and its value moved; `column` holds every node's latest
///    observation, down nodes included. An up node outside the mask
///    already holds column[id]; a down node must keep its stale value
///    until its recovery write (an id-list frame). The loop's down set
///    equals a deployment's alive bits whenever it writes a dense frame:
///    both change only at the head of a step's fault events, which the
///    loop mirrors after the write.
struct StepFrame {
  std::span<const Value> column;
  std::span<const NodeId> ids;
  const IdBitset* mask = nullptr;
};

class Deployment {
 public:
  virtual ~Deployment() = default;

  /// Monitor name reported in result tables.
  virtual std::string_view name() const = 0;

  /// Writes the frame's values: column[id] to node id for every listed
  /// id, or, for a dense frame, to every up node. One call per frame, so
  /// a dense step pays one virtual call, not n.
  virtual void set_values(const StepFrame& frame) = 0;

  /// Opens observation step t on every per-step message counter.
  virtual void begin_step(TimeStep t) = 0;

  /// Time 0: values must already be set.
  virtual void initialize() = 0;

  /// One observation step over the frame its set_values call wrote: the
  /// listed ids, or the mask's bits, are the nodes whose value moved.
  virtual void step(TimeStep t, const StepFrame& frame) = 0;

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
