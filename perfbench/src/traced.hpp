// The traced run: the same scenario run_scenario executes, re-driven
// from the benchmark through the public layer calls with a steady-clock
// span around each call, so a step's time can be split by layer. No
// tracing code lives inside the library; everything here wraps it.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "sim/message.hpp"
#include "util/types.hpp"
#include "workloads.hpp"

namespace perfbench {

/// What a traced and an untraced run of one seed must agree on exactly:
/// proof that the wrappers and timers do not perturb the simulation.
struct Outcome {
  std::array<std::uint64_t, topkmon::kNumMsgKinds> msgs_by_kind{};
  std::uint64_t error_steps = 0;
  std::vector<topkmon::NodeId> final_answer;

  bool operator==(const Outcome&) const = default;
};

/// Per-layer figures of one traced repeat. Per-step values average over
/// the steady window (steps warmup+1 .. steps). A layer that is not on
/// the workload's path reads 0.
struct LayerFigures {
  double streams_advance_us = 0;     ///< advance + changed-id scan
  double streams_changed = 0;        ///< nodes whose value moved
  double sim_observe_write_us = 0;   ///< Cluster / deployment value writes
  double truth_update_us = 0;        ///< GroundTruthTracker::set_value
  double truth_validate_us = 0;      ///< check_answer_step
  double truth_full_rebuilds = 0;
  double truth_boundary_rescans = 0;
  double driver_step_us = 0;         ///< SimDriver::step (monolithic)
  double driver_self_us = 0;         ///< step minus coordinator callbacks
  double driver_ticks = 0;
  double node_observe = 0;           ///< NodeAlgo callbacks by kind
  double node_message = 0;
  double node_control = 0;
  double node_timer = 0;
  double coord_us = 0;               ///< CoordinatorAlgo callback time
  double coord_callbacks = 0;
  double protocol_runs = 0;          ///< MonitorStats deltas
  double filter_resets = 0;
  double violations = 0;
  double net_upstream = 0;           ///< node<->coordinator tier messages
  double net_unicast = 0;
  double net_broadcast = 0;
  double shard_step_us = 0;          ///< ShardedDeployment::step
  double shard_ticks = 0;            ///< max shard driver ticks
  double shard_root_msgs = 0;        ///< shard<->root tier messages
  double shard_initialize_s = 0;     ///< ShardedDeployment::initialize
  double setup_streams_s = 0;        ///< make_stream_set
  double setup_deploy_s = 0;         ///< cluster + roles + driver
  double setup_initialize_s = 0;     ///< step-0 observe + initialize + check
  double coverage = 0;  ///< timed layer calls / steady-window wall time
};

struct TracedRun {
  Outcome outcome;
  double steps_per_s = 0;  ///< steady-window throughput under tracing
  LayerFigures layers;
};

/// Runs workload `w` at `seed` once with per-layer spans.
TracedRun run_traced(const Workload& w, std::uint64_t seed);

}  // namespace perfbench
