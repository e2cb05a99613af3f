// Common interface of all Top-k-Position monitoring algorithms.
//
// A monitor owns both the coordinator-side and the node-side algorithm
// state (the simulation runs both roles in one process); all communication
// between the two sides flows through the cluster's Network so that the
// paper's message accounting is exact. The runner drives the lifecycle:
//   observe values -> initialize(cluster)          (time 0)
//   observe values -> step(cluster, t)             (every t >= 1)
// and checks `topk()` against the ground truth after every call.
#pragma once

#include <cstdint>
#include <iterator>
#include <string>
#include <string_view>
#include <vector>

#include "sim/cluster.hpp"
#include "util/types.hpp"

namespace topkmon {

/// Algorithm-level event counters (communication itself is counted by
/// CommStats; these explain *why* messages happened).
struct MonitorStats {
  std::uint64_t violation_steps = 0;    ///< steps with >= 1 filter violation
  std::uint64_t violations = 0;         ///< individual node violations
  std::uint64_t handler_calls = 0;      ///< FILTERVIOLATIONHANDLER invocations
  std::uint64_t midpoint_updates = 0;   ///< broadcast filter midpoint changes
  std::uint64_t filter_resets = 0;      ///< FILTERRESET invocations
  std::uint64_t protocol_runs = 0;      ///< max/min protocol executions
  std::uint64_t polls = 0;              ///< coordinator-initiated probes
  std::uint64_t full_rebuilds = 0;      ///< defensive full re-initializations
  std::uint64_t resyncs = 0;            ///< crash-recovery re-sync handshakes
  std::uint64_t resync_retries = 0;     ///< re-sync probes resent on timeout
  std::uint64_t reset_backoffs = 0;     ///< defensive rebuilds deferred by
                                        ///< the reset backoff (opt-in)
  std::uint64_t suspicions = 0;         ///< nodes put under suspicion by the
                                        ///< failure-inference machinery
  std::uint64_t quarantines = 0;        ///< suspicions escalated to quarantine
  std::uint64_t stale_detections = 0;   ///< quarantines caused by a report
                                        ///< contradicting the node's signal
  std::uint64_t assign_replays = 0;     ///< warm-standby recoveries served by
                                        ///< an assignment-log replay instead
                                        ///< of the probe handshake
};

/// One MonitorStats counter: its field name and member pointer.
struct MonitorCounter {
  std::string_view name;
  std::uint64_t MonitorStats::*field;
};

/// Every MonitorStats counter, in declaration order. Code that sums or
/// compares counters iterates this table instead of listing fields.
inline constexpr MonitorCounter kMonitorCounters[] = {
    {"violation_steps", &MonitorStats::violation_steps},
    {"violations", &MonitorStats::violations},
    {"handler_calls", &MonitorStats::handler_calls},
    {"midpoint_updates", &MonitorStats::midpoint_updates},
    {"filter_resets", &MonitorStats::filter_resets},
    {"protocol_runs", &MonitorStats::protocol_runs},
    {"polls", &MonitorStats::polls},
    {"full_rebuilds", &MonitorStats::full_rebuilds},
    {"resyncs", &MonitorStats::resyncs},
    {"resync_retries", &MonitorStats::resync_retries},
    {"reset_backoffs", &MonitorStats::reset_backoffs},
    {"suspicions", &MonitorStats::suspicions},
    {"quarantines", &MonitorStats::quarantines},
    {"stale_detections", &MonitorStats::stale_detections},
    {"assign_replays", &MonitorStats::assign_replays},
};
// A counter added to MonitorStats without a row here fails to compile.
static_assert(sizeof(MonitorStats) ==
              std::size(kMonitorCounters) * sizeof(std::uint64_t));

/// Abstract Top-k-Position monitor.
class MonitorBase {
 public:
  virtual ~MonitorBase() = default;

  /// Short identifier used in tables ("topk_filter", "naive", ...).
  virtual std::string_view name() const = 0;

  /// Called once, after the nodes observed their first values (time 0).
  /// Establishes the initial coordinator knowledge and filters.
  virtual void initialize(Cluster& cluster) = 0;

  /// Called after the nodes observed the values of time step t (t >= 1).
  /// Runs the between-observations communication protocol of the paper's
  /// model until quiescence.
  virtual void step(Cluster& cluster, TimeStep t) = 0;

  /// The coordinator's current answer: ids of the top-k nodes, sorted by
  /// id (canonical set representation).
  virtual const std::vector<NodeId>& topk() const = 0;

  const MonitorStats& monitor_stats() const noexcept { return mstats_; }

 protected:
  MonitorStats mstats_;
};

}  // namespace topkmon
