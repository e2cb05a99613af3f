// Algorithm-level event counters shared by every Top-k-Position monitor.
// Each monitor is one coordinator plus n node algorithms (core/roles.hpp);
// its coordinator keeps these counters, and run results, sharded
// aggregates and the differential tests read them through
// kMonitorCounters.
#pragma once

#include <cstdint>
#include <iterator>
#include <string_view>

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

}  // namespace topkmon
