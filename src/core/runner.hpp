// What one monitoring run is configured with and what it produced, plus
// the per-step answer check and the competitive-ratio helper. The run
// itself is exp::run_scenario (exp/scenario.hpp): it drives a monitor's
// role pair over the configured streams for T steps, validates the
// coordinator's answer against the ground truth after every step
// (check_answer_step) and fills a RunResult with message/event statistics
// (optionally the full value trace, enabling the offline-optimal
// comparison and competitive ratios).
#pragma once

#include <algorithm>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/monitor.hpp"
#include "core/offline_opt.hpp"
#include "sim/comm_stats.hpp"
#include "streams/trace.hpp"

namespace topkmon {

struct RunConfig {
  std::size_t n = 16;         ///< number of nodes
  std::size_t k = 4;          ///< monitored top-k size
  std::size_t steps = 1'000;  ///< observation steps after initialization
  std::uint64_t seed = 42;    ///< cluster / protocol randomness seed

  /// Validation mode: `kStrict` requires set equality with the ground
  /// truth (assumes pairwise-distinct values); `kWeak` accepts any valid
  /// top-k under ties — at most k ids, every member's value >= every
  /// non-member's, and no live true-top-k member missing (only nodes at
  /// kMinusInf, i.e. down or unjoined, may be left out); `kOff` skips
  /// validation (pure benchmarking).
  enum class Validation { kStrict, kWeak, kOff };
  Validation validation = Validation::kStrict;

  /// For monitors exposing an order (the ordered monitor's
  /// OrderedCoordinator): also check the rank order against the ground
  /// truth.
  bool validate_order = false;

  /// Record the full value trace (needed for offline-OPT comparison).
  bool record_trace = false;

  /// Record the per-step message series.
  bool record_series = false;
};

struct RunResult {
  std::string monitor_name;
  std::size_t steps_executed = 0;

  /// The configuration that produced this result (so downstream
  /// aggregation can key rows without threading the config separately).
  RunConfig config;

  /// Canonical name of the network policy the run executed under
  /// ("instant" unless a Scenario selected otherwise).
  std::string network = "instant";

  /// Wall-clock duration of the run in seconds (steady clock).
  double wall_seconds = 0.0;

  /// Portion of wall_seconds spent in step-0 initialization (stream/
  /// cluster construction and the initial protocol selection). Scale
  /// benchmarks subtract it to report steady-state steps/sec.
  double init_seconds = 0.0;

  // Communication totals (copied from the cluster at the end of the run).
  CommStats comm;
  MonitorStats monitor;

  /// Shard<->root tier message totals of a sharded run (`comm` then holds
  /// the node<->shard tier). All-zero for monolithic runs and for sharded
  /// runs with a single shard, whose root tier is inert by construction.
  CommStats root_comm;

  // Validation outcome.
  bool correct = true;
  std::optional<TimeStep> first_error_step;

  /// Number of steps whose answer diverged from the ground truth (only
  /// grows past 1 with throw_on_error == false; the staleness metric of
  /// the latency/loss experiments).
  std::uint64_t error_steps = 0;

  /// Fraction of steps with a divergent answer.
  double error_rate() const noexcept {
    return steps_executed == 0
               ? 0.0
               : static_cast<double>(error_steps) /
                     static_cast<double>(steps_executed);
  }

  /// Every step whose answer diverged, in ascending order (one entry per
  /// error_steps increment; empty when validation is off).
  std::vector<TimeStep> error_step_list;

  /// Errors recorded at steps >= t. The aggregate error_rate() can hide
  /// a monitor that never recovered behind a long clean prefix — a run
  /// with 2% errors may be 100% wrong after its last fault. Tail-window
  /// accounting is what the churn suite and the perf regression gate
  /// compare.
  std::uint64_t error_steps_since(TimeStep t) const noexcept {
    const auto it = std::lower_bound(error_step_list.begin(),
                                     error_step_list.end(), t);
    return static_cast<std::uint64_t>(error_step_list.end() - it);
  }

  /// Fault-injection outcome (exp::run_scenario with a fault plan): one
  /// entry per applied fault event, in schedule order — the delivery
  /// ticks from the event firing until the answer last diverged before
  /// the next event (0 = the event never produced a wrong answer). A
  /// bounded value at every event is the crash-recovery acceptance
  /// criterion; a window still erroring when the next event fires (or
  /// the run ends) means the monitor never re-converged.
  std::vector<std::uint64_t> recovery_ticks;

  /// Worst recovery window of the run (0 with no faults / no errors).
  std::uint64_t max_recovery_ticks() const noexcept {
    std::uint64_t worst = 0;
    for (const std::uint64_t r : recovery_ticks) worst = std::max(worst, r);
    return worst;
  }

  // Optional artifacts.
  std::optional<TraceMatrix> trace;

  /// Messages per step (total / steps; initialization included).
  double messages_per_step() const noexcept {
    return steps_executed == 0
               ? 0.0
               : static_cast<double>(comm.total()) /
                     static_cast<double>(steps_executed);
  }
};

class GroundTruthTracker;

/// The per-step validation of exp::run_scenario: checks `answer` against
/// the incrementally maintained ground truth under cfg.validation (plus
/// the rank order when cfg.validate_order and `claimed_order` is non-null
/// — the ranked answer, best first, of the OrderedCoordinator), records
/// any divergence on `result`
/// (correct / error_steps / first_error_step), and throws
/// std::logic_error when `throw_on_error`. `detail` is appended to the
/// error message (e.g. " (network delay=2)"). The caller owns `truth`
/// and must have fed it every value update (see GroundTruthTracker).
void check_answer_step(GroundTruthTracker& truth,
                       const std::vector<NodeId>& answer,
                       const std::vector<NodeId>* claimed_order,
                       const RunConfig& cfg, std::string_view monitor_name,
                       std::string_view detail, TimeStep t, RunResult* result,
                       bool throw_on_error);

/// Computes the empirical competitive ratio of a finished run against the
/// offline optimum on the recorded trace: total messages / max(1, OPT
/// updates). Requires cfg.record_trace to have been set.
double competitive_ratio(const RunResult& result, std::size_t k);

}  // namespace topkmon
