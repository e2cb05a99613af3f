// perf — wall-clock perf suite tracking the simulator's hot-path speed
// over time (BENCH_*.json trajectory).
//
// Times a fixed set of representative scenario configurations — instant
// and scheduled networks, small and large n, validation on and off — over
// a fixed step count and reports steps/sec, ns/step and (when the
// counting allocator hook is compiled in) heap allocations per step.
//
// Two outputs with different determinism contracts:
//
//   * ctx.emit("perf"): the *fingerprint* table — message counts,
//     error steps, configuration — is bit-deterministic and must be
//     byte-identical across --jobs (CI diffs it like every other suite).
//   * BENCH_<label>.json: the timing record appended to the repo's perf
//     trajectory. Wall-clock numbers are machine-dependent by nature and
//     are NOT diffed; <label> comes from $TOPKMON_BENCH_LABEL, falling
//     back to `git describe --always --dirty`, falling back to the UTC
//     date.
#include <algorithm>
#include <stdexcept>
#include <string>
#include <vector>

#include "alloc_hook.hpp"
#include "bench_common.hpp"
#include "bench_json.hpp"

namespace topkmon::bench {
namespace {

struct PerfCase {
  const char* name;
  const char* monitor;
  StreamFamily family;
  const char* network;     // parse_network_spec input
  std::size_t n;
  std::size_t k;
  RunConfig::Validation validation;
  /// Fault-plan spec ("none" = fault-free). The faulted case tracks the
  /// recovery-window trajectory: its max_recovery_ticks lands in the
  /// BENCH json and is gated by --compare like error_steps.
  const char* faults = "none";
};

const char* validation_name(RunConfig::Validation v) {
  switch (v) {
    case RunConfig::Validation::kStrict: return "strict";
    case RunConfig::Validation::kWeak: return "weak";
    case RunConfig::Validation::kOff: return "off";
  }
  return "?";
}

struct PerfOutcome {
  RunResult run;
  std::uint64_t allocs = 0;  // during the timed run (hook-enabled only)
};

/// Regression gate of `--compare OLD.json`. Wall-clock numbers are noisy
/// (shared CI runners), so only a large steps/sec drop fails, and only
/// for cases whose wall time is long enough to measure at all —
/// sub-10ms runs are scheduler-granularity noise; allocation counts are
/// deterministic, so any material per-step growth always fails.
constexpr double kMaxSlowdown = 0.30;      ///< tolerated steps/sec drop
constexpr double kMaxAllocGrowth = 0.10;   ///< tolerated allocs/step growth
constexpr double kMinJudgeableWall = 0.01; ///< s; below: timing verdicts off

void compare_against(const std::string& path,
                     const std::vector<PerfCase>& cases,
                     const std::vector<PerfOutcome>& outcomes,
                     SuiteContext& ctx) {
  const auto old = read_bench_file(path);
  if (!old) {
    throw std::runtime_error("perf --compare: cannot read '" + path +
                             "' as a topkmon-bench-v1 file");
  }
  Table diff({"case", "steps/s old", "steps/s new", "Δ%", "allocs/step old",
              "allocs/step new", "errs old", "errs new", "verdict"});
  std::vector<std::string> regressions;
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const RunResult& r = outcomes[i].run;
    const BenchRecord* prev = nullptr;
    for (const BenchRecord& rec : old->scenarios) {
      if (rec.name == cases[i].name) {
        prev = &rec;
        break;
      }
    }
    const double sps_new =
        r.wall_seconds > 0.0
            ? static_cast<double>(r.steps_executed) / r.wall_seconds
            : 0.0;
    const double aps_new =
        alloc_hook_enabled() && r.steps_executed > 0
            ? static_cast<double>(outcomes[i].allocs) /
                  static_cast<double>(r.steps_executed)
            : -1.0;
    if (prev == nullptr) {
      diff.add_row({cases[i].name, "-", fmt(sps_new, 0), "-", "-",
                    aps_new < 0 ? "n/a" : fmt(aps_new, 3), "-",
                    std::to_string(r.error_steps), "new case"});
      continue;
    }
    const double sps_old = prev->steps_per_sec;
    const double delta =
        sps_old > 0.0 ? (sps_new - sps_old) / sps_old : 0.0;
    // Old per-step allocs: the old file records its own step count
    // (steps + the init step), matching its allocs total.
    const double aps_old =
        prev->allocs && old->steps > 0
            ? static_cast<double>(*prev->allocs) /
                  static_cast<double>(old->steps + 1)
            : -1.0;
    const bool judgeable = r.wall_seconds >= kMinJudgeableWall &&
                           prev->wall_seconds >= kMinJudgeableWall;
    std::string verdict = judgeable ? "ok" : "ok (short)";
    if (judgeable && sps_old > 0.0 && delta < -kMaxSlowdown) {
      verdict = "SLOWER";
      regressions.push_back(std::string(cases[i].name) + ": steps/sec " +
                            fmt(sps_old, 0) + " -> " + fmt(sps_new, 0));
    }
    // Allocation gate only when both builds carried the hook; a one-alloc
    // absolute floor keeps tiny counts from tripping on rounding.
    if (aps_old >= 0.0 && aps_new >= 0.0 &&
        aps_new > aps_old * (1.0 + kMaxAllocGrowth) + 1.0) {
      verdict = verdict == "ok" ? "ALLOCS" : verdict + "+ALLOCS";
      regressions.push_back(std::string(cases[i].name) + ": allocs/step " +
                            fmt(aps_old, 3) + " -> " + fmt(aps_new, 3));
    }
    // Correctness gate: error steps are deterministic at a fixed seed and
    // step count, so any growth is a real robustness regression (the
    // monitor diverging on steps it used to get right) — never timing
    // noise. Only comparable when both runs executed the same step count
    // (steps_executed counts the init step on top of old->steps).
    if (old->steps + 1 == r.steps_executed &&
        r.error_steps > prev->error_steps) {
      verdict = verdict.substr(0, 2) == "ok" ? "ERRORS" : verdict + "+ERRORS";
      regressions.push_back(std::string(cases[i].name) + ": error_steps " +
                            std::to_string(prev->error_steps) + " -> " +
                            std::to_string(r.error_steps));
    }
    // Recovery-window gate, next to the error_steps one: the faulted
    // case's worst re-convergence window is deterministic too, but it is
    // measured in delivery ticks across the whole settle, so incidental
    // trace changes shift it by a few ticks — a material growth (25% plus
    // a 50-tick floor) is what marks a robustness regression. Skipped for
    // files written before the perf suite carried a faulted case.
    if (old->steps + 1 == r.steps_executed && prev->max_recovery_ticks &&
        static_cast<double>(r.max_recovery_ticks()) >
            static_cast<double>(*prev->max_recovery_ticks) * 1.25 + 50.0) {
      verdict =
          verdict.substr(0, 2) == "ok" ? "RECOVERY" : verdict + "+RECOVERY";
      regressions.push_back(
          std::string(cases[i].name) + ": max_recovery_ticks " +
          std::to_string(*prev->max_recovery_ticks) + " -> " +
          std::to_string(r.max_recovery_ticks()));
    }
    diff.add_row({cases[i].name, fmt(sps_old, 0), fmt(sps_new, 0),
                  fmt(delta * 100.0, 1), aps_old < 0 ? "n/a" : fmt(aps_old, 3),
                  aps_new < 0 ? "n/a" : fmt(aps_new, 3),
                  std::to_string(prev->error_steps),
                  std::to_string(r.error_steps), verdict});
  }
  ctx.out() << "\nperf: diff vs " << path << " (label '" << old->label
            << "')\n";
  diff.print(ctx.out());
  if (!regressions.empty()) {
    std::string msg = "perf regression vs " + path + ":";
    for (const std::string& r : regressions) msg += "\n  " + r;
    throw std::runtime_error(msg);
  }
}

TOPKMON_SUITE(perf, "hot-path wall-clock suite (emits BENCH_*.json)") {
  const std::uint64_t steps = ctx.opts().steps_or(2'000);
  const std::uint64_t seed = ctx.opts().seed;

  // Churn schedule for the faulted case, scaled to the step count so
  // --steps overrides keep every event inside the run.
  const auto at = [&](double f) {
    return std::to_string(std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(steps * f)));
  };
  const std::string churn_plan =
      "churn?crash=9@" + at(0.2) + ",recover=9@" + at(0.35) + ",join=+32@" +
      at(0.5) + ",crash=20@" + at(0.7) + ",recover=20@" + at(0.75);

  const std::vector<PerfCase> cases = {
      {"instant_small_strict", "topk_filter", StreamFamily::kRandomWalk,
       "instant", 64, 8, RunConfig::Validation::kStrict},
      {"instant_small_off", "topk_filter", StreamFamily::kRandomWalk,
       "instant", 64, 8, RunConfig::Validation::kOff},
      {"instant_large_strict", "topk_filter", StreamFamily::kRandomWalk,
       "instant", 1024, 16, RunConfig::Validation::kStrict},
      {"instant_large_off", "topk_filter", StreamFamily::kRandomWalk,
       "instant", 1024, 16, RunConfig::Validation::kOff},
      {"instant_naive_weak", "naive", StreamFamily::kRandomWalk, "instant",
       256, 8, RunConfig::Validation::kWeak},
      {"instant_iid_strict", "topk_filter", StreamFamily::kIidUniform,
       "instant", 256, 8, RunConfig::Validation::kStrict},
      {"sched_delay_weak", "topk_filter", StreamFamily::kRandomWalk,
       "delay=2,jitter=3,ticks=64", 64, 8, RunConfig::Validation::kWeak},
      {"sched_drop_off", "topk_filter", StreamFamily::kRandomWalk,
       "delay=1,drop=0.01,ticks=64", 256, 8, RunConfig::Validation::kOff},
      // Burst-heavy scheduled traffic: naive pushes n reports per step
      // through the timing wheel — its slots and the inboxes keep their
      // capacity, so sustained bursts must be allocation-free after
      // warm-up.
      {"sched_burst_naive", "naive", StreamFamily::kRandomWalk,
       "delay=2,jitter=4,ticks=8", 256, 8, RunConfig::Validation::kWeak},
      // Broadcast-heavy instant traffic: a volatile walk at larger n keeps
      // the filter coordinator convening selection protocols, whose round
      // beacons broadcast to all n nodes — the workload the bulk
      // instant-broadcast fan-out (in-place log suffixes, O(1) acks)
      // exists for.
      {"instant_bcast_burst", "topk_filter", StreamFamily::kRandomWalk,
       "instant", 4096, 8, RunConfig::Validation::kOff},
      // Faulted hot path: crash/recover/join churn on the filter monitor.
      // Tracks the fault machinery's wall-clock cost next to the clean
      // rows and feeds max_recovery_ticks into the --compare gate.
      {"instant_churn_strict", "topk_filter", StreamFamily::kRandomWalk,
       "instant", 256, 16, RunConfig::Validation::kStrict,
       churn_plan.c_str()},
  };

  // One scenario per case; each runs on one worker thread, so the
  // thread-local allocation counter brackets the run exactly. Message
  // counts and error steps are jobs-independent (fixed seeds).
  const auto outcomes =
      ctx.runner().map<PerfOutcome>(cases.size(), [&](std::size_t i) {
        const PerfCase& c = cases[i];
        StreamSpec stream;
        stream.family = c.family;
        Scenario sc = scenario(c.monitor, stream, c.n, c.k, steps, seed);
        sc.network = parse_network_spec(c.network);
        sc.validation = c.validation;
        sc.faults = c.faults;
        sc.throw_on_error = false;  // lossy networks may diverge; record it
        PerfOutcome o;
        const std::uint64_t allocs_before = thread_alloc_count();
        o.run = run_scenario(sc);
        o.allocs = thread_alloc_count() - allocs_before;
        return o;
      });

  // Deterministic fingerprint (diffed across --jobs by CI).
  Table fingerprint({"case", "monitor", "family", "network", "n", "k",
                     "steps", "validation", "msgs_total", "msgs_per_step",
                     "error_steps", "max_recovery_ticks"});
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const PerfCase& c = cases[i];
    const RunResult& r = outcomes[i].run;
    fingerprint.add_row({c.name, c.monitor, std::string(family_name(c.family)),
                         c.network, std::to_string(c.n), std::to_string(c.k),
                         std::to_string(r.steps_executed),
                         validation_name(c.validation),
                         std::to_string(r.comm.total()),
                         fmt(r.messages_per_step(), 3),
                         std::to_string(r.error_steps),
                         std::to_string(r.max_recovery_ticks())});
  }
  ctx.emit(fingerprint, "perf");

  // Timing summary (console) and the BENCH record: wall clock is
  // machine-dependent, so neither is diffed.
  Table timing({"case", "steps/sec", "ns/step", "allocs/step", "wall_s"});
  std::vector<BenchRow> rows;
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const PerfCase& c = cases[i];
    const RunResult& r = outcomes[i].run;
    const double sps =
        r.wall_seconds > 0.0
            ? static_cast<double>(r.steps_executed) / r.wall_seconds
            : 0.0;
    const double nsps =
        r.steps_executed > 0
            ? r.wall_seconds * 1e9 / static_cast<double>(r.steps_executed)
            : 0.0;
    const double allocs_per_step =
        static_cast<double>(outcomes[i].allocs) /
        static_cast<double>(r.steps_executed ? r.steps_executed : 1);
    const std::string allocs =
        alloc_hook_enabled() ? fmt(allocs_per_step, 3) : "n/a";
    timing.add_row({c.name, fmt(sps, 0), fmt(nsps, 0), allocs,
                    fmt(r.wall_seconds, 3)});
    BenchRow& row = rows.emplace_back();
    row.text("name", c.name)
        .text("monitor", c.monitor)
        .text("family", family_name(c.family))
        .text("network", c.network)
        .count("n", c.n)
        .count("k", c.k)
        .text("validation", validation_name(c.validation))
        .real("wall_seconds", r.wall_seconds, 6)
        .real("steps_per_sec", sps, 1)
        .real("ns_per_step", nsps, 1)
        .count("messages_total", r.comm.total())
        .count("error_steps", r.error_steps)
        .count("max_recovery_ticks", r.max_recovery_ticks());
    if (alloc_hook_enabled()) {
      row.count("allocs", outcomes[i].allocs)
          .real("allocs_per_step", allocs_per_step, 3);
    }
  }
  ctx.out() << "\n";
  timing.print(ctx.out());
  emit_bench_file(ctx, "perf", "", steps, rows);

  // Built-in trajectory diff: compare against a previous BENCH file and
  // fail the suite (non-zero topkmon_bench exit) on regression.
  if (!ctx.opts().compare.empty()) {
    compare_against(ctx.opts().compare, cases, outcomes, ctx);
  }
}

}  // namespace
}  // namespace topkmon::bench
