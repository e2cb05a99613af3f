// e19 — churn suite: deterministic fault injection (sim/fault_plan.hpp)
// composed with the delivery-policy sweep.
//
// The claim under test: the monitors survive node churn — crashes,
// recoveries, joins, leaves and mid-run k renegotiation — with a *bounded*
// recovery window, on lossy networks included. Each (monitor, network)
// cell runs four fault plans on the same paired streams (the faults axis
// never enters the seed, so every churned run is a paired replay of its
// fault-free twin): no faults, light generated churn, heavy generated
// churn, and an explicit mixed schedule exercising every event kind.
//
// Hard assertions (every run, not just CI):
//   * instant rows: zero divergent answers in the tail window after the
//     last scheduled event — the monitor re-converged, full stop;
//   * all non-drop rows: RunResult::max_recovery_ticks() under a generous
//     fixed bound — a monitor that "recovers" by erroring until the run
//     ends shows up as an unbounded window, which the aggregate
//     error_rate() would hide (see RunResult::error_steps_since);
//   * plans with recoveries/joins: resyncs > 0 — the re-sync handshake
//     actually fired.
// Drop rows are report-only: loss makes the recovery window a measured
// quantity, not a contract.
//
// Outputs:
//   * ctx.emit("e19_churn"): deterministic fingerprint (error steps, tail
//     errors, recovery ticks, re-sync counters, messages) — byte-identical
//     across --jobs, diffed by CI.
//   * BENCH_churn_<label>.json: wall-clock record, next to e16/e18's
//     BENCH files in the perf trajectory.
#include <stdexcept>
#include <string>
#include <vector>

#include "bench_common.hpp"

namespace topkmon::bench {
namespace {

struct ChurnCase {
  std::string name;
  const char* monitor;
  const char* mon_tag;
  const char* network;
  const char* plan_tag;
  std::string plan;
  bool lossy;        ///< drop policy: recovery bound not asserted
  bool has_resync;   ///< plan schedules recover/join events
};

/// Non-drop recovery-window contract: generous (the window is measured in
/// delivery ticks across the whole settle, and delay/jitter stretch it),
/// but far below the "never recovered" regime, which runs to the end of
/// the simulation (hundreds of thousands of ticks at these sizes).
constexpr std::uint64_t kMaxRecoveryTicks = 5'000;

TOPKMON_SUITE(e19_churn,
              "fault injection: node churn, crash-recovery re-sync and "
              "dynamic k across delivery policies") {
  // The fault schedules scale with the step count so the tail window
  // stays meaningful under --steps overrides; the floor keeps the
  // schedule's step fractions distinct.
  const std::uint64_t steps =
      std::max<std::uint64_t>(60, ctx.opts().steps_or(600));
  const std::uint64_t seed = ctx.opts().seed;
  constexpr std::size_t kN = 256;
  constexpr std::size_t kK = 16;

  const auto at = [&](double f) {
    return std::to_string(static_cast<std::uint64_t>(steps * f));
  };
  const std::string light = "churn?every=" + at(0.2) + ",down=2,count=3" +
                            ",outage=" + at(0.05);
  const std::string heavy = "churn?every=" + at(0.12) + ",down=8,count=5" +
                            ",outage=" + at(0.08);
  const std::string mixed =
      "churn?crash=17@" + at(0.15) + ",recover=17@" + at(0.25) + ",join=+64@" +
      at(0.4) + ",leave=12@" + at(0.5) + ",k=24@" + at(0.6) + ",crash=40@" +
      at(0.7) + ",recover=40@" + at(0.75);
  // Last scheduled event fires by 0.75 * steps; give the monitor a 10%
  // margin, then require silence (instant rows).
  const TimeStep tail_start =
      static_cast<TimeStep>(static_cast<double>(steps) * 0.85);

  const std::vector<std::pair<const char*, const char*>> monitors = {
      {"topk_filter?nobeacon", "filter"},
      {"topk_filter?nobeacon,backoff", "filter_bk"},
      {"naive", "naive"},
      {"naive_chg", "naive_chg"},
  };
  const std::vector<std::pair<const char*, bool>> networks = {
      {"instant", false},
      {"delay=2", false},
      {"jitter=3", false},
      {"drop=0.05", true},
  };
  struct PlanDef {
    const char* tag;
    const std::string* spec;
    bool has_resync;
  };
  const std::vector<PlanDef> plans = {
      {"none", nullptr, false},
      {"light", &light, true},
      {"heavy", &heavy, true},
      {"mixed", &mixed, true},
  };

  std::vector<ChurnCase> cases;
  for (const auto& [mon, mtag] : monitors) {
    for (const auto& [net, lossy] : networks) {
      for (const PlanDef& p : plans) {
        ChurnCase c;
        c.name = std::string(mtag) + "_" + net + "_" + p.tag;
        c.monitor = mon;
        c.mon_tag = mtag;
        c.network = net;
        c.plan_tag = p.tag;
        c.plan = p.spec != nullptr ? *p.spec : std::string("none");
        c.lossy = lossy;
        c.has_resync = p.has_resync;
        cases.push_back(std::move(c));
      }
    }
  }

  const auto outcomes =
      ctx.runner().map<RunResult>(cases.size(), [&](std::size_t i) {
        const ChurnCase& c = cases[i];
        StreamSpec stream;
        stream.family = StreamFamily::kSparse;
        stream.sparse.rate = 0.05;
        stream.sparse_inner = StreamFamily::kRandomWalk;
        stream.walk.hi = 100'000'000;
        stream.walk.max_step = 64;
        Scenario sc = scenario(c.monitor, stream, kN, kK, steps, seed);
        sc.with_network(c.network);
        sc.faults = c.plan;
        // Divergence during recovery is the measured quantity, never an
        // abort; strict set equality keeps the error accounting sharp
        // (wide value range => ties are practically absent).
        sc.validation = RunConfig::Validation::kStrict;
        sc.throw_on_error = false;
        RunResult r = run_scenario(sc);

        const bool instant = std::string_view(c.network) == "instant";
        if (instant && r.error_steps_since(tail_start) != 0) {
          throw std::logic_error(
              "e19: " + c.name + " still diverging after step " +
              std::to_string(tail_start) + " on an instant network (" +
              std::to_string(r.error_steps_since(tail_start)) +
              " tail error steps) — the monitor never re-converged");
        }
        if (!c.lossy && r.max_recovery_ticks() > kMaxRecoveryTicks) {
          throw std::logic_error(
              "e19: " + c.name + " recovery window " +
              std::to_string(r.max_recovery_ticks()) +
              " ticks exceeds the lossless bound " +
              std::to_string(kMaxRecoveryTicks));
        }
        if (c.has_resync && r.monitor.resyncs == 0) {
          throw std::logic_error("e19: " + c.name +
                                 " scheduled recoveries but the re-sync "
                                 "handshake never fired");
        }
        return r;
      });

  Table fingerprint({"case", "monitor", "network", "plan", "steps",
                     "error_steps", "tail_errors", "max_recovery_ticks",
                     "resyncs", "resync_retries", "reset_backoffs",
                     "msgs_per_step"});
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const ChurnCase& c = cases[i];
    const RunResult& r = outcomes[i];
    fingerprint.add_row(
        {c.name, c.mon_tag, c.network, c.plan_tag,
         std::to_string(r.steps_executed), std::to_string(r.error_steps),
         std::to_string(r.error_steps_since(tail_start)),
         std::to_string(r.max_recovery_ticks()),
         std::to_string(r.monitor.resyncs),
         std::to_string(r.monitor.resync_retries),
         std::to_string(r.monitor.reset_backoffs),
         fmt(r.messages_per_step(), 3)});
  }
  ctx.emit(fingerprint, "e19_churn");

  std::vector<BenchRow> rows;
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const ChurnCase& c = cases[i];
    const RunResult& r = outcomes[i];
    const double sps = r.steady_steps_per_second();
    rows.emplace_back()
        .text("name", c.name)
        .count("n", kN)
        .count("k", kK)
        .text("monitor", c.mon_tag)
        .text("network", c.network)
        .text("plan", c.plan_tag)
        .real("wall_seconds", r.wall_seconds, 6)
        .real("steps_per_sec", sps, 1)
        .count("messages", r.comm.total())
        .count("error_steps", r.error_steps)
        .count("max_recovery_ticks", r.max_recovery_ticks())
        .count("resyncs", r.monitor.resyncs);
  }
  emit_bench_file(ctx, "e19", "churn", steps, rows);
}

}  // namespace
}  // namespace topkmon::bench
