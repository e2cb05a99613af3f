// e20 — adversarial fault suite: degraded-but-alive nodes (laggards,
// stale responders, mutes) against the suspicion state machines, the
// warm-standby assignment replay against the re-sync handshake, and
// membership churn on sharded deployments.
//
// The claim under test extends e19 from fail-stop to adversarial
// degradation: a node that is *alive but wrong* — lagging past the
// session window, frozen on a stale value, or silently dropping its
// uplink — is inferred, quarantined, and re-admitted after it heals,
// with a bounded error tail; and a recovering/joining node can be warmed
// from the coordinator's collapsed assignment log in one message instead
// of a probe/reply/assign storm.
//
// Hard assertions (every run, not just CI):
//   * instant degradation rows: zero divergent answers in the tail
//     window after the heal — quarantine release re-converged exactly;
//   * mute rows: the suspicion machinery convicted every muted node
//     (quarantines >= the number of muted nodes);
//   * filter stale rows: at least one contradiction conviction
//     (stale_detections > 0) — the naive family cannot detect stale and
//     is not asserted;
//   * replay rows: assign_replays fired, and the replay row runs fewer
//     re-sync handshakes and sends fewer messages than the handshake
//     twin, with no more probe retries;
//   * sharded churn rows (instant): zero tail errors at c in {2, 4} —
//     whole-deployment exactness after crash/recover/join across shards.
//
// Outputs:
//   * ctx.emit("e20_adversarial"): deterministic fingerprint
//     (suspicions, quarantines, stale detections, replays, error tails)
//     — byte-identical across --jobs, diffed by CI.
//   * BENCH_adversarial_<label>.json: wall-clock record, next to the
//     e16..e19 BENCH files in the perf trajectory.
#include <stdexcept>
#include <string>
#include <vector>

#include "bench_common.hpp"

namespace topkmon::bench {
namespace {

struct AdvCase {
  std::string name;
  std::string monitor;
  const char* mon_tag;
  const char* network;
  const char* plan_tag;
  std::string plan;
  std::size_t n;
  std::size_t k;
  std::size_t shards = 1;
  std::uint64_t max_step;    ///< random-walk volatility
  std::size_t degradations;  ///< muted/degraded node count (conviction floor)
  bool assert_tail;          ///< instant: zero errors after tail_start
  bool assert_stale;         ///< filter row: stale_detections > 0
};

constexpr std::uint64_t kMaxRecoveryTicks = 50'000;

TOPKMON_SUITE(e20_adversarial,
              "adversarial faults: laggards, stale responders, mutes, "
              "warm-standby replay and sharded churn") {
  const std::uint64_t steps =
      std::max<std::uint64_t>(60, ctx.opts().steps_or(600));
  const std::uint64_t seed = ctx.opts().seed;

  const auto at = [&](double f) {
    return std::to_string(static_cast<std::uint64_t>(steps * f));
  };
  // Degradations start at 0.2 and heal at 0.5: the wide margin to the
  // 0.85 tail covers the release-probe backoff (capped at 16 steps) even
  // at the --steps 60 smoke scale.
  const std::string mute3 = "churn?mute=0@" + at(0.2) + ",mute=1@" + at(0.2) +
                            ",mute=2@" + at(0.2) + ",heal=0@" + at(0.5) +
                            ",heal=1@" + at(0.5) + ",heal=2@" + at(0.5);
  const std::string lag1 = "churn?lag=0@" + at(0.2) + ":200,heal=0@" + at(0.5);
  const std::string stale1 = "churn?stale=0@" + at(0.2) + ",heal=0@" + at(0.5);
  const std::string joins = "churn?join=+32@" + at(0.3);
  const std::string sharded_mix =
      "churn?crash=5@" + at(0.15) + ",recover=5@" + at(0.3) + ",join=+16@" +
      at(0.45) + ",leave=2@" + at(0.55) + ",crash=20@" + at(0.65) +
      ",recover=20@" + at(0.72);
  const TimeStep tail_start =
      static_cast<TimeStep>(static_cast<double>(steps) * 0.85);

  std::vector<AdvCase> cases;
  const auto add = [&](AdvCase c) { cases.push_back(std::move(c)); };

  // -- degradation grid: 3 suspicion monitors x 2 networks x 3 plans ------
  // Tight cluster (half the nodes are members) so the degraded ids are
  // guaranteed to interact with the k-boundary whichever way the walk
  // breaks; volatile walk so detection has material to work with.
  struct MonDef {
    const char* spec;
    const char* tag;
    bool filter;  ///< contradiction detection available
  };
  const std::vector<MonDef> mons = {
      {"topk_filter?nobeacon,suspect", "filter_sus", true},
      {"naive?suspect", "naive_sus", false},
      {"naive_chg?suspect", "naive_chg_sus", false},
  };
  for (const MonDef& m : mons) {
    for (const char* net : {"instant", "delay=2"}) {
      const bool instant = std::string_view(net) == "instant";
      add({std::string(m.tag) + "_" + net + "_mute", m.spec, m.tag, net,
           "mute", mute3, 8, 4, 1, 4'000'000, 3, instant, false});
      if (m.filter) {
        // Lag conviction and stale contradiction are filter-only: the
        // naive family either absorbs in-step lag (reports still arrive
        // within the settle loop) or cannot distinguish a frozen report
        // from a quiet value.
        add({std::string(m.tag) + "_" + net + "_lag", m.spec, m.tag, net,
             "lag", lag1, 8, 4, 1, 4'000'000, 1, instant, false});
        add({std::string(m.tag) + "_" + net + "_stale", m.spec, m.tag, net,
             "stale", stale1, 8, 4, 1, 4'000'000, 0, instant, instant});
      }
    }
  }

  // -- warm-standby replay vs the re-sync handshake ------------------------
  // Calm walk: replay only fires when the coordinator is idle at the join
  // tick, which is the steady-state case it exists for.
  add({"replay_off_joins", "topk_filter?nobeacon", "handshake", "instant",
       "joins", joins, 64, 16, 1, 64, 0, true, false});
  add({"replay_on_joins", "topk_filter?nobeacon,replay", "replay", "instant",
       "joins", joins, 64, 16, 1, 64, 0, true, false});

  // -- sharded membership churn at c in {2, 4} -----------------------------
  for (const std::size_t c : {std::size_t{2}, std::size_t{4}}) {
    for (const char* mon : {"topk_filter?nobeacon", "naive_chg"}) {
      const char* mtag =
          std::string_view(mon) == "naive_chg" ? "naive_chg" : "filter";
      add({"shard" + std::to_string(c) + "_" + mtag + "_mixed", mon, mtag,
           "instant", "sharded_mixed", sharded_mix, 64, 8, c, 64, 0, true,
           false});
    }
  }

  const auto outcomes =
      ctx.runner().map<RunResult>(cases.size(), [&](std::size_t i) {
        const AdvCase& c = cases[i];
        StreamSpec stream;
        stream.family = StreamFamily::kRandomWalk;
        stream.walk.hi = 50'000'000;
        stream.walk.max_step = c.max_step;
        Scenario sc = scenario(c.monitor, stream, c.n, c.k, steps, seed);
        sc.with_network(c.network);
        sc.faults = c.plan;
        sc.shards = c.shards;
        sc.validation = RunConfig::Validation::kStrict;
        sc.throw_on_error = false;
        RunResult r = run_scenario(sc);

        if (c.assert_tail && r.error_steps_since(tail_start) != 0) {
          throw std::logic_error(
              "e20: " + c.name + " still diverging after step " +
              std::to_string(tail_start) + " (" +
              std::to_string(r.error_steps_since(tail_start)) +
              " tail error steps) — quarantine release / churn recovery "
              "never re-converged");
        }
        // Conviction needs strikes to accrue: at smoke scales
        // (--steps 60) the degradation window is too short to guarantee
        // it, so the detection floor is asserted at full scale only.
        if (steps >= 300 && r.monitor.quarantines < c.degradations) {
          throw std::logic_error(
              "e20: " + c.name + " convicted only " +
              std::to_string(r.monitor.quarantines) + " of " +
              std::to_string(c.degradations) + " degraded nodes");
        }
        if (steps >= 300 && c.assert_stale &&
            r.monitor.stale_detections == 0) {
          throw std::logic_error(
              "e20: " + c.name +
              " detected no stale contradiction on an instant network");
        }
        if (r.max_recovery_ticks() > kMaxRecoveryTicks) {
          throw std::logic_error("e20: " + c.name + " recovery window " +
                                 std::to_string(r.max_recovery_ticks()) +
                                 " ticks exceeds the bound " +
                                 std::to_string(kMaxRecoveryTicks));
        }
        return r;
      });

  // The replay twin rows are adjacent by construction; compare them after
  // the map so the assertion sees both sides.
  for (std::size_t i = 0; i + 1 < cases.size(); ++i) {
    if (cases[i].plan_tag != std::string_view("joins")) continue;
    const RunResult& handshake = outcomes[i];
    const RunResult& replay = outcomes[i + 1];
    if (replay.monitor.assign_replays == 0) {
      throw std::logic_error(
          "e20: replay row served no warm-standby replays");
    }
    if (replay.monitor.resync_retries > handshake.monitor.resync_retries ||
        replay.monitor.resyncs >= handshake.monitor.resyncs ||
        replay.comm.total() >= handshake.comm.total()) {
      throw std::logic_error(
          "e20: assignment replay did not cut the re-sync handshakes (" +
          std::to_string(replay.monitor.resyncs) + "/" +
          std::to_string(replay.monitor.resync_retries) + "/" +
          std::to_string(replay.comm.total()) + " vs handshake " +
          std::to_string(handshake.monitor.resyncs) + "/" +
          std::to_string(handshake.monitor.resync_retries) + "/" +
          std::to_string(handshake.comm.total()) +
          " resyncs/retries/messages)");
    }
    break;
  }

  Table fingerprint({"case", "monitor", "network", "plan", "steps",
                     "error_steps", "tail_errors", "max_recovery_ticks",
                     "suspicions", "quarantines", "stale_detections",
                     "assign_replays", "resyncs", "resync_retries",
                     "msgs_per_step"});
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const AdvCase& c = cases[i];
    const RunResult& r = outcomes[i];
    fingerprint.add_row(
        {c.name, c.mon_tag, c.network, c.plan_tag,
         std::to_string(r.steps_executed), std::to_string(r.error_steps),
         std::to_string(r.error_steps_since(tail_start)),
         std::to_string(r.max_recovery_ticks()),
         std::to_string(r.monitor.suspicions),
         std::to_string(r.monitor.quarantines),
         std::to_string(r.monitor.stale_detections),
         std::to_string(r.monitor.assign_replays),
         std::to_string(r.monitor.resyncs),
         std::to_string(r.monitor.resync_retries),
         fmt(r.messages_per_step(), 3)});
  }
  ctx.emit(fingerprint, "e20_adversarial");

  std::vector<BenchRow> rows;
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const AdvCase& c = cases[i];
    const RunResult& r = outcomes[i];
    const double sps = r.steady_steps_per_second();
    rows.emplace_back()
        .text("name", c.name)
        .count("n", c.n)
        .count("k", c.k)
        .text("monitor", c.mon_tag)
        .text("network", c.network)
        .text("plan", c.plan_tag)
        .count("shards", c.shards)
        .real("wall_seconds", r.wall_seconds, 6)
        .real("steps_per_sec", sps, 1)
        .count("messages", r.comm.total())
        .count("error_steps", r.error_steps)
        .count("max_recovery_ticks", r.max_recovery_ticks())
        .count("quarantines", r.monitor.quarantines)
        .count("assign_replays", r.monitor.assign_replays);
  }
  emit_bench_file(ctx, "e20", "adversarial", steps, rows);
}

}  // namespace
}  // namespace topkmon::bench
