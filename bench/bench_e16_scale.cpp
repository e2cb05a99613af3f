// e16 — scale suite: steps/sec versus n under controlled activity rates,
// the missing scale axis of the perf trajectory.
//
// The paper's premise is that almost nothing happens almost all the time;
// PR 4 makes the simulator's per-step cost proportional to that activity
// instead of to n. This suite sweeps n × activity × network for the
// native filter monitor, running every configuration through both the
// activity-driven sparse loop and the legacy dense loop (Scenario::
// dense_loop), so the speedup — and the invariant that both loops produce
// identical messages and answers — is measured, not assumed.
//
// Outputs:
//   * ctx.emit("e16_scale"): deterministic fingerprint (message counts,
//     error steps) — byte-identical across --jobs, diffed by CI.
//   * BENCH_scale_<label>.json: wall-clock record (steps/sec per config,
//     sparse and dense), appended to the repo's perf trajectory next to
//     the perf suite's BENCH_<label>.json.

#include "bench_common.hpp"

namespace topkmon::bench {
namespace {

struct ScaleCase {
  std::string name;
  std::size_t n;
  double activity;
  const char* network;
  bool dense;
  /// Broadcast-burst workload: a volatile inner walk keeps the top-k
  /// churning, so the coordinator convenes selection protocols whose
  /// beacons broadcast to all n nodes — the violation-burst regime the
  /// bulk instant-broadcast fan-out targets.
  bool burst = false;
};

std::string case_name(std::size_t n, double activity, const char* network,
                      bool dense, bool burst) {
  std::string net = parse_network_spec(network).is_instant() ? "instant"
                                                             : "sched";
  return 'n' + std::to_string(n) + "_act" + fmt(activity, 2) + "_" + net +
         (burst ? "_burst" : "") + (dense ? "_dense" : "_sparse");
}

TOPKMON_SUITE(e16, "scale sweep: steps/sec vs n x activity (sparse vs dense "
                   "loop)") {
  const std::uint64_t steps = ctx.opts().steps_or(160);
  const std::uint64_t seed = ctx.opts().seed;
  constexpr std::size_t kK = 8;

  // n spans 2^10 .. 2^17; the 1% row is the paper's regime, the 100% row
  // is the adversarial dense workload where the sparse loop must not lose.
  const std::vector<std::size_t> ns = {1u << 10, 1u << 12, 1u << 14,
                                       1u << 16, 1u << 17};
  const std::vector<double> activities = {0.01, 1.0};
  const std::vector<const char*> networks = {"instant",
                                             "delay=1,jitter=2,ticks=8"};

  std::vector<ScaleCase> cases;
  for (const std::size_t n : ns) {
    for (const double act : activities) {
      for (const char* net : networks) {
        for (const bool dense : {false, true}) {
          cases.push_back(ScaleCase{case_name(n, act, net, dense, false), n,
                                    act, net, dense, false});
        }
      }
    }
  }
  // Broadcast-burst column (instant only — that is where the bulk fan-out
  // applies): 1% of nodes move per step, but each move is violent enough
  // to keep violating filters, so most steps trigger protocol beacons
  // that fan out to all n nodes. Laid out sparse/dense adjacent like the
  // drift cases so the equivalence check below covers the burst rows too.
  for (const std::size_t n : ns) {
    for (const bool dense : {false, true}) {
      cases.push_back(ScaleCase{case_name(n, 0.01, "instant", dense, true), n,
                                0.01, "instant", dense, true});
    }
  }

  const auto outcomes =
      ctx.runner().map<RunResult>(cases.size(), [&](std::size_t i) {
        const ScaleCase& c = cases[i];
        StreamSpec stream;
        stream.family = StreamFamily::kSparse;
        stream.sparse.rate = c.activity;
        stream.sparse_inner = StreamFamily::kRandomWalk;
        if (c.burst) {
          // Narrow range, violent steps: the active 1% of nodes crosses
          // filter bounds nearly every step, so the coordinator's
          // selection beacons broadcast constantly.
          stream.walk.hi = 1'000'000;
          stream.walk.max_step = 10'000;
        } else {
          // Wide value range relative to the walk step: nodes drift
          // without constantly reshuffling the top-k — the paper's "no
          // news is good news" regime the activity-driven loop is built
          // for (violation bursts still occur, just not every step).
          stream.walk.hi = 100'000'000;
          stream.walk.max_step = 64;
        }
        Scenario sc =
            scenario("topk_filter?nobeacon", stream, c.n, kK, steps, seed);
        sc.network = parse_network_spec(c.network);
        sc.dense_loop = c.dense;
        if (sc.network.is_instant()) {
          sc.validation = RunConfig::Validation::kStrict;
        } else {
          // Under a tick budget the answer is legitimately stale; record
          // divergence instead of throwing (the counts stay deterministic
          // and are part of the fingerprint).
          sc.validation = RunConfig::Validation::kWeak;
          sc.throw_on_error = false;
        }
        return run_scenario(sc);
      });

  // Sparse and dense runs of the same configuration must be functionally
  // indistinguishable — same messages, same divergence pattern. Cases are
  // laid out sparse/dense adjacent; the loop therefore also pins the
  // broadcast-burst rows (where the bulk fan-out dominates) sparse≡dense.
  for (std::size_t i = 0; i + 1 < cases.size(); i += 2) {
    const RunResult& sparse = outcomes[i];
    const RunResult& dense = outcomes[i + 1];
    if (sparse.comm.total() != dense.comm.total() ||
        sparse.error_steps != dense.error_steps) {
      throw std::logic_error("e16: sparse/dense divergence at " +
                             cases[i].name);
    }
  }

  Table fingerprint({"case", "n", "k", "activity", "network", "workload",
                     "loop", "steps", "msgs_total", "msgs_per_step",
                     "error_steps"});
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const ScaleCase& c = cases[i];
    const RunResult& r = outcomes[i];
    fingerprint.add_row(
        {c.name, std::to_string(c.n), std::to_string(kK), fmt(c.activity, 2),
         c.network, c.burst ? "burst" : "drift", c.dense ? "dense" : "sparse",
         std::to_string(r.steps_executed), std::to_string(r.comm.total()),
         fmt(r.messages_per_step(), 3), std::to_string(r.error_steps)});
  }
  ctx.emit(fingerprint, "e16_scale");

  // Timing summary with the sparse-vs-dense speedup per configuration
  // (console + BENCH file; wall clock is machine-dependent, not diffed).
  // Steady-state rate: initialization (the one-time full selection over
  // all n nodes) is identical for both loops and would otherwise swamp
  // the per-step comparison at small step counts.
  Table timing({"config", "sparse steps/s", "dense steps/s", "speedup"});
  for (std::size_t i = 0; i + 1 < cases.size(); i += 2) {
    const double sps_sparse = outcomes[i].steady_steps_per_second();
    const double sps_dense = outcomes[i + 1].steady_steps_per_second();
    timing.add_row({cases[i].name.substr(0, cases[i].name.rfind('_')),
                    fmt(sps_sparse, 0), fmt(sps_dense, 0),
                    sps_dense > 0.0 ? fmt(sps_sparse / sps_dense, 2) : "-"});
  }
  ctx.out() << "\n";
  timing.print(ctx.out());

  std::vector<BenchRow> rows;
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const ScaleCase& c = cases[i];
    const RunResult& r = outcomes[i];
    const double sps = r.steady_steps_per_second();
    rows.emplace_back()
        .text("name", c.name)
        .count("n", c.n)
        .count("k", kK)
        .real("activity", c.activity, 2)
        .text("network", c.network)
        .text("workload", c.burst ? "burst" : "drift")
        .text("loop", c.dense ? "dense" : "sparse")
        .real("wall_seconds", r.wall_seconds, 6)
        .real("init_seconds", r.init_seconds, 6)
        .real("steps_per_sec", sps, 1)
        .real("ns_per_step", sps > 0.0 ? 1e9 / sps : 0.0, 1)
        .count("messages_total", r.comm.total())
        .count("error_steps", r.error_steps);
  }
  emit_bench_file(ctx, "e16", "scale", steps, rows);
}

}  // namespace
}  // namespace topkmon::bench
