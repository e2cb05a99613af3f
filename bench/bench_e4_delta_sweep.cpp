// E4 — Theorem 3.3 / 4.4: the competitive ratio of Algorithm 1 carries a
// log Δ factor, Δ = max_t (v_k - v_{k+1}).
//
// Two workloads:
//  (a) adversarial "sawtooth approach": the top node repeatedly descends
//      geometrically onto the runner-up before swapping, forcing the full
//      log Δ chain of midpoint halvings between OPT updates — the input
//      family on which the analysis is tight; the measured ratio should
//      grow ~linearly in log Δ.
//  (b) natural random walks confined to a band scaling with Δ: typical
//      inputs sit far below the worst case (ratio roughly flat), showing
//      the bound is a worst-case guarantee, not the common cost.
#include <cmath>
#include <vector>

#include "bench_common.hpp"

namespace topkmon::bench {
namespace {

/// Replays `trace` through run_scenario's step loop (topk_filter, k = 1,
/// strict validation every step) and returns the run's messages and
/// trace.
RunResult replay_filter(const TraceMatrix& trace, std::uint64_t seed) {
  exp::Scenario sc;
  sc.monitor = "topk_filter";
  sc.n = trace.nodes();
  sc.k = 1;
  sc.steps = trace.steps() - 1;
  sc.seed = seed;
  sc.record_trace = true;
  return exp::run_scenario(sc, trace.to_stream_set());
}

/// Builds the sawtooth-approach trace: node 1 sits at `center`; node 0
/// descends from center+delta geometrically (gap /= 4 per step), dips one
/// unit below node 1 (swap: OPT must update), then jumps back up (swap
/// back: OPT update again). Nodes 2.. are quiet background fillers.
TraceMatrix sawtooth_trace(std::size_t n, std::size_t steps, Value delta) {
  constexpr Value kCenter = 1'000'000;
  TraceMatrix trace(n, steps);
  Value gap = delta;
  bool below = false;
  for (std::size_t t = 0; t < steps; ++t) {
    trace.at(t, 1) = kCenter;
    for (NodeId i = 2; i < n; ++i) {
      trace.at(t, i) = static_cast<Value>(1'000 - i);  // far below, static
    }
    if (below) {
      // One step below the runner-up, then restart the descent.
      trace.at(t, 0) = kCenter - 1;
      below = false;
      gap = delta;
    } else {
      trace.at(t, 0) = kCenter + gap;
      gap /= 4;
      if (gap == 0) below = true;
    }
  }
  return trace;
}

TOPKMON_SUITE(e4, "competitive ratio vs log Delta (Theorems 3.3/4.4)") {
  const auto& args = ctx.opts();
  const std::uint64_t steps = args.steps_or(4'000);
  const std::uint64_t trials = args.trials_or(5);
  constexpr std::size_t kN = 16;

  ctx.out() << "E4: competitive ratio vs Delta (Theorems 3.3/4.4)\n"
            << "n = " << kN << ", steps = " << steps << "\n\n";

  // ---- (a) adversarial sawtooth, k = 1 ------------------------------------
  {
    ctx.out() << "(a) adversarial sawtooth approach (analysis-tight family, "
                 "k = 1)\n";
    std::vector<Value> deltas;
    for (Value delta = 1 << 6; delta <= 1 << 26; delta <<= 4) {
      deltas.push_back(delta);
    }
    struct SawtoothRow {
      std::uint64_t msgs = 0, opt_updates = 0;
      double ratio = 0;
    };
    const auto rows = ctx.runner().map<SawtoothRow>(
        deltas.size(), [&](std::size_t di) {
          const auto r =
              replay_filter(sawtooth_trace(kN, steps, deltas[di]), args.seed);
          const auto opt = compute_offline_opt(*r.trace, 1);
          return SawtoothRow{r.comm.total(), opt.updates(),
                             competitive_ratio(r, 1)};
        });

    Table t({"Delta", "log2 Delta", "msgs", "OPT updates", "ratio",
             "ratio/logDelta"});
    for (std::size_t di = 0; di < deltas.size(); ++di) {
      const double ld = std::log2(static_cast<double>(deltas[di]));
      t.add_row({std::to_string(deltas[di]), fmt(ld, 0),
                 fmt_count(rows[di].msgs), fmt_count(rows[di].opt_updates),
                 fmt(rows[di].ratio, 1), fmt(rows[di].ratio / ld, 2)});
    }
    ctx.emit(t, "e4a_sawtooth");
    ctx.out() << "shape: ratio grows ~linearly in log Delta (normalized "
                 "column ~constant) — the bound's log Delta term is real.\n\n";
  }

  // ---- (b) natural random walks -------------------------------------------
  {
    ctx.out() << "(b) random walks confined to a Delta-scaled band (typical "
                 "inputs, k = 4)\n";
    constexpr std::size_t kK = 4;
    std::vector<Value> spans;
    for (Value span = 4; span <= 65'536; span *= 8) spans.push_back(span);

    // Flat (span × trial) job list; folded per span in trial order below.
    struct WalkTrial {
      double msgs = 0, opt_updates = 0, ratio = 0, log_delta = 0;
    };
    const std::size_t jobs = spans.size() * trials;
    const auto walk_trials = ctx.runner().map<WalkTrial>(
        jobs, [&](std::size_t j) {
          const Value span = spans[j / trials];
          const std::uint64_t t2 = j % trials;
          StreamSpec spec;
          spec.family = StreamFamily::kRandomWalk;
          spec.walk.max_step = span;
          spec.walk.lo = 0;
          spec.walk.hi = span * 64;
          const std::uint64_t seed =
              args.seed * 1000 + static_cast<std::uint64_t>(span) + t2;
          Scenario sc = scenario("topk_filter", spec, kN, kK, steps, seed);
          sc.record_trace = true;
          const auto r = run_scenario(sc);
          const auto opt = compute_offline_opt(*r.trace, kK);
          const auto delta = trace_delta(*r.trace, kK);
          return WalkTrial{
              static_cast<double>(r.comm.total()),
              static_cast<double>(opt.updates()), competitive_ratio(r, kK),
              std::log2(static_cast<double>(std::max<Value>(2, delta)))};
        });

    Table t({"walk span", "measured logDelta", "E[msgs]", "E[OPT updates]",
             "ratio", "ratio/(logD+k)logn"});
    for (std::size_t si = 0; si < spans.size(); ++si) {
      OnlineStats msgs, opt_updates, ratios, log_delta;
      for (std::uint64_t t2 = 0; t2 < trials; ++t2) {
        const auto& w = walk_trials[si * trials + t2];
        msgs.add(w.msgs);
        opt_updates.add(w.opt_updates);
        ratios.add(w.ratio);
        log_delta.add(w.log_delta);
      }
      const double bound_scale =
          (log_delta.mean() + kK) * std::log2(static_cast<double>(kN));
      t.add_row({std::to_string(spans[si]), fmt(log_delta.mean()),
                 fmt(msgs.mean(), 0), fmt(opt_updates.mean(), 1),
                 fmt(ratios.mean(), 1), fmt(ratios.mean() / bound_scale, 3)});
    }
    ctx.emit(t, "e4b_walks");
    ctx.out() << "shape: typical-case ratio is roughly flat and sits well "
                 "inside the worst-case (log Delta + k) log n budget.\n";
  }
}

}  // namespace
}  // namespace topkmon::bench
