// E7 — the paper's central qualitative claim (§1, §2.1): filter-based
// monitoring sends few messages when consecutive inputs are "similar",
// while per-round recomputation pays Θ(k log n) every step regardless; on
// adversarial inputs (maximum position rotates every round) recomputation
// is near-optimal and filters cannot do better asymptotically.
//
// Regenerates the algorithms × workloads message matrix: mean (± stddev)
// messages per step for every monitor on every stream family. Runs the
// declarative SweepGrid end-to-end: grid expansion → parallel SweepRunner
// → order-deterministic ResultSink, so `--jobs 8` emits byte-identical
// rows to `--jobs 1`.
#include <map>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.hpp"

namespace topkmon::bench {
namespace {

TOPKMON_SUITE(e7, "algorithms × workloads message matrix (§1, §2.1)") {
  const auto& args = ctx.opts();
  const std::uint64_t steps = args.steps_or(1'500);
  const std::uint64_t trials = args.trials_or(3);
  constexpr std::size_t kN = 32;
  constexpr std::size_t kK = 4;

  ctx.out() << "E7: messages per step, algorithms x workloads\n"
            << "n = " << kN << ", k = " << kK << ", steps = " << steps
            << ", trials = " << trials
            << " (every cell validated against ground truth each step)\n\n";

  SweepGrid grid;
  grid.ns = {kN};
  grid.ks = {kK};
  grid.monitors = {"topk_filter", "ordered", "slack",  "dominance",
                   "recompute",   "naive",   "naive_chg"};
  grid.families = {StreamFamily::kRandomWalk, StreamFamily::kSensor,
                   StreamFamily::kSinusoidal, StreamFamily::kBursty,
                   StreamFamily::kIidUniform, StreamFamily::kCrossingPairs,
                   StreamFamily::kRotatingMax};
  grid.trials = trials;
  grid.base.steps = steps;
  grid.base.seed = args.seed;
  grid.base.stream.walk.max_step = 50;  // slow walk: "similar inputs"

  const auto specs = grid.expand();
  const auto results = ctx.runner().run(specs);

  exp::ResultSink sink({"monitor", "workload"}, {"msgs_per_step"});
  for (std::size_t i = 0; i < specs.size(); ++i) {
    sink.add({specs[i].monitor,
              std::string(family_name(specs[i].stream.family))},
             i, {results[i].messages_per_step()});
  }

  ctx.emit(sink.to_table(2), "e7_algorithms_table");

  // The paper's claim as a check: on the drifting workloads the filter
  // beats forwarding, which beats per-step recomputation. The sensor row
  // is printed, not checked: at the default sizes the filter pays more
  // than forwarding there.
  std::map<std::pair<std::string, StreamFamily>, OnlineStats> msgs;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    msgs[{specs[i].monitor, specs[i].stream.family}].add(
        results[i].messages_per_step());
  }
  const auto mean = [&](const char* monitor, StreamFamily family) {
    return msgs[{monitor, family}].mean();
  };
  const auto row = [&](StreamFamily family) {
    return fmt(mean("topk_filter", family), 2) + " / " +
           fmt(mean("naive", family), 2) + " / " +
           fmt(mean("recompute", family), 2);
  };
  for (const StreamFamily family :
       {StreamFamily::kRandomWalk, StreamFamily::kSinusoidal,
        StreamFamily::kBursty, StreamFamily::kCrossingPairs}) {
    if (!(mean("topk_filter", family) < mean("naive", family) &&
          mean("naive", family) < mean("recompute", family))) {
      throw std::logic_error(
          "e7: topk_filter < naive < recompute fails on " +
          std::string(family_name(family)) + " (msgs/step " + row(family) +
          ")");
    }
  }

  ctx.out()
      << "\nshape checks (paper's qualitative claims):\n"
      << " * checked: topk_filter < naive < recompute msgs/step on "
         "random_walk, sinusoidal, bursty and crossing_pairs (the suite "
         "fails otherwise);\n"
      << " * not checked: on sensor the order "
      << (mean("topk_filter", StreamFamily::kSensor) <
                  mean("naive", StreamFamily::kSensor) &&
              mean("naive", StreamFamily::kSensor) <
                  mean("recompute", StreamFamily::kSensor)
              ? "holds"
              : "does not hold")
      << " here — topk_filter / naive / recompute pay "
      << row(StreamFamily::kSensor) << " msgs/step;\n"
      << " * on rotating_max every algorithm pays ~every step; recompute is "
         "competitive there (classical analysis, §2.1);\n"
      << " * dominance (full-order tracking) pays for order churn everywhere "
         "(crossing_pairs) although the top-k set rarely changes (§3.1);\n"
      << " * ordered costs slightly more than topk_filter (extra in-top-k "
         "order maintenance, §5).\n";
}

}  // namespace
}  // namespace topkmon::bench
