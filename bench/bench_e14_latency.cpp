// E14 — beyond the paper's instant-delivery model: what does message
// *latency* do to filter-based monitoring? The scenario engine fixes the
// observation cadence (64 delivery ticks between observations — wide
// enough for a full zero-delay violation cycle) and sweeps the per-link
// delay, replaying the *same* streams and protocol coins in every cell
// (the network axis does not enter the trial seed — paired comparison).
//
// Expected shape: the naive baseline's cost is delay-invariant (one
// report per node per step, no feedback loop) but its answer goes stale
// as soon as reports miss the step budget (delay > cadence). Algorithm 1
// feels latency earlier and differently: round beacons arrive late, so
// node pruning weakens (more reports per protocol run), sessions stretch
// across observation steps, and boundary updates lag the data — message
// cost AND error steps climb with delay, while at zero/low delay it keeps
// its huge message advantage.
#include <string>
#include <vector>

#include "bench_common.hpp"

namespace topkmon::bench {
namespace {

TOPKMON_SUITE(e14, "message-delay sweep: staleness vs cost (extension)") {
  const auto& args = ctx.opts();
  const std::uint64_t steps = args.steps_or(1'200);
  const std::uint64_t trials = args.trials_or(3);
  constexpr std::size_t kN = 32;
  constexpr std::size_t kK = 4;

  ctx.out() << "E14: message delay vs staleness and cost (extension)\n"
            << "n = " << kN << ", k = " << kK << ", steps = " << steps
            << ", trials = " << trials
            << ", cadence = 64 ticks/observation, random walk\n\n";

  // The 64-tick cadence fits a full zero-delay violation cycle (a handful
  // of O(log n)-round sessions), so the leftmost column is the clean
  // anchor; the delay sweep then shows who buckles first.
  const std::vector<std::string> network_specs{
      "ticks=64",          "delay=8,ticks=64",  "delay=16,ticks=64",
      "delay=32,ticks=64", "delay=64,ticks=64", "delay=128,ticks=64"};

  SweepGrid grid;
  grid.ns = {kN};
  grid.ks = {kK};
  // The whole zoo, now that every monitor has a native role port: the
  // delay axis finally applies to the slack/dominance/approx/multi-k/
  // ordered variants, not just Algorithm 1 and the naive baseline.
  // multi_k monitors ks = {4, 8} so its answer row validates against the
  // grid's k = 4 ground truth; approx gets an ε two walk steps wide.
  grid.monitors = {"topk_filter",       "naive",   "slack",
                   "dominance",         "ordered", "approx?eps=40000",
                   "multi_k?ks=4+8"};
  grid.families = {StreamFamily::kRandomWalk};
  grid.networks.clear();
  for (const auto& s : network_specs) {
    grid.networks.push_back(parse_network_spec(s));
  }
  grid.trials = trials;
  grid.base.steps = steps;
  grid.base.seed = args.seed;
  // Fast walk: the top-k boundary churns visibly, so a stale answer is
  // actually wrong (a frozen workload would mask any delay).
  grid.base.stream.walk.max_step = 20'000;
  grid.base.throw_on_error = false;  // staleness is the measurement, not a bug

  const auto specs = grid.expand();
  const auto results = ctx.runner().run(specs);

  exp::ResultSink sink({"monitor", "network"},
                       {"msgs_per_step", "error_pct", "resets"});
  for (std::size_t i = 0; i < specs.size(); ++i) {
    sink.add({specs[i].monitor, specs[i].network.name()}, i,
             {results[i].messages_per_step(), 100.0 * results[i].error_rate(),
              static_cast<double>(results[i].monitor.filter_resets)});
  }

  ctx.emit(sink.to_table(2), "e14_latency");
  ctx.out()
      << "\nshape check: naive msgs/step is flat in delay and its error% "
         "stays zero until the delay exceeds the 64-tick cadence; "
         "topk_filter degrades earlier — delay compounds across protocol "
         "rounds, so once (rounds x delay) outgrows the cadence its "
         "sessions straddle observations and error% climbs — yet its "
         "message volume stays several times below naive throughout.\n";
}

}  // namespace
}  // namespace topkmon::bench
