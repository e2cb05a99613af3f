// E15 — beyond the paper's reliable-channel model: independent per-link
// message loss. Every cell replays the same streams and protocol coins
// (the network axis does not enter the trial seed); only the
// deterministic per-(message, link) drop hash changes between columns.
//
// Loss hits the two algorithms asymmetrically. The naive baseline
// degrades linearly and recovers every step (the next report overwrites
// the stale value). Algorithm 1 is *stateful*: a lost filter-update or
// winner announcement desynchronizes a node's filter until some later
// violation repairs it, and a lost report can abort a whole
// violation-resolution cycle — so error steps grow faster than the raw
// drop rate, the price of the filter machinery's statefulness.
#include <string>
#include <vector>

#include "bench_common.hpp"

namespace topkmon::bench {
namespace {

TOPKMON_SUITE(e15, "message-loss sweep: robustness of filters (extension)") {
  const auto& args = ctx.opts();
  const std::uint64_t steps = args.steps_or(1'200);
  const std::uint64_t trials = args.trials_or(3);
  constexpr std::size_t kN = 32;
  constexpr std::size_t kK = 4;

  ctx.out() << "E15: per-link message loss vs robustness (extension)\n"
            << "n = " << kN << ", k = " << kK << ", steps = " << steps
            << ", trials = " << trials << ", random walk\n\n";

  const std::vector<std::string> network_specs{
      "instant", "drop=0.002", "drop=0.01", "drop=0.05", "drop=0.2"};

  SweepGrid grid;
  grid.ns = {kN};
  grid.ks = {kK};
  // The whole zoo (native role ports): loss now stresses each variant's
  // own statefulness — slack's wide boundaries shrug off lost updates
  // longer, ordered's rank slots desynchronize fastest. Same parameter
  // conventions as e14 (ks anchored at the grid k; ε two walk steps).
  grid.monitors = {"topk_filter",       "naive",   "slack",
                   "dominance",         "ordered", "approx?eps=40000",
                   "multi_k?ks=4+8"};
  grid.families = {StreamFamily::kRandomWalk};
  grid.networks.clear();
  for (const auto& s : network_specs) {
    grid.networks.push_back(parse_network_spec(s));
  }
  grid.trials = trials;
  grid.steps = steps;
  grid.base_seed = args.seed;
  grid.stream_template.walk.max_step = 20'000;
  grid.throw_on_error = false;  // divergence is the measurement here

  const auto specs = grid.expand();
  const auto results = ctx.runner().run(specs);

  exp::ResultSink sink({"monitor", "network"},
                       {"msgs_per_step", "error_pct", "resets"});
  for (std::size_t i = 0; i < specs.size(); ++i) {
    sink.add({specs[i].monitor, specs[i].network.name()}, specs[i].ordinal,
             {results[i].messages_per_step(), 100.0 * results[i].error_rate(),
              static_cast<double>(results[i].monitor.filter_resets)});
  }

  ctx.emit(sink.to_table(2), "e15_loss");
  ctx.out() << "\nshape check: naive error% tracks the drop rate roughly "
               "linearly and self-heals every step; topk_filter stays "
               "near-exact "
               "at small drop rates (violations trigger repair) but its "
               "error% rises super-linearly once lost state updates pile "
               "up — robustness is the cost of statefulness.\n";
}

}  // namespace
}  // namespace topkmon::bench
