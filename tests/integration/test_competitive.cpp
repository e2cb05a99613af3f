// Competitive behaviour: Algorithm 1's message count relative to the
// offline optimum and to the baselines must follow the paper's shape —
// cheap where OPT is cheap (similar streams), and never catastrophically
// worse than per-round recomputation on adversarial inputs.
#include <gtest/gtest.h>

#include "core/offline_opt.hpp"
#include "core/runner.hpp"
#include "exp/scenario.hpp"
#include "streams/factory.hpp"

namespace topkmon {
namespace {

RunResult run_with_trace(const std::string& monitor, const StreamSpec& spec,
                         std::size_t n, std::size_t k, std::size_t steps,
                         std::uint64_t seed) {
  exp::Scenario sc;
  sc.monitor = monitor;
  sc.stream = spec;
  sc.n = n;
  sc.k = k;
  sc.steps = steps;
  sc.seed = seed;
  sc.record_trace = true;
  return exp::run_scenario(sc);
}

TEST(Competitive, FiltersBeatNaiveOnSlowWalks) {
  StreamSpec spec;
  spec.family = StreamFamily::kRandomWalk;
  spec.walk.max_step = 5;  // slow drift: filters should stay quiet
  const auto rf = run_with_trace("topk_filter", spec, 16, 3, 1'000, 7);
  const auto rn = run_with_trace("naive", spec, 16, 3, 1'000, 7);
  EXPECT_TRUE(rf.correct);
  EXPECT_TRUE(rn.correct);
  EXPECT_LT(rf.comm.total() * 10, rn.comm.total())
      << "filters should be >10x cheaper than naive on slow walks";
}

TEST(Competitive, FiltersBeatRecomputeOnSlowWalks) {
  StreamSpec spec;
  spec.family = StreamFamily::kRandomWalk;
  spec.walk.max_step = 5;
  const auto rf = run_with_trace("topk_filter", spec, 16, 3, 1'000, 9);
  const auto rr = run_with_trace("recompute", spec, 16, 3, 1'000, 9);
  EXPECT_LT(rf.comm.total() * 5, rr.comm.total());
}

TEST(Competitive, RatioAgainstOptIsModestOnWalks) {
  StreamSpec spec;
  spec.family = StreamFamily::kRandomWalk;
  spec.walk.max_step = 2'000;
  const auto r = run_with_trace("topk_filter", spec, 16, 3, 2'000, 11);
  ASSERT_TRUE(r.trace.has_value());
  const auto opt = compute_offline_opt(*r.trace, 3);
  ASSERT_GT(opt.updates(), 0u) << "the workload should force OPT updates";
  const double ratio = competitive_ratio(r, 3);
  // Theorem 4.4 bound: O((log Δ + k) log n). Here log Δ ~ 17 (Δ scaled by
  // n=16), k = 3, log n = 4 -> bound scale ~ 80; require the empirical
  // ratio to stay within a small multiple of that scale.
  EXPECT_LT(ratio, 400.0);
  EXPECT_GE(ratio, 1.0);
}

TEST(Competitive, OptNeverExceedsAlgorithmUpdates) {
  // Structural sanity: the offline optimum's epochs can't exceed the
  // number of steps, and the online algorithm's resets can't beat OPT
  // (each reset implies a genuine infeasibility OPT also pays for...
  // weaker: resets >= opt updates is NOT guaranteed per-instance, but
  // resets + midpoint updates >= opt updates is, since each OPT update
  // marks an infeasible extension point the online algorithm must react
  // to with at least one handler call).
  StreamSpec spec;
  spec.family = StreamFamily::kRandomWalk;
  spec.walk.max_step = 5'000;
  const auto r = run_with_trace("topk_filter", spec, 12, 2, 1'000, 13);
  const auto opt = compute_offline_opt(*r.trace, 2);
  EXPECT_LE(opt.updates(),
            r.monitor.filter_resets + r.monitor.midpoint_updates);
}

TEST(Competitive, RecomputeNearOptimalOnRotatingMax) {
  // §2.1: on worst-case inputs (maximum position changes every round) the
  // classical recompute algorithm is near-optimal; Algorithm 1 may pay its
  // overhead but OPT itself needs an update almost every step.
  StreamSpec spec;
  spec.family = StreamFamily::kRotatingMax;
  const auto rf = run_with_trace("topk_filter", spec, 8, 1, 300, 15);
  const auto opt = compute_offline_opt(*rf.trace, 1);
  EXPECT_GT(opt.updates(), 250u);  // OPT pays nearly every step
  const auto rr = run_with_trace("recompute", spec, 8, 1, 300, 15);
  // Both algorithms are busy; neither should be more than ~20x the other.
  const double f = static_cast<double>(rf.comm.total());
  const double c = static_cast<double>(rr.comm.total());
  EXPECT_LT(f / c, 20.0);
  EXPECT_LT(c / f, 20.0);
}

TEST(Competitive, DeltaGrowthIncreasesMessages) {
  // Larger Δ (bigger step spans) forces more halving rounds: messages per
  // OPT update should grow with log Δ (E4 quantifies; here monotonicity
  // over a 64x span change with matched OPT activity).
  auto run_ratio = [](Value step, std::uint64_t seed) {
    StreamSpec spec;
    spec.family = StreamFamily::kRandomWalk;
    spec.walk.max_step = step;
    spec.walk.hi = 100'000'000;
      const auto r = run_with_trace("topk_filter", spec, 8, 2, 1'500, seed);
    return competitive_ratio(r, 2);
  };
  double small = 0;
  double large = 0;
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    small += run_ratio(1'000, seed);
    large += run_ratio(64'000, seed);
  }
  EXPECT_LT(small, large * 1.2)
      << "ratio should not shrink when Delta grows 64x";
}

}  // namespace
}  // namespace topkmon
