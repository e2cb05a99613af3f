// Differential fuzzing: random trace matrices (including ties, negatives
// and discontinuities) drive every monitor; answers are checked against
// the omniscient ground truth with the appropriate validity notion.
// Also cross-validates the offline optimum's feasibility invariants on
// the same fuzzed traces.
#include <gtest/gtest.h>

#include <memory>
#include <utility>

#include "../core/role_drive.hpp"
#include "core/ground_truth.hpp"
#include "core/multik_roles.hpp"
#include "core/offline_opt.hpp"
#include "core/runner.hpp"
#include "streams/trace.hpp"

namespace topkmon {
namespace {

/// Random trace with occasional big jumps and deliberate tie pressure
/// (values snapped to a coarse grid with probability 1/2).
TraceMatrix fuzz_trace(std::size_t n, std::size_t steps, Rng& rng,
                       bool force_distinct) {
  TraceMatrix trace(n, steps);
  std::vector<Value> current(n);
  for (auto& v : current) v = rng.uniform_int(-1'000, 1'000);
  for (std::size_t t = 0; t < steps; ++t) {
    for (NodeId i = 0; i < n; ++i) {
      const double roll = rng.next_double();
      if (roll < 0.05) {
        current[i] = rng.uniform_int(-100'000, 100'000);  // discontinuity
      } else if (roll < 0.75) {
        current[i] += rng.uniform_int(-20, 20);  // drift
      }  // else: hold
      Value v = current[i];
      if (!force_distinct && rng.bernoulli(0.5)) {
        v = (v / 50) * 50;  // snap to grid: creates ties
      }
      if (force_distinct) {
        v = v * static_cast<Value>(n) + static_cast<Value>(n - 1 - i);
      }
      trace.at(t, i) = v;
    }
  }
  return trace;
}

class FuzzSeeds : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FuzzSeeds, AllMonitorsStrictOnDistinctTraces) {
  Rng rng(GetParam() * 7919 + 1);
  const std::size_t n = 4 + rng.uniform_below(8);
  const std::size_t k = 1 + rng.uniform_below(n);
  const auto trace = fuzz_trace(n, 120, rng, /*force_distinct=*/true);

  for (const char* monitor : {"topk_filter", "naive", "recompute",
                              "dominance", "slack", "ordered", "approx"}) {
    auto streams = trace.to_stream_set();
    RunConfig cfg;
    cfg.n = n;
    cfg.k = k;
    cfg.steps = 119;
    cfg.seed = GetParam();
    cfg.validate_order = true;
    const auto r = testing::run_streams(monitor, std::move(streams), cfg);
    EXPECT_TRUE(r.correct) << monitor << " n=" << n << " k=" << k;
  }
}

TEST_P(FuzzSeeds, TieTolerantMonitorsWeakValidOnTiedTraces) {
  Rng rng(GetParam() * 104729 + 7);
  const std::size_t n = 4 + rng.uniform_below(8);
  const std::size_t k = 1 + rng.uniform_below(n);
  const auto trace = fuzz_trace(n, 120, rng, /*force_distinct=*/false);

  // Monitors that are specified to handle raw ties (full-information ones
  // plus the w-space ones).
  for (const char* monitor :
       {"naive", "recompute", "dominance", "topk_filter", "slack"}) {
    auto streams = trace.to_stream_set();
    RunConfig cfg;
    cfg.n = n;
    cfg.k = k;
    cfg.steps = 119;
    cfg.seed = GetParam();
    cfg.validation = RunConfig::Validation::kWeak;
    const auto r = testing::run_streams(monitor, std::move(streams), cfg);
    EXPECT_TRUE(r.correct) << monitor << " n=" << n << " k=" << k;
  }
}

TEST_P(FuzzSeeds, MultiKAllBoundariesOnDistinctTraces) {
  Rng rng(GetParam() * 31 + 3);
  const std::size_t n = 6 + rng.uniform_below(8);
  const auto trace = fuzz_trace(n, 100, rng, /*force_distinct=*/true);
  std::vector<std::size_t> ks{1, 1 + n / 3, 1 + (2 * n) / 3};
  ks.erase(std::unique(ks.begin(), ks.end()), ks.end());

  std::string spec = "multi_k?ks=";
  for (std::size_t i = 0; i < ks.size(); ++i) {
    if (i > 0) spec += '+';
    spec += std::to_string(ks[i]);
  }
  auto streams = trace.to_stream_set();
  std::vector<Value> values(n);
  streams.advance_all(values);
  testing::Deployed m(spec, ks.front(), GetParam(), values);
  const auto& coord = m.coordinator<MultiKCoordinator>();
  for (TimeStep t = 1; t < 100; ++t) {
    streams.advance_all(values);
    m.step(values, t);
    for (const auto k : ks) {
      ASSERT_EQ(coord.topk_for(k), true_topk_set(m.cluster(), k))
          << "k=" << k << " t=" << t << " n=" << n;
    }
  }
}

TEST_P(FuzzSeeds, OfflineOptInvariantsHold) {
  Rng rng(GetParam() * 613 + 11);
  const std::size_t n = 3 + rng.uniform_below(6);
  const std::size_t k = 1 + rng.uniform_below(n - 1);
  const auto trace = fuzz_trace(n, 150, rng, /*force_distinct=*/true);
  const auto opt = compute_offline_opt(trace, k);

  // Structural invariants.
  ASSERT_GE(opt.epochs, 1u);
  EXPECT_LE(opt.epochs, trace.steps());
  EXPECT_EQ(opt.update_times.size(), opt.updates());
  for (std::size_t i = 1; i < opt.update_times.size(); ++i) {
    EXPECT_LT(opt.update_times[i - 1], opt.update_times[i]);
  }

  // Independent feasibility re-check: within each epoch, the top-k set of
  // the epoch's first step must satisfy T+ >= T- over the whole epoch.
  std::vector<TimeStep> starts{0};
  starts.insert(starts.end(), opt.update_times.begin(), opt.update_times.end());
  starts.push_back(trace.steps());
  for (std::size_t e = 0; e + 1 < starts.size(); ++e) {
    const auto s = static_cast<std::size_t>(starts[e]);
    const auto end = static_cast<std::size_t>(starts[e + 1]);
    std::vector<Value> first(n);
    for (NodeId i = 0; i < n; ++i) first[i] = trace.at(s, i);
    const auto members = true_topk_set(first, k);
    std::vector<char> in_set(n, 0);
    for (const NodeId id : members) in_set[id] = 1;
    Value t_plus = kPlusInf;
    Value t_minus = kMinusInf;
    for (std::size_t t = s; t < end; ++t) {
      for (NodeId i = 0; i < n; ++i) {
        const Value v = trace.at(t, i);
        if (in_set[i]) t_plus = std::min(t_plus, v);
        else t_minus = std::max(t_minus, v);
      }
    }
    EXPECT_GE(t_plus, t_minus) << "epoch " << e << " infeasible";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzSeeds,
                         ::testing::Range<std::uint64_t>(1, 26));

}  // namespace
}  // namespace topkmon
