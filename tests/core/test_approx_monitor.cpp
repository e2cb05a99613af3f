// Tests for the ε-approximate monitor: ε-validity at every step, message
// savings vs the exact monitor, and the ε = 0 degeneration.
#include <gtest/gtest.h>

#include "core/filter_roles.hpp"
#include "core/ground_truth.hpp"
#include "role_drive.hpp"

namespace topkmon {
namespace {

using testing::Deployed;
using testing::run_spec;

std::string approx(Value eps) { return "approx?eps=" + std::to_string(eps); }

TEST(ApproxMonitor, RejectsBadParams) {
  FilterCoordinator::Options o;
  o.approx = true;
  EXPECT_THROW(FilterCoordinator(0, o), std::invalid_argument);
  o.epsilon = -1;
  EXPECT_THROW(FilterCoordinator(2, o), std::invalid_argument);
}

TEST(ApproxMonitor, EpsValidityHelpers) {
  const std::vector<Value> values{100, 95, 90};
  // {1} is not exact top-1 but is 5-valid and 10-valid.
  EXPECT_FALSE(is_valid_topk_eps(values, std::vector<NodeId>{1}, 0));
  EXPECT_TRUE(is_valid_topk_eps(values, std::vector<NodeId>{1}, 5));
  EXPECT_TRUE(is_valid_topk_eps(values, std::vector<NodeId>{1}, 10));
  EXPECT_EQ(topk_regret(values, std::vector<NodeId>{1}), 5);
  EXPECT_EQ(topk_regret(values, std::vector<NodeId>{0}), 0);
  EXPECT_EQ(topk_regret(values, std::vector<NodeId>{2}), 10);
  EXPECT_EQ(topk_regret(values, std::vector<NodeId>{7}), kPlusInf);
}

TEST(ApproxMonitor, ZeroEpsilonIsExactEveryStep) {
  // Default epsilon = 0; strict validation.
  const auto r = run_spec("approx", testing::walk(3'000), 10, 3, 600, 5);
  EXPECT_TRUE(r.correct);
}

class ApproxEpsSweep : public ::testing::TestWithParam<Value> {};

TEST_P(ApproxEpsSweep, AlwaysEpsValid) {
  const Value eps = GetParam();
  StreamSpec spec;
  spec.family = StreamFamily::kRandomWalk;
  spec.walk.max_step = 3'000;
  spec.enforce_distinct = false;  // keep raw value scale == eps scale
  auto streams = make_stream_set(spec, 10, 11);
  std::vector<Value> values(10);
  const auto observe = [&] {
    for (NodeId i = 0; i < 10; ++i) values[i] = streams.advance(i);
  };
  observe();
  Deployed m(approx(eps), 3, 11, values);
  Value worst_regret = 0;
  for (TimeStep t = 1; t <= 800; ++t) {
    observe();
    m.step(values, t);
    ASSERT_TRUE(is_valid_topk_eps(m.cluster(), m.topk(), eps))
        << "eps=" << eps << " t=" << t;
    worst_regret = std::max(worst_regret, topk_regret(values, m.topk()));
  }
  EXPECT_LE(worst_regret, eps);
}

INSTANTIATE_TEST_SUITE_P(Eps, ApproxEpsSweep,
                         ::testing::Values<Value>(0, 1, 7, 100, 5'000,
                                                  100'000));

TEST(ApproxMonitor, LargerEpsilonSendsFewerMessages) {
  auto run_with_eps = [](Value eps) {
    StreamSpec spec;
    spec.family = StreamFamily::kRandomWalk;
    spec.walk.max_step = 2'000;
    spec.walk.lo = 0;
    spec.walk.hi = 60'000;  // confined: nodes interact constantly
    spec.enforce_distinct = false;
    // eps-validity is checked above.
    return run_spec(approx(eps), spec, 16, 4, 1'000, 13,
                    RunConfig::Validation::kOff)
        .comm.total();
  };
  const auto exact = run_with_eps(0);
  const auto loose = run_with_eps(50'000);
  EXPECT_LT(loose, exact / 2);
}

TEST(ApproxMonitor, HugeEpsilonNearSilent) {
  StreamSpec spec;
  spec.family = StreamFamily::kRandomWalk;
  spec.walk.max_step = 500;
  spec.walk.lo = 0;
  spec.walk.hi = 10'000;
  spec.enforce_distinct = false;
  // eps wider than the whole value range.
  const auto r = run_spec(approx(1'000'000), spec, 8, 2, 500, 17,
                          RunConfig::Validation::kOff);
  // Only initialization traffic; filters can never be violated.
  EXPECT_EQ(r.monitor.violation_steps, 0u);
}

TEST(ApproxMonitor, DegenerateKEqualsN) {
  Deployed m(approx(10), 3, 1, {0, 0, 0});
  EXPECT_EQ(m.messages(), 0u);
  EXPECT_EQ(m.topk(), (std::vector<NodeId>{0, 1, 2}));
}

TEST(ApproxMonitor, OddEpsilonNoLivelock) {
  // With odd eps the boundary re-centering must still terminate (the
  // 2*floor(eps/2) slack rule); drive a node to sit exactly at T+ and
  // check violations do not repeat forever on a static configuration.
  constexpr Value kEps = 7;
  Deployed m(approx(kEps), 1, 3, {1'001, 0});
  // Drop node 0 just below the widened filter once.
  const std::vector<Value> low{
      m.coordinator<FilterCoordinator>().boundary() - kEps / 2 - 1, 0};
  m.step(low, 1);
  const auto msgs_after_first = m.messages();
  // Static values afterwards: no further messages may flow.
  for (TimeStep t = 2; t <= 10; ++t) m.step(low, t);
  EXPECT_EQ(m.messages(), msgs_after_first);
}

}  // namespace
}  // namespace topkmon
