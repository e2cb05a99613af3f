// Edge-case battery shared across all monitoring algorithms: tiny systems,
// extreme magnitudes, frozen streams, step discontinuities, negative
// values, and n = 1 degeneracies.
#include <gtest/gtest.h>

#include <limits>
#include <memory>

#include "core/ground_truth.hpp"
#include "core/multik_roles.hpp"
#include "role_drive.hpp"
#include "streams/trace.hpp"

namespace topkmon {
namespace {

using testing::Deployed;
using testing::run_streams;

RunConfig cfg_of(std::size_t n, std::size_t k, std::size_t steps,
                 std::uint64_t seed) {
  RunConfig cfg;
  cfg.n = n;
  cfg.k = k;
  cfg.steps = steps;
  cfg.seed = seed;
  return cfg;
}

const std::string kAllMonitors[] = {"topk_filter", "naive",   "recompute",
                              "dominance",   "slack",   "ordered",
                              "approx"};

class AllMonitors : public ::testing::TestWithParam<std::string> {};

TEST_P(AllMonitors, SingleNodeSystem) {
  StreamSpec spec;
  spec.family = StreamFamily::kRandomWalk;
  auto streams = make_stream_set(spec, 1, 3);
  std::vector<NodeId> answer;
  const auto r =
      run_streams(GetParam(), streams, cfg_of(1, 1, 50, 3), true, &answer);
  EXPECT_TRUE(r.correct);
  EXPECT_EQ(answer, (std::vector<NodeId>{0}));
}

TEST_P(AllMonitors, TwoNodesRepeatedSwaps) {
  TraceMatrix trace(2, 40);
  for (std::size_t t = 0; t < 40; ++t) {
    trace.at(t, 0) = (t % 2 == 0) ? 100 : 10;
    trace.at(t, 1) = (t % 2 == 0) ? 10 : 100;
  }
  auto streams = trace.to_stream_set();
  const auto r = run_streams(GetParam(), streams, cfg_of(2, 1, 39, 5));
  EXPECT_TRUE(r.correct);
}

TEST_P(AllMonitors, FrozenStreamsGoQuietAfterInit) {
  const std::vector<Value> frozen{100, 200, 300, 400, 500, 600};
  Deployed m(GetParam(), 2, 7, frozen);
  const auto after_init = m.messages();
  for (TimeStep t = 1; t < 30; ++t) m.step(frozen, t);
  if (GetParam() == "naive" || GetParam() == "recompute") {
    EXPECT_GT(m.messages(), after_init);  // these always pay
  } else {
    EXPECT_EQ(m.messages(), after_init)
        << GetParam() << " must be silent on frozen values";
  }
}

TEST_P(AllMonitors, NegativeValueRegime) {
  StreamSpec spec;
  spec.family = StreamFamily::kRandomWalk;
  spec.walk.lo = -2'000'000;
  spec.walk.hi = -1'000'000;
  spec.walk.max_step = 3'000;
  const auto r = testing::run_spec(GetParam(), spec, 8, 2, 300, 9);
  EXPECT_TRUE(r.correct);
}

TEST_P(AllMonitors, HugeMagnitudeJumps) {
  // Alternating extreme magnitudes (quarter of the int64 range so the
  // distinctness transform and midpoints stay exact).
  const Value big = std::numeric_limits<Value>::max() / 8;
  TraceMatrix trace(4, 20);
  for (std::size_t t = 0; t < 20; ++t) {
    trace.at(t, 0) = (t % 3 == 0) ? big : -big;
    trace.at(t, 1) = big / 2;
    trace.at(t, 2) = -big / 2;
    trace.at(t, 3) = static_cast<Value>(t);
  }
  auto streams = trace.to_stream_set();
  const auto r = run_streams(GetParam(), streams, cfg_of(4, 1, 19, 11));
  EXPECT_TRUE(r.correct);
}

TEST_P(AllMonitors, KJustBelowN) {
  const auto r =
      testing::run_spec(GetParam(), testing::walk(5'000), 8, 7, 300, 13);
  EXPECT_TRUE(r.correct);
}

INSTANTIATE_TEST_SUITE_P(Battery, AllMonitors,
                         ::testing::ValuesIn(kAllMonitors),
                         [](const ::testing::TestParamInfo<std::string>& p) {
                           return p.param;
                         });

// ---------------------------------------------------------------------------
// Cross-monitor sanity on one shared trace: every algorithm answers the
// same (correct) sets at every step of a churny hand-made trace.
// ---------------------------------------------------------------------------

TEST(MonitorAgreement, AllAlgorithmsAgreeOnChurnyTrace) {
  TraceMatrix trace(5, 60);
  Rng rng(17);
  for (std::size_t t = 0; t < 60; ++t) {
    for (NodeId i = 0; i < 5; ++i) {
      trace.at(t, i) = rng.uniform_int(0, 50) * 5 + i;  // distinct, churny
    }
  }
  std::vector<std::vector<NodeId>> answers;
  for (const auto& name : kAllMonitors) {
    auto streams = trace.to_stream_set();
    std::vector<NodeId> answer;
    const auto r =
        run_streams(name, streams, cfg_of(5, 2, 59, 21), true, &answer);
    EXPECT_TRUE(r.correct) << name;
    answers.push_back(answer);
  }
  for (std::size_t i = 1; i < answers.size(); ++i) {
    EXPECT_EQ(answers[i], answers[0]);
  }
}

// ---------------------------------------------------------------------------
// MultiK-specific edges not covered by its main test file.
// ---------------------------------------------------------------------------

TEST(MultiKEdges, SingleNodeSingleK) {
  Deployed m("multi_k?ks=1", 1, 1, {5});  // k == n: degenerate
  EXPECT_EQ(m.coordinator<MultiKCoordinator>().topk_for(1),
            (std::vector<NodeId>{0}));
  EXPECT_EQ(m.messages(), 0u);
}

TEST(MultiKEdges, DenseBoundaries) {
  // Every rank is a boundary: equivalent to full-order tracking.
  StreamSpec spec;
  spec.family = StreamFamily::kRandomWalk;
  spec.walk.max_step = 4'000;
  auto streams = make_stream_set(spec, 6, 23);
  std::vector<Value> values(6);
  const auto observe = [&] {
    for (NodeId i = 0; i < 6; ++i) values[i] = streams.advance(i);
  };
  observe();
  Deployed m("multi_k?ks=1+2+3+4+5", 1, 23, values);
  const auto& coord = m.coordinator<MultiKCoordinator>();
  for (TimeStep t = 1; t <= 300; ++t) {
    observe();
    m.step(values, t);
    for (std::size_t k = 1; k <= 5; ++k) {
      ASSERT_EQ(coord.topk_for(k), true_topk_set(m.cluster(), k))
          << "k=" << k << " t=" << t;
    }
  }
}

}  // namespace
}  // namespace topkmon
