// Tests for the run-level contract shared by every scenario: the step
// count, the per-step answer check (check_answer_step), trace and series
// recording, and the competitive-ratio helper.
#include "core/runner.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/driver.hpp"
#include "core/ground_truth_tracker.hpp"
#include "core/naive_roles.hpp"
#include "role_drive.hpp"

namespace topkmon {
namespace {

using testing::run_spec;

/// Checks the deliberately wrong answer {0, 1} against a fast walk over
/// `steps` steps (6 nodes, k = 2) and returns the outcome.
RunResult check_constant_answer(RunConfig::Validation validation,
                                std::size_t steps, bool throw_on_error) {
  auto streams = make_stream_set(testing::walk(50'000), 6, 3);
  RunConfig cfg;
  cfg.n = 6;
  cfg.k = 2;
  cfg.steps = steps;
  cfg.validation = validation;
  GroundTruthTracker truth(cfg.n, cfg.k);
  const std::vector<NodeId> wrong{0, 1};
  std::vector<Value> values(cfg.n);
  RunResult r;
  for (TimeStep t = 0; t <= steps; ++t) {
    streams.advance_all(values);
    for (NodeId id = 0; id < cfg.n; ++id) truth.set_value(id, values[id]);
    check_answer_step(truth, wrong, nullptr, cfg, "constant", "", t, &r,
                      throw_on_error);
  }
  return r;
}

TEST(Runner, RejectsMismatchedStreamCount) {
  // One node algorithm per cluster node: a deployment with fewer is
  // rejected before any callback.
  Cluster cluster(8, 1);
  NaiveCoordinator coord(2, false, false);
  std::vector<std::unique_ptr<NodeAlgo>> nodes;
  for (std::size_t i = 0; i < 4; ++i) {
    nodes.push_back(std::make_unique<NaiveNode>(false));
  }
  EXPECT_THROW(SimDriver(cluster, coord, nodes, true), std::invalid_argument);
}

TEST(Runner, RejectsBadK) {
  EXPECT_THROW(run_spec("topk_filter", StreamSpec{}, 4, 0, 10, 1),
               std::invalid_argument);
  EXPECT_THROW(run_spec("topk_filter", StreamSpec{}, 4, 5, 10, 1),
               std::invalid_argument);
}

TEST(Runner, ExecutesConfiguredSteps) {
  const auto r = run_spec("topk_filter", StreamSpec{}, 4, 2, 77, 2);
  EXPECT_EQ(r.steps_executed, 78u);  // init + 77 steps
  EXPECT_EQ(r.monitor_name, "topk_filter");
}

TEST(Runner, ThrowsOnDivergenceByDefault) {
  EXPECT_THROW(
      check_constant_answer(RunConfig::Validation::kStrict, 100, true),
      std::logic_error);
}

TEST(Runner, RecordsDivergenceWhenNotThrowing) {
  const auto r =
      check_constant_answer(RunConfig::Validation::kStrict, 100, false);
  EXPECT_FALSE(r.correct);
  EXPECT_TRUE(r.first_error_step.has_value());
  EXPECT_EQ(r.error_step_list.size(), r.error_steps);
}

TEST(Runner, ValidationOffAcceptsAnything) {
  const auto r = check_constant_answer(RunConfig::Validation::kOff, 50, true);
  EXPECT_TRUE(r.correct);
}

TEST(Runner, TraceRecordingMatchesStreams) {
  StreamSpec spec;
  auto replay = make_stream_set(spec, 3, 5);
  exp::Scenario sc;
  sc.monitor = "topk_filter";
  sc.n = 3;
  sc.k = 1;
  sc.steps = 20;
  sc.seed = 5;
  sc.record_trace = true;
  const auto r = exp::run_scenario(sc);
  ASSERT_TRUE(r.trace.has_value());
  EXPECT_EQ(r.trace->steps(), 21u);
  for (std::size_t t = 0; t <= 20; ++t) {
    for (NodeId i = 0; i < 3; ++i) {
      EXPECT_EQ(r.trace->at(t, i), replay.advance(i));
    }
  }
}

TEST(Runner, SeriesRecordingWorks) {
  exp::Scenario sc;
  sc.monitor = "naive";
  sc.n = 4;
  sc.k = 2;
  sc.steps = 10;
  sc.seed = 7;
  sc.record_series = true;
  const auto r = exp::run_scenario(sc);
  ASSERT_EQ(r.comm.series().size(), 11u);
  for (const auto per_step : r.comm.series()) {
    EXPECT_EQ(per_step, 4u);  // naive: n messages every step
  }
}

TEST(Runner, CompetitiveRatioRequiresTrace) {
  RunResult r;
  EXPECT_THROW(competitive_ratio(r, 2), std::invalid_argument);
}

TEST(Runner, CompetitiveRatioFiniteOnSilentTrace) {
  exp::Scenario sc;
  sc.monitor = "topk_filter";
  sc.stream = testing::walk(0);  // frozen values: OPT needs zero updates
  sc.n = 4;
  sc.k = 2;
  sc.steps = 50;
  sc.seed = 9;
  sc.record_trace = true;
  const auto r = exp::run_scenario(sc);
  const double ratio = competitive_ratio(r, 2);
  EXPECT_GT(ratio, 0.0);  // algorithm paid initialization, OPT epsilon
}

TEST(Runner, MessagesPerStep) {
  const auto r = run_spec("naive", StreamSpec{}, 4, 1, 9, 11);
  EXPECT_DOUBLE_EQ(r.messages_per_step(), 4.0);
}

}  // namespace
}  // namespace topkmon
