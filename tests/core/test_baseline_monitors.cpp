// Tests for the naive, recompute and slack baseline monitors.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/driver.hpp"
#include "core/naive_monitor.hpp"
#include "core/naive_roles.hpp"
#include "core/recompute_monitor.hpp"
#include "core/runner.hpp"
#include "core/slack_monitor.hpp"
#include "streams/factory.hpp"

namespace topkmon {
namespace {

RunConfig small_cfg(std::size_t n, std::size_t k, std::size_t steps,
                    std::uint64_t seed) {
  RunConfig cfg;
  cfg.n = n;
  cfg.k = k;
  cfg.steps = steps;
  cfg.seed = seed;
  return cfg;
}

StreamSet walk_streams(std::size_t n, std::uint64_t seed, Value step = 2'000) {
  StreamSpec spec;
  spec.family = StreamFamily::kRandomWalk;
  spec.walk.max_step = step;
  return make_stream_set(spec, n, seed);
}

// ---------------------------------------------------------------- naive --

TEST(NaiveMonitor, RejectsBadK) {
  EXPECT_THROW(NaiveMonitor(0), std::invalid_argument);
}

TEST(NaiveCoordinator, ReadsSeeReportsDeliveredEarlierInTheStep) {
  // The coordinator batches reports into its tracker; every read must
  // apply the pending batch first, also mid-step, before on_step_end.
  constexpr std::size_t kN = 16;
  Cluster cluster(kN, 3);
  for (NodeId id = 0; id < kN; ++id) cluster.set_value(id, 100 + id);
  NaiveCoordinator coord(4, /*send_on_change_only=*/false);
  std::vector<std::unique_ptr<NodeAlgo>> nodes;
  for (std::size_t i = 0; i < kN; ++i) {
    nodes.push_back(std::make_unique<NaiveNode>(false));
  }
  SimDriver driver(cluster, coord, nodes, /*auto_deliver=*/true);
  driver.initialize();
  EXPECT_EQ(coord.topk(), (std::vector<NodeId>{12, 13, 14, 15}));
  EXPECT_EQ(coord.weakest_member_value(), 112);
  EXPECT_EQ(coord.strongest_outsider_value(), 111);

  CoordCtx ctx(driver, cluster);
  Message report;
  report.kind = MsgKind::kValueReport;
  for (NodeId id = 0; id < kN; ++id) {  // a dense batch: every node
    report.from = id;
    report.a = 1'000 - static_cast<Value>(id);
    coord.on_message(ctx, report);
  }
  EXPECT_EQ(coord.weakest_member_value(), 997);
  EXPECT_EQ(coord.strongest_outsider_value(), 996);
  report.from = 9;  // a sparse batch: one node
  report.a = 5'000;
  coord.on_message(ctx, report);
  EXPECT_EQ(coord.strongest_outsider_value(), 997);
  EXPECT_EQ(coord.weakest_member_value(), 998);
  coord.on_step_end(ctx, 1);
  EXPECT_EQ(coord.topk(), (std::vector<NodeId>{0, 1, 2, 9}));
}

TEST(NaiveMonitor, AlwaysCorrectOnWalks) {
  auto streams = walk_streams(8, 5);
  NaiveMonitor m(3);
  const auto result = run_monitor(m, streams, small_cfg(8, 3, 300, 5));
  EXPECT_TRUE(result.correct);
}

TEST(NaiveMonitor, SendsNPerStep) {
  auto streams = walk_streams(8, 7);
  NaiveMonitor m(2);
  const auto result = run_monitor(m, streams, small_cfg(8, 2, 100, 7));
  // Every node reports every step (101 steps including init).
  EXPECT_EQ(result.comm.upstream(), 8u * 101u);
  EXPECT_EQ(result.comm.broadcast(), 0u);
}

TEST(NaiveMonitor, OnChangeVariantSendsLess) {
  // Rotating-max streams keep most nodes constant most of the time.
  StreamSpec spec;
  spec.family = StreamFamily::kRotatingMax;
  spec.enforce_distinct = false;
  auto s1 = make_stream_set(spec, 8, 9);
  NaiveMonitor every(2);
  const auto r1 = run_monitor(every, s1, small_cfg(8, 2, 200, 9));

  auto s2 = make_stream_set(spec, 8, 9);
  NaiveMonitor::Options opts;
  opts.send_on_change_only = true;
  NaiveMonitor on_change(2, opts);
  const auto r2 = run_monitor(on_change, s2, small_cfg(8, 2, 200, 9));

  EXPECT_TRUE(r1.correct);
  EXPECT_TRUE(r2.correct);
  EXPECT_LT(r2.comm.total(), r1.comm.total() / 2);
}

TEST(NaiveMonitor, NamesDistinguishVariants) {
  NaiveMonitor a(1);
  NaiveMonitor::Options opts;
  opts.send_on_change_only = true;
  NaiveMonitor b(1, opts);
  EXPECT_EQ(a.name(), "naive");
  EXPECT_EQ(b.name(), "naive_on_change");
}

// ------------------------------------------------------------ recompute --

TEST(RecomputeMonitor, RejectsBadK) {
  EXPECT_THROW(RecomputeMonitor(0), std::invalid_argument);
}

TEST(RecomputeMonitor, AlwaysCorrectOnWalks) {
  auto streams = walk_streams(10, 11);
  RecomputeMonitor m(3);
  const auto result = run_monitor(m, streams, small_cfg(10, 3, 300, 11));
  EXPECT_TRUE(result.correct);
}

TEST(RecomputeMonitor, AlwaysCorrectOnRotatingMax) {
  StreamSpec spec;
  spec.family = StreamFamily::kRotatingMax;
  auto streams = make_stream_set(spec, 8, 13);
  RecomputeMonitor m(2);
  const auto result = run_monitor(m, streams, small_cfg(8, 2, 200, 13));
  EXPECT_TRUE(result.correct);
}

TEST(RecomputeMonitor, CostsEveryStepEvenWhenStill) {
  // Constant values: filters would be silent, recompute still pays.
  StreamSpec spec;
  spec.family = StreamFamily::kRandomWalk;
  spec.walk.max_step = 0;
  auto streams = make_stream_set(spec, 8, 15);
  RecomputeMonitor m(2);
  const auto result = run_monitor(m, streams, small_cfg(8, 2, 100, 15));
  EXPECT_TRUE(result.correct);
  // k protocol runs per step, each with >= 1 report + >= 1 announce.
  EXPECT_GE(result.comm.total(), 100u * 2u * 2u);
  EXPECT_EQ(result.monitor.protocol_runs, 101u * 2u);
}

// ---------------------------------------------------------------- slack --

TEST(SlackMonitor, RejectsBadParams) {
  EXPECT_THROW(SlackMonitor(0), std::invalid_argument);
  SlackMonitor::Options bad;
  bad.alpha = 0.0;
  EXPECT_THROW(SlackMonitor(1, bad), std::invalid_argument);
  bad.alpha = 1.0;
  EXPECT_THROW(SlackMonitor(1, bad), std::invalid_argument);
}

TEST(SlackMonitor, NamesDistinguishVariants) {
  SlackMonitor fixed(1);
  SlackMonitor::Options opts;
  opts.adaptive = true;
  SlackMonitor adaptive(1, opts);
  EXPECT_EQ(fixed.name(), "slack_fixed");
  EXPECT_EQ(adaptive.name(), "slack_adaptive");
}

TEST(SlackMonitor, CorrectOnWalks) {
  auto streams = walk_streams(10, 17);
  SlackMonitor m(3);
  const auto result = run_monitor(m, streams, small_cfg(10, 3, 500, 17));
  EXPECT_TRUE(result.correct);
}

TEST(SlackMonitor, CorrectWithAsymmetricAlpha) {
  for (const double alpha : {0.1, 0.9}) {
    auto streams = walk_streams(10, 19);
    SlackMonitor::Options opts;
    opts.alpha = alpha;
    SlackMonitor m(3, opts);
    const auto result = run_monitor(m, streams, small_cfg(10, 3, 400, 19));
    EXPECT_TRUE(result.correct) << "alpha=" << alpha;
  }
}

TEST(SlackMonitor, AdaptiveVariantCorrect) {
  auto streams = walk_streams(10, 21);
  SlackMonitor::Options opts;
  opts.adaptive = true;
  SlackMonitor m(3, opts);
  const auto result = run_monitor(m, streams, small_cfg(10, 3, 500, 21));
  EXPECT_TRUE(result.correct);
}

TEST(SlackMonitor, BoundaryWithinGapAfterInit) {
  Cluster c(4, 23);
  c.set_value(0, 100);
  c.set_value(1, 80);
  c.set_value(2, 20);
  c.set_value(3, 10);
  SlackMonitor m(2);
  m.initialize(c);
  EXPECT_GE(m.boundary(), 20);
  EXPECT_LE(m.boundary(), 80);
  EXPECT_EQ(m.topk(), (std::vector<NodeId>{0, 1}));
}

TEST(SlackMonitor, DegenerateKEqualsNSilent) {
  Cluster c(3, 1);
  c.set_value(0, 5);
  c.set_value(1, 6);
  c.set_value(2, 7);
  SlackMonitor m(3);
  m.initialize(c);
  EXPECT_EQ(c.stats().total(), 0u);
  EXPECT_EQ(m.topk(), (std::vector<NodeId>{0, 1, 2}));
}

TEST(SlackMonitor, UsesPollsNotProtocols) {
  auto streams = walk_streams(10, 25, /*step=*/20'000);
  SlackMonitor m(3);
  const auto result = run_monitor(m, streams, small_cfg(10, 3, 300, 25));
  EXPECT_TRUE(result.correct);
  EXPECT_GT(result.monitor.polls, 0u);
  EXPECT_EQ(result.monitor.protocol_runs, 0u);
}

}  // namespace
}  // namespace topkmon
