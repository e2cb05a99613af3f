// Tests for the naive, recompute and slack baseline monitors.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/driver.hpp"
#include "core/naive_roles.hpp"
#include "core/recompute_roles.hpp"
#include "core/slack_roles.hpp"
#include "role_drive.hpp"

namespace topkmon {
namespace {

using testing::Deployed;
using testing::run_spec;
using testing::walk;

// ---------------------------------------------------------------- naive --

TEST(NaiveMonitor, RejectsBadK) {
  EXPECT_THROW(NaiveCoordinator(0, false, false), std::invalid_argument);
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
  SimDriver driver(cluster, coord, nodes);
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
  const auto result = run_spec("naive", walk(2'000), 8, 3, 300, 5);
  EXPECT_TRUE(result.correct);
}

TEST(NaiveMonitor, SendsNPerStep) {
  const auto result = run_spec("naive", walk(2'000), 8, 2, 100, 7);
  // Every node reports every step (101 steps including init).
  EXPECT_EQ(result.comm.upstream(), 8u * 101u);
  EXPECT_EQ(result.comm.broadcast(), 0u);
}

TEST(NaiveMonitor, OnChangeVariantSendsLess) {
  // Rotating-max streams keep most nodes constant most of the time.
  StreamSpec spec;
  spec.family = StreamFamily::kRotatingMax;
  spec.enforce_distinct = false;
  const auto r1 = run_spec("naive", spec, 8, 2, 200, 9);
  const auto r2 = run_spec("naive_chg", spec, 8, 2, 200, 9);

  EXPECT_TRUE(r1.correct);
  EXPECT_TRUE(r2.correct);
  EXPECT_LT(r2.comm.total(), r1.comm.total() / 2);
}

TEST(NaiveMonitor, NamesDistinguishVariants) {
  NaiveCoordinator a(1, /*send_on_change_only=*/false, /*sharded=*/false);
  NaiveCoordinator b(1, /*send_on_change_only=*/true, /*sharded=*/false);
  EXPECT_EQ(a.name(), "naive");
  EXPECT_EQ(b.name(), "naive_on_change");
}

// ------------------------------------------------------------ recompute --

TEST(RecomputeMonitor, RejectsBadK) {
  EXPECT_THROW(RecomputeCoordinator(0), std::invalid_argument);
}

TEST(RecomputeMonitor, AlwaysCorrectOnWalks) {
  const auto result = run_spec("recompute", walk(2'000), 10, 3, 300, 11);
  EXPECT_TRUE(result.correct);
}

TEST(RecomputeMonitor, AlwaysCorrectOnRotatingMax) {
  StreamSpec spec;
  spec.family = StreamFamily::kRotatingMax;
  const auto result = run_spec("recompute", spec, 8, 2, 200, 13);
  EXPECT_TRUE(result.correct);
}

TEST(RecomputeMonitor, CostsEveryStepEvenWhenStill) {
  // Constant values: filters would be silent, recompute still pays.
  StreamSpec spec;
  spec.family = StreamFamily::kRandomWalk;
  spec.walk.max_step = 0;
  const auto result = run_spec("recompute", spec, 8, 2, 100, 15);
  EXPECT_TRUE(result.correct);
  // k protocol runs per step, each with >= 1 report + >= 1 announce.
  EXPECT_GE(result.comm.total(), 100u * 2u * 2u);
  EXPECT_EQ(result.monitor.protocol_runs, 101u * 2u);
}

// ---------------------------------------------------------------- slack --

TEST(SlackMonitor, RejectsBadParams) {
  EXPECT_THROW(SlackCoordinator(0), std::invalid_argument);
  SlackCoordinator::Options bad;
  bad.alpha = 0.0;
  EXPECT_THROW(SlackCoordinator(1, bad), std::invalid_argument);
  bad.alpha = 1.0;
  EXPECT_THROW(SlackCoordinator(1, bad), std::invalid_argument);
}

TEST(SlackMonitor, NamesDistinguishVariants) {
  SlackCoordinator fixed(1);
  SlackCoordinator::Options opts;
  opts.adaptive = true;
  SlackCoordinator adaptive(1, opts);
  EXPECT_EQ(fixed.name(), "slack_fixed");
  EXPECT_EQ(adaptive.name(), "slack_adaptive");
}

TEST(SlackMonitor, CorrectOnWalks) {
  const auto result = run_spec("slack", walk(2'000), 10, 3, 500, 17);
  EXPECT_TRUE(result.correct);
}

TEST(SlackMonitor, CorrectWithAsymmetricAlpha) {
  for (const double alpha : {0.1, 0.9}) {
    const auto result = run_spec("slack?alpha=" + std::to_string(alpha),
                                 walk(2'000), 10, 3, 400, 19);
    EXPECT_TRUE(result.correct) << "alpha=" << alpha;
  }
}

TEST(SlackMonitor, AdaptiveVariantCorrect) {
  const auto result =
      run_spec("slack?adaptive", walk(2'000), 10, 3, 500, 21);
  EXPECT_TRUE(result.correct);
}

TEST(SlackMonitor, BoundaryWithinGapAfterInit) {
  Deployed m("slack", 2, 23, {100, 80, 20, 10});
  EXPECT_GE(m.coordinator<SlackCoordinator>().boundary(), 20);
  EXPECT_LE(m.coordinator<SlackCoordinator>().boundary(), 80);
  EXPECT_EQ(m.topk(), (std::vector<NodeId>{0, 1}));
}

TEST(SlackMonitor, DegenerateKEqualsNSilent) {
  Deployed m("slack", 3, 1, {5, 6, 7});
  EXPECT_EQ(m.messages(), 0u);
  EXPECT_EQ(m.topk(), (std::vector<NodeId>{0, 1, 2}));
}

TEST(SlackMonitor, UsesPollsNotProtocols) {
  const auto result = run_spec("slack", walk(20'000), 10, 3, 300, 25);
  EXPECT_TRUE(result.correct);
  EXPECT_GT(result.monitor.polls, 0u);
  EXPECT_EQ(result.monitor.protocol_runs, 0u);
}

}  // namespace
}  // namespace topkmon
