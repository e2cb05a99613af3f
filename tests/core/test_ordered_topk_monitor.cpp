// Tests for the ordered top-k monitor (§5 future-work variant).
#include <gtest/gtest.h>

#include <vector>

#include "core/ordered_roles.hpp"
#include "role_drive.hpp"

namespace topkmon {
namespace {

/// Strict validation of the set and of the rank order.
RunResult run_ordered(const StreamSpec& stream, std::size_t n, std::size_t k,
                      std::size_t steps, std::uint64_t seed) {
  exp::Scenario sc;
  sc.monitor = "ordered";
  sc.stream = stream;
  sc.n = n;
  sc.k = k;
  sc.steps = steps;
  sc.seed = seed;
  sc.validate_order = true;
  return exp::run_scenario(sc);
}

struct Ord : testing::Deployed {
  Ord(std::size_t k, std::uint64_t seed, const std::vector<Value>& v0)
      : Deployed("ordered", k, seed, v0) {}
  const std::vector<NodeId>& ordered_topk() const {
    return coordinator<OrderedCoordinator>().ordered_topk();
  }
};

TEST(OrderedTopk, RejectsBadK) {
  EXPECT_THROW(OrderedCoordinator(0), std::invalid_argument);
}

TEST(OrderedTopk, InitializationOrdersTopK) {
  Ord m(3, 1, {30, 10, 50, 20, 40});
  EXPECT_EQ(m.topk(), (std::vector<NodeId>{0, 2, 4}));
  EXPECT_EQ(m.ordered_topk(), (std::vector<NodeId>{2, 4, 0}));
}

TEST(OrderedTopk, QuietWhenNothingCrosses) {
  Ord m(2, 3, {4'000, 3'000, 2'000, 1'000});
  const auto baseline = m.messages();
  m.step({4'010, 2'990, 2'000, 1'000}, 1);
  EXPECT_EQ(m.messages(), baseline);
  EXPECT_EQ(m.ordered_topk(), (std::vector<NodeId>{0, 1}));
}

TEST(OrderedTopk, InternalSwapReordersWithoutReset) {
  Ord m(2, 5, {4'000, 3'000, 2'000, 1'000});
  const auto resets_before = m.stats().filter_resets;
  // Members 0 and 1 swap; both stay far above the boundary.
  m.step({2'900, 3'900, 2'000, 1'000}, 1);
  EXPECT_EQ(m.ordered_topk(), (std::vector<NodeId>{1, 0}));
  EXPECT_EQ(m.topk(), (std::vector<NodeId>{0, 1}));  // set unchanged
  EXPECT_EQ(m.stats().filter_resets, resets_before);
}

TEST(OrderedTopk, BoundaryCrossingChangesSet) {
  Ord m(2, 7, {4'000, 3'000, 2'000, 1'000});
  // Member 1 collapses, outsider 2 rises.
  m.step({4'000, 500, 3'500, 1'000}, 1);
  EXPECT_EQ(m.topk(), (std::vector<NodeId>{0, 2}));
  EXPECT_EQ(m.ordered_topk(), (std::vector<NodeId>{0, 2}));
}

TEST(OrderedTopk, KEqualsOneDegeneratesToMaxTracking) {
  Ord m(1, 9, {10, 20, 30, 40, 50, 60});
  EXPECT_EQ(m.ordered_topk(), (std::vector<NodeId>{5}));
  m.step({1'000, 20, 30, 40, 50, 60}, 1);
  EXPECT_EQ(m.ordered_topk(), (std::vector<NodeId>{0}));
}

TEST(OrderedTopk, KEqualsNOrdersEverything) {
  Ord m(4, 11, {20, 40, 10, 30});
  EXPECT_EQ(m.ordered_topk(), (std::vector<NodeId>{1, 3, 0, 2}));
  // Swap two nodes; order must follow.
  m.step({45, 40, 10, 30}, 1);
  EXPECT_EQ(m.ordered_topk(), (std::vector<NodeId>{0, 1, 3, 2}));
}

TEST(OrderedTopk, LongWalkOrderAlwaysCorrect) {
  const auto result = run_ordered(testing::walk(3'000), 10, 4, 1'000, 13);
  EXPECT_TRUE(result.correct);
}

TEST(OrderedTopk, SinusoidalRotationsCorrect) {
  StreamSpec spec;
  spec.family = StreamFamily::kSinusoidal;
  spec.sinus.period = 80.0;
  spec.sinus.amplitude = 400.0;
  const auto result = run_ordered(spec, 8, 3, 600, 15);
  EXPECT_TRUE(result.correct);
}

TEST(OrderedTopk, CostsMoreThanUnorderedVariant) {
  // Maintaining the order cannot be cheaper than maintaining just the set
  // on order-churny inputs (E10 quantifies the overhead).
  const StreamSpec spec = testing::walk(10'000);
  const auto r1 = run_ordered(spec, 12, 4, 500, 17);
  const auto r2 = testing::run_spec("topk_filter", spec, 12, 4, 500, 17);

  EXPECT_TRUE(r1.correct);
  EXPECT_TRUE(r2.correct);
  EXPECT_GE(r1.comm.total(), r2.comm.total());
}

}  // namespace
}  // namespace topkmon
