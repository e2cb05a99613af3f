// Tests for Algorithm 1 (the topk_filter role pair): correctness on
// hand-crafted traces, filter validity (Lemma 2.2) at quiescence,
// reset/halving behaviour, and message accounting.
#include <gtest/gtest.h>

#include <vector>

#include "core/filter.hpp"
#include "core/filter_roles.hpp"
#include "role_drive.hpp"

namespace topkmon {
namespace {

using testing::Deployed;

/// A topk_filter deployment over `v0` with the coordinator's accessors.
struct Filt : Deployed {
  Filt(std::size_t k, std::uint64_t seed, const std::vector<Value>& v0)
      : Deployed("topk_filter", k, seed, v0), values(v0) {}

  void apply(const std::vector<Value>& v, TimeStep t) {
    values = v;
    step(v, t);
  }
  const FilterCoordinator& coord() const {
    return coordinator<FilterCoordinator>();
  }
  Value boundary() const { return coord().boundary(); }

  /// Lemma 2.2 over the nodes' installed filters and membership beliefs.
  bool filters_valid() const {
    std::vector<Filter> filters;
    std::vector<char> members;
    for (NodeId id = 0; id < values.size(); ++id) {
      filters.push_back(node<FilterNode>(id).filter());
      members.push_back(node<FilterNode>(id).member() ? 1 : 0);
    }
    return is_valid_filter_set(values, filters, members);
  }

  std::vector<Value> values;
};

TEST(TopkMonitor, RejectsBadK) {
  EXPECT_THROW(FilterCoordinator(0), std::invalid_argument);
  EXPECT_THROW(Filt(5, 1, {1, 2, 3}), std::invalid_argument);
}

TEST(TopkMonitor, InitializationFindsTopK) {
  Filt m(2, 1, {30, 10, 50, 20, 40});
  EXPECT_EQ(m.topk(), (std::vector<NodeId>{2, 4}));
  // Boundary lies strictly between v_2 = 40 and v_3 = 30.
  EXPECT_GE(m.boundary(), 30);
  EXPECT_LE(m.boundary(), 40);
  EXPECT_EQ(m.stats().filter_resets, 1u);
}

TEST(TopkMonitor, FiltersValidAfterInitialization) {
  Filt m(3, 3, {1, 6, 3, 9, 2, 8});
  EXPECT_TRUE(m.filters_valid());
}

TEST(TopkMonitor, NoViolationNoMessages) {
  Filt m(2, 1, {100, 80, 20, 10});
  const auto after_init = m.messages();
  // Values drift but stay on their side of the boundary.
  m.apply({95, 85, 25, 5}, 1);
  m.apply({99, 81, 22, 12}, 2);
  EXPECT_EQ(m.messages(), after_init);
  EXPECT_EQ(m.stats().violation_steps, 0u);
  EXPECT_EQ(m.topk(), (std::vector<NodeId>{0, 1}));
}

TEST(TopkMonitor, DetectsSwapAcrossBoundary) {
  Filt m(2, 7, {100, 80, 20, 10});
  // Node 3 rockets to the top; node 1 collapses.
  m.apply({100, 5, 20, 500}, 1);
  EXPECT_EQ(m.topk(), (std::vector<NodeId>{0, 3}));
  EXPECT_GE(m.stats().filter_resets, 2u);  // init + this step
  EXPECT_TRUE(m.filters_valid());
}

TEST(TopkMonitor, RisingOutsiderOnly) {
  Filt m(2, 9, {100, 80, 20, 10});
  m.apply({100, 80, 20, 300}, 1);  // node 3 overtakes everything
  EXPECT_EQ(m.topk(), (std::vector<NodeId>{0, 3}));
}

TEST(TopkMonitor, FallingMemberOnly) {
  Filt m(2, 11, {100, 80, 20, 10});
  m.apply({100, 1, 20, 10}, 1);  // node 1 collapses below node 2
  EXPECT_EQ(m.topk(), (std::vector<NodeId>{0, 2}));
}

TEST(TopkMonitor, MidpointUpdateWithoutSetChange) {
  Filt m(2, 13, {1000, 800, 200, 100});
  const Value m0 = m.boundary();
  // Node 1 sinks toward the boundary but stays above node 2: set unchanged,
  // so the handler should do a midpoint update, not a reset.
  m.apply({1000, static_cast<Value>(m0 - 1), 200, 100}, 1);
  EXPECT_EQ(m.topk(), (std::vector<NodeId>{0, 1}));
  EXPECT_EQ(m.stats().filter_resets, 1u);  // only the init reset
  EXPECT_GE(m.stats().midpoint_updates, 1u);
  EXPECT_LT(m.boundary(), m0);  // boundary moved down toward T-
  EXPECT_TRUE(m.filters_valid());
}

TEST(TopkMonitor, GapHalvingBoundsViolationSteps) {
  // A member creeps down by one each step from a huge initial gap; between
  // resets there can be at most ~log Δ handler calls (Theorem 3.3's
  // counting argument). With Δ = 2^20 expect <= ~21 violation steps.
  const Value kGap = 1 << 20;
  Filt m(1, 17, {kGap, 0});
  std::uint64_t violation_steps = 0;
  Value v0 = kGap;
  for (TimeStep t = 1; t <= 60; ++t) {
    // Keep sinking node 0 just below the current boundary.
    if (v0 > m.boundary() && m.boundary() > 1) {
      v0 = m.boundary() - 1;
    }
    const auto before = m.stats().violation_steps;
    m.apply({v0, 0}, t);
    violation_steps += m.stats().violation_steps - before;
    EXPECT_EQ(m.topk(), (std::vector<NodeId>{0}));
    if (m.stats().filter_resets > 1) break;  // reached the bottom
  }
  EXPECT_LE(violation_steps, 25u);
}

TEST(TopkMonitor, DegenerateKEqualsN) {
  Filt m(3, 1, {5, 3, 8});
  EXPECT_EQ(m.topk(), (std::vector<NodeId>{0, 1, 2}));
  EXPECT_EQ(m.messages(), 0u);
  m.apply({1, 2, 3}, 1);
  EXPECT_EQ(m.messages(), 0u);
  EXPECT_EQ(m.topk(), (std::vector<NodeId>{0, 1, 2}));
}

TEST(TopkMonitor, KEqualsOneMaxTracking) {
  Filt m(1, 21, {10, 20, 30, 40, 50, 60, 70, 80});
  EXPECT_EQ(m.topk(), (std::vector<NodeId>{7}));
  m.apply({10, 20, 30, 40, 50, 60, 900, 80}, 1);
  EXPECT_EQ(m.topk(), (std::vector<NodeId>{6}));
}

TEST(TopkMonitor, BothSidesViolateSimultaneously) {
  Filt m(2, 23, {100, 80, 20, 10});
  // Node 1 falls below the boundary while node 2 rises above it.
  const Value b = m.boundary();
  m.apply({100, b - 5, b + 5, 10}, 1);
  EXPECT_EQ(m.topk(), (std::vector<NodeId>{0, 2}));
  EXPECT_TRUE(m.filters_valid());
}

TEST(TopkMonitor, TPlusAndTMinusTracked) {
  Filt m(1, 25, {1000, 0});
  EXPECT_EQ(m.coord().t_plus(), 1000);
  EXPECT_EQ(m.coord().t_minus(), 0);
  // Sink node 0 a bit: T+ must follow down.
  m.apply({static_cast<Value>(m.boundary() - 1), 0}, 1);
  EXPECT_LT(m.coord().t_plus(), 1000);
  EXPECT_GE(m.coord().t_plus(), m.coord().t_minus());
}

TEST(TopkMonitor, LongRandomWalkStaysCorrect) {
  // End-to-end guard: 2000 steps on random walks, strict validation
  // inside the runner (throws on first divergence).
  const auto result =
      testing::run_spec("topk_filter", testing::walk(2'000), 12, 3, 2'000, 77);
  EXPECT_TRUE(result.correct);
  EXPECT_GT(result.comm.total(), 0u);
}

TEST(TopkMonitor, SuppressedBeaconsStillCorrect) {
  const auto result = testing::run_spec(
      "topk_filter?nobeacon", testing::walk(5'000), 10, 2, 800, 31);
  EXPECT_TRUE(result.correct);
}

}  // namespace
}  // namespace topkmon
