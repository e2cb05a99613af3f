// Tests for the multi-k monitor: every monitored boundary correct at every
// step, shared resets, degenerate configurations.
#include <gtest/gtest.h>

#include <algorithm>

#include "core/ground_truth.hpp"
#include "core/multik_roles.hpp"
#include "role_drive.hpp"

namespace topkmon {
namespace {

using testing::run_spec;

/// A multi_k deployment monitoring `ks` ("multi_k?ks=a+b+...").
struct Multi : testing::Deployed {
  Multi(const std::vector<std::size_t>& ks, std::uint64_t seed,
        const std::vector<Value>& v0)
      : Deployed(spec(ks), ks.front(), seed, v0) {}
  static std::string spec(const std::vector<std::size_t>& ks) {
    std::string out = "multi_k?ks=";
    for (std::size_t i = 0; i < ks.size(); ++i) {
      if (i > 0) out += '+';
      out += std::to_string(ks[i]);
    }
    return out;
  }
  std::vector<NodeId> topk_for(std::size_t k) const {
    return coordinator<MultiKCoordinator>().topk_for(k);
  }
};

TEST(MultiK, RejectsBadKs) {
  using Ks = std::vector<std::size_t>;
  EXPECT_THROW(MultiKCoordinator(Ks{}), std::invalid_argument);
  EXPECT_THROW(MultiKCoordinator(Ks{0}), std::invalid_argument);
  EXPECT_THROW(MultiKCoordinator(Ks{3, 3}), std::invalid_argument);
  EXPECT_THROW(MultiKCoordinator(Ks{4, 2}), std::invalid_argument);
}

TEST(MultiK, RejectsKLargerThanN) {
  EXPECT_THROW(Multi({2, 9}, 1, {0, 0, 0, 0, 0}), std::invalid_argument);
}

TEST(MultiK, InitializationAllBoundaries) {
  Multi m({1, 3, 5}, 1, {60, 50, 40, 30, 20, 10});
  EXPECT_EQ(m.topk_for(1), (std::vector<NodeId>{0}));
  EXPECT_EQ(m.topk_for(3), (std::vector<NodeId>{0, 1, 2}));
  EXPECT_EQ(m.topk_for(5), (std::vector<NodeId>{0, 1, 2, 3, 4}));
  EXPECT_EQ(m.topk(), (std::vector<NodeId>{0}));  // topk() = smallest k
  EXPECT_THROW(m.topk_for(2), std::invalid_argument);
}

TEST(MultiK, TrailingKEqualsNIsDegenerate) {
  Multi m({2, 4}, 1, {10, 20, 30, 40});
  EXPECT_EQ(m.topk_for(4), (std::vector<NodeId>{0, 1, 2, 3}));
  EXPECT_EQ(m.topk_for(2), (std::vector<NodeId>{2, 3}));
}

TEST(MultiK, OnlyKEqualsNIsFree) {
  Multi m({3}, 1, {0, 0, 0});
  EXPECT_EQ(m.messages(), 0u);
  m.step({0, 0, 0}, 1);
  EXPECT_EQ(m.messages(), 0u);
  EXPECT_EQ(m.topk(), (std::vector<NodeId>{0, 1, 2}));
}

TEST(MultiK, SingleBoundaryMatchesGroundTruthOverWalk) {
  const auto r =
      run_spec("multi_k?ks=3", testing::walk(5'000), 10, 3, 800, 7);
  EXPECT_TRUE(r.correct);
}

TEST(MultiK, AllBoundariesCorrectEveryStep) {
  StreamSpec spec;
  spec.family = StreamFamily::kRandomWalk;
  spec.walk.max_step = 4'000;
  auto streams = make_stream_set(spec, 12, 9);
  std::vector<Value> values(12);
  const auto observe = [&] {
    for (NodeId i = 0; i < 12; ++i) values[i] = streams.advance(i);
  };
  observe();
  Multi m({1, 4, 8}, 9, values);
  for (TimeStep t = 1; t <= 800; ++t) {
    observe();
    m.step(values, t);
    for (const std::size_t k : {1u, 4u, 8u}) {
      ASSERT_EQ(m.topk_for(k), true_topk_set(m.cluster(), k))
          << "k=" << k << " t=" << t;
    }
  }
}

TEST(MultiK, CorrectOnJumpyStreams) {
  // Bursts regularly cause multi-band jumps -> shared resets; answers must
  // stay exact throughout.
  StreamSpec spec;
  spec.family = StreamFamily::kBursty;
  spec.bursty.p_enter_burst = 0.05;
  spec.bursty.lo = 0;
  spec.bursty.hi = 50'000;  // confined so bursts jump across bands
  spec.bursty.start = 25'000;
  spec.bursty.burst_step = 20'000;
  auto streams = make_stream_set(spec, 10, 11);
  std::vector<Value> values(10);
  const auto observe = [&] {
    for (NodeId i = 0; i < 10; ++i) values[i] = streams.advance(i);
  };
  observe();
  Multi m({2, 5}, 11, values);
  for (TimeStep t = 1; t <= 600; ++t) {
    observe();
    m.step(values, t);
    ASSERT_EQ(m.topk_for(2), true_topk_set(m.cluster(), 2)) << "t=" << t;
    ASSERT_EQ(m.topk_for(5), true_topk_set(m.cluster(), 5)) << "t=" << t;
  }
  EXPECT_GT(m.stats().filter_resets, 1u);
}

TEST(MultiK, QuietWhenValuesDriftInsideBands) {
  Multi m({2, 4}, 13, {6'000, 5'000, 4'000, 3'000, 2'000, 1'000});
  const auto baseline = m.messages();
  m.step({6'050, 5'000, 4'000, 2'960, 2'000, 1'000}, 1);
  EXPECT_EQ(m.messages(), baseline);
}

TEST(MultiK, SharedResetCheaperThanIndependentMonitors) {
  // Compare against m independent topk_filter deployments on the same
  // reset-heavy workload (iid): the shared k_max+1 selection should beat
  // the sum of per-k selections.
  StreamSpec spec;
  spec.family = StreamFamily::kIidUniform;
  constexpr std::size_t kN = 64;
  const std::vector<std::size_t> ks{2, 8, 16};

  const auto rm =
      run_spec(Multi::spec(ks), spec, kN, ks.front(), 150, 15);

  std::uint64_t independent_total = 0;
  for (const std::size_t k : ks) {
    independent_total +=
        run_spec("topk_filter", spec, kN, k, 150, 15).comm.total();
  }
  EXPECT_LT(rm.comm.total(), independent_total);
}

TEST(MultiK, DeterministicAcrossRuns) {
  auto run_once_total = [] {
    StreamSpec spec;
    spec.family = StreamFamily::kSinusoidal;
    return run_spec("multi_k?ks=2+5", spec, 10, 2, 300, 17).comm.total();
  };
  EXPECT_EQ(run_once_total(), run_once_total());
}

}  // namespace
}  // namespace topkmon
