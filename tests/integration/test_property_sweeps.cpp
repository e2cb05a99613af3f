// Parameterized property sweeps over (n, k, seed): Algorithm 1 must stay
// correct and maintain valid filters across the whole parameter grid, and
// its protocols must respect their structural invariants.
#include <gtest/gtest.h>

#include <tuple>

#include "../core/role_drive.hpp"
#include "core/filter.hpp"
#include "core/filter_roles.hpp"
#include "core/ground_truth.hpp"
#include "core/runner.hpp"
#include "protocols/extremum.hpp"
#include "streams/factory.hpp"

namespace topkmon {
namespace {

// ---------------------------------------------------------------------------
// Sweep 1: topk_filter over a grid of (n, k).
// ---------------------------------------------------------------------------

class TopkGrid
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t>> {};

TEST_P(TopkGrid, CorrectOnWalks) {
  const auto [n, k] = GetParam();
  if (k > n) GTEST_SKIP() << "k > n is rejected by construction";
  const auto result = testing::run_spec("topk_filter", testing::walk(5'000),
                                        n, k, 250, 100 + n * 31 + k);
  EXPECT_TRUE(result.correct);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, TopkGrid,
    ::testing::Combine(::testing::Values<std::size_t>(1, 2, 3, 5, 8, 16, 33),
                       ::testing::Values<std::size_t>(1, 2, 3, 7, 16)));

// ---------------------------------------------------------------------------
// Sweep 2: filter validity invariant holds after every step (Lemma 2.2).
// ---------------------------------------------------------------------------

class FilterInvariant : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FilterInvariant, HoldsThroughoutRun) {
  const std::uint64_t seed = GetParam();
  constexpr std::size_t kN = 10;
  constexpr std::size_t kK = 3;
  StreamSpec spec;
  spec.family = StreamFamily::kRandomWalk;
  spec.walk.max_step = 8'000;
  auto streams = make_stream_set(spec, kN, seed);
  std::vector<Value> values(kN);
  streams.advance_all(values);
  testing::Deployed m("topk_filter", kK, seed, values);
  std::vector<Filter> filters(kN);
  std::vector<char> members(kN);
  for (TimeStep t = 1; t <= 300; ++t) {
    streams.advance_all(values);
    m.step(values, t);
    for (NodeId i = 0; i < kN; ++i) {
      filters[i] = m.node<FilterNode>(i).filter();
      members[i] = m.node<FilterNode>(i).member() ? 1 : 0;
    }
    ASSERT_TRUE(is_valid_filter_set(values, filters, members))
        << "Lemma 2.2 violated at t=" << t << " seed=" << seed;
    ASSERT_EQ(m.topk(), true_topk_set(values, kK)) << "t=" << t;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FilterInvariant,
                         ::testing::Range<std::uint64_t>(1, 21));

// ---------------------------------------------------------------------------
// Sweep 3: MaximumProtocol exactness across sizes and seeds.
// ---------------------------------------------------------------------------

class ProtocolExactness
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::uint64_t>> {
};

TEST_P(ProtocolExactness, MaxAndMinAlwaysExact) {
  const auto [n, seed] = GetParam();
  Cluster c(n, seed);
  Rng values_rng(seed * 7919 + 13);
  Value best = kMinusInf;
  Value worst = kPlusInf;
  NodeId best_id = 0;
  NodeId worst_id = 0;
  for (NodeId i = 0; i < n; ++i) {
    const Value v = values_rng.uniform_int(-1'000'000, 1'000'000);
    c.set_value(i, v);
    if (v > best) {
      best = v;
      best_id = i;
    }
    if (v < worst) {
      worst = v;
      worst_id = i;
    }
  }
  const auto rmax = run_max_protocol(c, c.all_ids(), n);
  EXPECT_EQ(rmax.extremum, best);
  EXPECT_EQ(rmax.winner, best_id);
  const auto rmin = run_min_protocol(c, c.all_ids(), n);
  EXPECT_EQ(rmin.extremum, worst);
  EXPECT_EQ(rmin.winner, worst_id);
}

INSTANTIATE_TEST_SUITE_P(
    SizesAndSeeds, ProtocolExactness,
    ::testing::Combine(::testing::Values<std::size_t>(1, 2, 5, 17, 64, 200),
                       ::testing::Range<std::uint64_t>(1, 11)));

// ---------------------------------------------------------------------------
// Sweep 4: k == n degeneracy is free for every n.
// ---------------------------------------------------------------------------

class DegenerateK : public ::testing::TestWithParam<std::size_t> {};

TEST_P(DegenerateK, NoMessagesEver) {
  const std::size_t n = GetParam();
  StreamSpec spec;
  spec.family = StreamFamily::kIidUniform;
  const auto result = testing::run_spec("topk_filter", spec, n, n, 50, 42);
  EXPECT_TRUE(result.correct);
  EXPECT_EQ(result.comm.total(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Sizes, DegenerateK,
                         ::testing::Values<std::size_t>(1, 2, 3, 9, 30));

}  // namespace
}  // namespace topkmon
