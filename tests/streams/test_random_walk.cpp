// Unit + property tests for the reflected random-walk stream.
#include "streams/random_walk.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <limits>
#include <memory>
#include <vector>

#include "streams/factory.hpp"

namespace topkmon {
namespace {

TEST(RandomWalk, RejectsInvalidParams) {
  RandomWalkParams bad;
  bad.lo = 10;
  bad.hi = 0;
  EXPECT_THROW(RandomWalkStream(bad, Rng(1)), std::invalid_argument);
  RandomWalkParams neg;
  neg.max_step = -1;
  EXPECT_THROW(RandomWalkStream(neg, Rng(1)), std::invalid_argument);
}

constexpr Value kMax = std::numeric_limits<Value>::max();
constexpr Value kMin = std::numeric_limits<Value>::min();

RandomWalkParams walk(Value max_step, Value lo, Value hi) {
  RandomWalkParams p;
  p.start = lo;
  p.max_step = max_step;
  p.lo = lo;
  p.hi = hi;
  return p;
}

/// Runs the walk both as a stream and through make_stream_set's column
/// bank, checking bounds and agreement at every step.
void walk_both_ways(const RandomWalkParams& p, bool distinct = false) {
  StreamSpec spec;
  spec.family = StreamFamily::kRandomWalk;
  spec.enforce_distinct = distinct;
  spec.walk = p;
  constexpr std::size_t kN = 8;
  auto set = make_stream_set(spec, kN, 3);
  std::vector<std::unique_ptr<Stream>> ref;
  for (NodeId id = 0; id < kN; ++id) {
    ref.push_back(make_stream(spec, id, kN, 3));
  }
  std::vector<Value> out(kN);
  for (int t = 0; t < 500; ++t) {
    set.advance_all(out);
    for (NodeId id = 0; id < kN; ++id) {
      const Value v = ref[id]->next();
      ASSERT_GE(v, p.lo) << "t=" << t;
      ASSERT_LE(v, p.hi) << "t=" << t;
      ASSERT_EQ(out[id], distinct ? distinct_value(v, id, kN) : v)
          << "t=" << t << " node=" << id;
    }
  }
}

TEST(RandomWalk, RejectsStepWidthThatOverflows) {
  // 2 * max_step + 1 must be representable.
  EXPECT_THROW(RandomWalkStream(walk((kMax - 1) / 2 + 1, 0, 0), Rng(1)),
               std::invalid_argument);
  EXPECT_THROW(RandomWalkStream(walk(kMax, 0, 0), Rng(1)),
               std::invalid_argument);
}

TEST(RandomWalk, RejectsExcursionsOutsideTheValueRange) {
  EXPECT_THROW(RandomWalkStream(walk(6, kMax - 100, kMax - 5), Rng(1)),
               std::invalid_argument);
  EXPECT_THROW(RandomWalkStream(walk(6, kMin + 5, kMin + 100), Rng(1)),
               std::invalid_argument);
  EXPECT_THROW(RandomWalkBank(walk(6, kMin + 5, kMin + 100), 4, false),
               std::invalid_argument);
}

TEST(RandomWalk, FactoryRejectsDistinctValuesThatOverflow) {
  StreamSpec spec;
  spec.family = StreamFamily::kRandomWalk;
  spec.walk = walk(8, 0, kMax / 4);  // hi * 8 overflows
  EXPECT_THROW(make_stream_set(spec, 8, 1), std::invalid_argument);
  spec.walk = walk(8, kMin / 4, 0);  // lo * 8 overflows
  EXPECT_THROW(make_stream_set(spec, 8, 1), std::invalid_argument);
  spec.walk = walk(8, 0, (kMax - 7) / 8 + 1);  // hi * 8 + 7 overflows
  EXPECT_THROW(make_stream_set(spec, 8, 1), std::invalid_argument);
  // The sparse wrapper's inner walks pass through the same transform.
  spec.family = StreamFamily::kSparse;
  spec.sparse_inner = StreamFamily::kRandomWalk;
  EXPECT_THROW(make_stream_set(spec, 8, 1), std::invalid_argument);
  // Without distinctness the same bounds are fine.
  spec.enforce_distinct = false;
  EXPECT_NO_THROW(make_stream_set(spec, 8, 1));
  spec.family = StreamFamily::kRandomWalk;
  EXPECT_NO_THROW(make_stream_set(spec, 8, 1));
}

TEST(RandomWalk, AcceptsWideRangeWithNegativeLo) {
  // hi - lo exceeds INT64_MAX: no width may be computed in int64.
  walk_both_ways(walk(1000, -(Value{1} << 62) - 5, (Value{1} << 62) + 5));
}

TEST(RandomWalk, AcceptsExcursionsReachingTheValueLimits) {
  walk_both_ways(walk(7, kMax - 107, kMax - 7));
  walk_both_ways(walk(7, kMin + 7, kMin + 107));
}

TEST(RandomWalk, AcceptsTheLargestStep) {
  // 2 * max_step + 1 == INT64_MAX; every step overshoots and clamps.
  walk_both_ways(walk((kMax - 1) / 2, -1, 1));
}

TEST(RandomWalk, AcceptsDistinctValuesReachingTheValueLimits) {
  // With n = 8: hi * 8 + 7 == INT64_MAX and lo * 8 == INT64_MIN.
  walk_both_ways(walk(8, kMin / 8, (kMax - 7) / 8), true);
}

TEST(RandomWalk, StaysWithinBounds) {
  RandomWalkParams p;
  p.start = 50;
  p.max_step = 30;
  p.lo = 0;
  p.hi = 100;
  RandomWalkStream s(p, Rng(3));
  for (int i = 0; i < 10'000; ++i) {
    const Value v = s.next();
    EXPECT_GE(v, 0);
    EXPECT_LE(v, 100);
  }
}

TEST(RandomWalk, StepWiderThanIntervalStaysInBounds) {
  // max_step > hi - lo: one reflection can overshoot the far bound, and
  // the clamps after each reflection must keep every value in range —
  // identically on the whole-set bank path and the per-id path.
  StreamSpec spec;
  spec.family = StreamFamily::kRandomWalk;
  spec.enforce_distinct = false;
  spec.walk.lo = 0;
  spec.walk.hi = 3;
  spec.walk.max_step = 10;
  constexpr std::size_t kN = 4;
  auto bank = make_stream_set(spec, kN, 11);
  auto per_id = make_stream_set(spec, kN, 11);
  std::vector<Value> out(kN);
  for (int i = 0; i < 10'000; ++i) {
    bank.advance_all(out);
    for (NodeId id = 0; id < kN; ++id) {
      ASSERT_GE(out[id], 0) << "step " << i;
      ASSERT_LE(out[id], 3) << "step " << i;
      ASSERT_EQ(out[id], per_id.advance(id)) << "step " << i;
    }
  }
}

TEST(RandomWalk, StepBounded) {
  RandomWalkParams p;
  p.start = 500'000;
  p.max_step = 7;
  RandomWalkStream s(p, Rng(5));
  Value prev = s.next();
  for (int i = 0; i < 5'000; ++i) {
    const Value v = s.next();
    // Away from the boundaries a step is at most max_step; reflection can
    // at most double it.
    EXPECT_LE(std::llabs(v - prev), 2 * p.max_step);
    prev = v;
  }
}

TEST(RandomWalk, ZeroStepIsConstant) {
  RandomWalkParams p;
  p.start = 123;
  p.max_step = 0;
  RandomWalkStream s(p, Rng(7));
  for (int i = 0; i < 100; ++i) EXPECT_EQ(s.next(), 123);
}

TEST(RandomWalk, DegenerateIntervalPins) {
  RandomWalkParams p;
  p.start = 5;
  p.lo = 5;
  p.hi = 5;
  p.max_step = 100;
  RandomWalkStream s(p, Rng(9));
  for (int i = 0; i < 100; ++i) EXPECT_EQ(s.next(), 5);
}

TEST(RandomWalk, StartClampedIntoBounds) {
  RandomWalkParams p;
  p.start = 10'000;
  p.lo = 0;
  p.hi = 100;
  p.max_step = 1;
  RandomWalkStream s(p, Rng(11));
  EXPECT_LE(s.next(), 101);  // first step from a clamped start
}

TEST(RandomWalk, DeterministicPerSeed) {
  RandomWalkParams p;
  RandomWalkStream a(p, Rng(13));
  RandomWalkStream b(p, Rng(13));
  for (int i = 0; i < 200; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(RandomWalk, ActuallyMoves) {
  RandomWalkParams p;
  p.start = 1'000;
  p.max_step = 10;
  RandomWalkStream s(p, Rng(17));
  bool moved = false;
  const Value first = s.next();
  for (int i = 0; i < 50 && !moved; ++i) moved = (s.next() != first);
  EXPECT_TRUE(moved);
}

}  // namespace
}  // namespace topkmon
