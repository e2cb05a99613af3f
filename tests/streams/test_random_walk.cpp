// Unit + property tests for the reflected random-walk stream.
#include "streams/random_walk.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
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
