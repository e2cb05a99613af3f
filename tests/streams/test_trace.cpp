// Tests for replay streams and the trace matrix.
#include "streams/trace.hpp"

#include <gtest/gtest.h>

namespace topkmon {
namespace {

TEST(TraceStream, RejectsEmpty) {
  EXPECT_THROW(TraceStream({}), std::invalid_argument);
}

TEST(TraceStream, ReplaysInOrder) {
  TraceStream s({1, 2, 3});
  EXPECT_EQ(s.next(), 1);
  EXPECT_EQ(s.next(), 2);
  EXPECT_EQ(s.next(), 3);
  EXPECT_EQ(s.length(), 3u);
}

TEST(TraceStream, HoldLastAfterEnd) {
  TraceStream s({5, 9}, TraceEnd::kHoldLast);
  (void)s.next();
  (void)s.next();
  EXPECT_EQ(s.next(), 9);
  EXPECT_EQ(s.next(), 9);
}

TEST(TraceStream, CyclesAfterEnd) {
  TraceStream s({1, 2}, TraceEnd::kCycle);
  EXPECT_EQ(s.next(), 1);
  EXPECT_EQ(s.next(), 2);
  EXPECT_EQ(s.next(), 1);
  EXPECT_EQ(s.next(), 2);
}

TEST(TraceStream, ThrowsAfterEnd) {
  TraceStream s({7}, TraceEnd::kThrow);
  EXPECT_EQ(s.next(), 7);
  EXPECT_THROW(s.next(), std::out_of_range);
}

TEST(TraceMatrix, Dimensions) {
  TraceMatrix m(3, 5);
  EXPECT_EQ(m.nodes(), 3u);
  EXPECT_EQ(m.steps(), 5u);
}

TEST(TraceMatrix, CellAccess) {
  TraceMatrix m(2, 2);
  m.at(0, 0) = 10;
  m.at(1, 1) = -4;
  EXPECT_EQ(m.at(0, 0), 10);
  EXPECT_EQ(m.at(0, 1), 0);
  EXPECT_EQ(m.at(1, 1), -4);
  // One past each dimension, read off the matrix's own extents.
  EXPECT_THROW(m.at(m.steps(), 0), std::out_of_range);
  EXPECT_THROW(m.at(0, static_cast<NodeId>(m.nodes())), std::out_of_range);
}

TEST(TraceMatrix, ToStreamSetReplaysColumns) {
  TraceMatrix m(2, 3);
  // node 0: 1, 2, 3; node 1: 10, 20, 30
  for (std::size_t t = 0; t < 3; ++t) {
    m.at(t, 0) = static_cast<Value>(t + 1);
    m.at(t, 1) = static_cast<Value>(10 * (t + 1));
  }
  auto set = m.to_stream_set();
  EXPECT_EQ(set.size(), 2u);
  EXPECT_EQ(set.advance(0), 1);
  EXPECT_EQ(set.advance(1), 10);
  EXPECT_EQ(set.advance(0), 2);
  EXPECT_EQ(set.advance(1), 20);
  EXPECT_EQ(set.advance(0), 3);
  EXPECT_EQ(set.advance(1), 30);
  EXPECT_EQ(set.advance(0), 3);  // hold-last default
}

TEST(DistinctStream, PreservesOrderBreaksTies) {
  // Two nodes observing the same raw trace; transformed values must be
  // distinct, ordered toward the smaller id on ties, and order-preserving
  // on raw differences.
  auto raw0 = std::make_unique<TraceStream>(std::vector<Value>{5, 7});
  auto raw1 = std::make_unique<TraceStream>(std::vector<Value>{5, 6});
  DistinctStream d0(std::move(raw0), 0, 2);
  DistinctStream d1(std::move(raw1), 1, 2);
  const Value a0 = d0.next();
  const Value a1 = d1.next();
  EXPECT_NE(a0, a1);
  EXPECT_GT(a0, a1);  // tie at raw 5 -> smaller id wins
  const Value b0 = d0.next();
  const Value b1 = d1.next();
  EXPECT_GT(b0, b1);  // raw 7 > raw 6 preserved
}

}  // namespace
}  // namespace topkmon
