// The sparse activity-gated wrapper family: spec-string parsing, the
// exact-fraction activity schedule, golden determinism of the wrapped
// values, quiet-run certification (advance_all_active ≡ advance_all),
// and the mixed-mode guard.
#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "streams/factory.hpp"
#include "streams/sparse.hpp"

namespace topkmon {
namespace {

TEST(SparseSpec, ParseRoundTripAndErrors) {
  const StreamSpec spec =
      parse_stream_spec("sparse?rate=0.05,inner=iid_uniform");
  EXPECT_EQ(spec.family, StreamFamily::kSparse);
  EXPECT_DOUBLE_EQ(spec.sparse.rate, 0.05);
  EXPECT_EQ(spec.sparse_inner, StreamFamily::kIidUniform);

  // Patching an existing spec keeps unrelated fields.
  StreamSpec base;
  base.walk.max_step = 123;
  const StreamSpec patched = parse_stream_spec("sparse?rate=0.5", base);
  EXPECT_EQ(patched.walk.max_step, 123);
  EXPECT_DOUBLE_EQ(patched.sparse.rate, 0.5);
  EXPECT_EQ(patched.sparse_inner, StreamFamily::kRandomWalk);

  // Bare names still parse (legacy behavior).
  EXPECT_EQ(parse_stream_spec("zipf").family, StreamFamily::kZipf);

  EXPECT_THROW(parse_stream_spec("sparse?rate=0"), std::invalid_argument);
  EXPECT_THROW(parse_stream_spec("sparse?rate=1.5"), std::invalid_argument);
  EXPECT_THROW(parse_stream_spec("sparse?rate=nan"), std::invalid_argument);
  EXPECT_THROW(parse_stream_spec("sparse?inner=sparse"),
               std::invalid_argument);
  EXPECT_THROW(parse_stream_spec("sparse?warp=1"), std::invalid_argument);
  EXPECT_THROW(parse_stream_spec("random_walk?rate=0.1"),
               std::invalid_argument);
  EXPECT_THROW(parse_stream_spec("no_such_family"), std::invalid_argument);
}

TEST(SparseStream, PeriodForRate) {
  EXPECT_EQ(SparseStream::period_for(1.0), 1u);
  EXPECT_EQ(SparseStream::period_for(0.5), 2u);
  EXPECT_EQ(SparseStream::period_for(0.01), 100u);
  EXPECT_THROW(SparseStream::period_for(0.0), std::invalid_argument);
  EXPECT_THROW(SparseStream::period_for(-1.0), std::invalid_argument);
  EXPECT_THROW(SparseStream::period_for(2.0), std::invalid_argument);
  // 1/rate must round to a std::int64_t: std::llround is unspecified past
  // INT64_MAX, where both rates below once yielded 2^63.
  EXPECT_THROW(SparseStream::period_for(1e-19), std::invalid_argument);
  EXPECT_THROW(SparseStream::period_for(1e-300), std::invalid_argument);
  EXPECT_EQ(SparseStream::period_for(0x1p-62), std::uint64_t{1} << 62);
  EXPECT_THROW(parse_stream_spec("sparse?rate=1e-300"), std::invalid_argument);
}

TEST(SparseStream, ExactFractionOfNodesChangesPerStep) {
  // rate 0.1 over 40 nodes: after the initial draw, exactly 4 nodes are
  // active per step (phases striped id % 10). The iid inner stream makes
  // every draw a fresh value with probability ~1, so "active" is
  // observable as "changed".
  constexpr std::size_t kN = 40;
  constexpr std::size_t kSteps = 50;
  StreamSpec spec;
  spec.family = StreamFamily::kSparse;
  spec.sparse.rate = 0.1;
  spec.sparse_inner = StreamFamily::kIidUniform;
  auto set = make_stream_set(spec, kN, 11);

  std::vector<Value> prev(kN);
  for (NodeId id = 0; id < kN; ++id) prev[id] = set.advance(id);
  for (std::size_t t = 1; t < kSteps; ++t) {
    std::size_t changed = 0;
    for (NodeId id = 0; id < kN; ++id) {
      const Value v = set.advance(id);
      if (v != prev[id]) ++changed;
      prev[id] = v;
    }
    EXPECT_EQ(changed, 4u) << "step " << t;
  }
}

TEST(SparseStream, QuietNodesRepeatExactly) {
  StreamSpec spec;
  spec.family = StreamFamily::kSparse;
  spec.sparse.rate = 0.25;  // period 4
  spec.sparse_inner = StreamFamily::kRandomWalk;
  auto set = make_stream_set(spec, 3, 9);
  std::vector<std::vector<Value>> history(3);
  for (std::size_t t = 0; t < 40; ++t) {
    for (NodeId id = 0; id < 3; ++id) history[id].push_back(set.advance(id));
  }
  for (NodeId id = 0; id < 3; ++id) {
    std::set<std::size_t> change_steps;
    for (std::size_t t = 1; t < history[id].size(); ++t) {
      if (history[id][t] != history[id][t - 1]) change_steps.insert(t);
    }
    // Changes only on the node's activity steps: multiples of 4 shifted
    // by its phase (id % 4 here), never anywhere else.
    for (const std::size_t t : change_steps) {
      EXPECT_EQ((t + id % 4) % 4, 0u) << "node " << id << " step " << t;
    }
    // A random walk with default params moves nearly every draw: expect
    // close to the maximal 9-10 activity steps in 40.
    EXPECT_GE(change_steps.size(), 7u) << "node " << id;
  }
}

TEST(SparseStream, ActiveAdvanceMatchesBatchedAdvance) {
  // advance_all_active must produce exactly the values of the batched
  // path, and its changed list exactly the value-diff set.
  constexpr std::size_t kN = 17;
  constexpr std::size_t kSteps = 200;
  StreamSpec spec;
  spec.family = StreamFamily::kSparse;
  spec.sparse.rate = 0.3;
  spec.sparse_inner = StreamFamily::kRandomWalk;

  auto batched = make_stream_set(spec, kN, 31);
  auto active = make_stream_set(spec, kN, 31);
  ASSERT_TRUE(active.quiet_capable());

  std::vector<Value> want(kN);
  std::vector<Value> got(kN, 0);
  std::vector<Value> prev(kN, 0);
  std::vector<NodeId> changed;
  for (std::size_t t = 0; t < kSteps; ++t) {
    batched.advance_all(want);
    active.advance_all_active(got, changed);
    EXPECT_EQ(got, want) << "step " << t;
    std::set<NodeId> expect_changed;
    for (NodeId id = 0; id < kN; ++id) {
      if (want[id] != prev[id]) expect_changed.insert(id);
    }
    EXPECT_EQ(std::set<NodeId>(changed.begin(), changed.end()),
              expect_changed)
        << "step " << t;
    prev = want;
  }
}

TEST(SparseStream, QuietCapability) {
  StreamSpec sparse;
  sparse.family = StreamFamily::kSparse;
  EXPECT_TRUE(make_stream_set(sparse, 4, 1).quiet_capable());
  StreamSpec walk;
  walk.family = StreamFamily::kRandomWalk;
  EXPECT_FALSE(make_stream_set(walk, 4, 1).quiet_capable());
}

TEST(SparseStream, MixedModeAfterActiveThrows) {
  StreamSpec spec;
  spec.family = StreamFamily::kSparse;
  auto set = make_stream_set(spec, 4, 1);
  std::vector<Value> values(4, 0);
  std::vector<NodeId> changed;
  set.advance_all_active(values, changed);
  EXPECT_THROW(set.advance(0), std::logic_error);
  EXPECT_THROW(set.advance_all(values), std::logic_error);
}

TEST(SparseStream, GoldenDeterminismAcrossConstructions) {
  StreamSpec spec;
  spec.family = StreamFamily::kSparse;
  spec.sparse.rate = 0.2;
  spec.sparse_inner = StreamFamily::kZipf;
  auto a = make_stream_set(spec, 6, 123);
  auto b = make_stream_set(spec, 6, 123);
  auto c = make_stream_set(spec, 6, 124);
  bool diverged = false;
  for (std::size_t t = 0; t < 60; ++t) {
    for (NodeId id = 0; id < 6; ++id) {
      const Value va = a.advance(id);
      EXPECT_EQ(va, b.advance(id));
      if (va != c.advance(id)) diverged = true;
    }
  }
  EXPECT_TRUE(diverged);  // a different seed must change the sequence
}

}  // namespace
}  // namespace topkmon
