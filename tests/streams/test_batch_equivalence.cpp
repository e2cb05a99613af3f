// The step-major stream bank must be a pure layout choice: a StreamSet's
// advance_all and per-id advance produce exactly the values of the bare
// per-node streams (make_stream), mapped through distinct_value when the
// spec asks for distinctness — for every family, at any n, in any mix of
// whole-set and per-id calls. Finite replay traces keep their exact
// end-of-trace behavior, and the span/id contracts are enforced.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "streams/factory.hpp"
#include "streams/trace.hpp"

namespace topkmon {
namespace {

constexpr std::size_t kN = 9;
constexpr std::size_t kSteps = 300;
constexpr std::uint64_t kSeed = 321;

StreamSpec spec_for(StreamFamily family, bool distinct) {
  StreamSpec spec;
  spec.family = family;
  spec.enforce_distinct = distinct;
  return spec;
}

/// The reference: node id's bare stream plus the distinctness transform.
class Reference {
 public:
  Reference(const StreamSpec& spec, std::size_t n, std::uint64_t seed)
      : distinct_(spec.enforce_distinct), n_(static_cast<Value>(n)) {
    for (NodeId id = 0; id < n; ++id) {
      streams_.push_back(make_stream(spec, id, n, seed));
    }
  }

  Value next(NodeId id) {
    const Value v = streams_[id]->next();
    return distinct_ ? distinct_value(v, id, n_) : v;
  }

 private:
  std::vector<std::unique_ptr<Stream>> streams_;
  bool distinct_;
  Value n_;
};

TEST(BatchEquivalence, AdvanceAllMatchesScalarAdvancePerFamily) {
  for (const StreamFamily family : all_families()) {
    for (const bool distinct : {false, true}) {
      for (const std::size_t n : {std::size_t{1}, kN, std::size_t{65}}) {
        const StreamSpec spec = spec_for(family, distinct);
        Reference ref(spec, n, kSeed);
        auto set = make_stream_set(spec, n, kSeed);
        std::vector<Value> got(n);
        for (std::size_t t = 0; t < kSteps; ++t) {
          const bool per_id = t % 3 == 0;
          if (!per_id) set.advance_all(got);
          for (NodeId id = 0; id < n; ++id) {
            const Value v = per_id ? set.advance(id) : got[id];
            ASSERT_EQ(v, ref.next(id))
                << family_name(family) << " distinct=" << distinct
                << " n=" << n << " t=" << t << " node=" << id;
          }
        }
      }
    }
  }
}

TEST(BatchEquivalence, AdvanceAllMaskedMarksExactlyTheMovers) {
  // Every bank's masked advance writes advance_all's values in place and
  // sets exactly the bits of the nodes whose value moved: the walk bank's
  // vector pass and every other bank's compare fallback alike.
  for (const StreamFamily family : all_families()) {
    for (const bool distinct : {false, true}) {
      for (const std::size_t n : {std::size_t{1}, kN, std::size_t{130}}) {
        const StreamSpec spec = spec_for(family, distinct);
        auto masked = make_stream_set(spec, n, kSeed);
        auto plain = make_stream_set(spec, n, kSeed);
        std::vector<Value> values(n, 0), previous(n), want(n);
        IdBitset mask(n);
        for (std::size_t t = 0; t < kSteps; ++t) {
          previous = values;
          masked.advance_all_masked(values, mask);
          plain.advance_all(want);
          ASSERT_EQ(values, want) << family_name(family) << " t=" << t;
          for (NodeId id = 0; id < n; ++id) {
            ASSERT_EQ(mask.test(id), values[id] != previous[id])
                << family_name(family) << " distinct=" << distinct
                << " n=" << n << " t=" << t << " node=" << id;
          }
          if (n % 64 != 0) {
            ASSERT_EQ(mask.words().back() >> (n % 64), 0u)
                << family_name(family) << " t=" << t;
          }
        }
      }
    }
  }
}

TEST(BatchEquivalence, AdvanceAllMaskedChecksSizes) {
  auto set = make_stream_set(spec_for(StreamFamily::kIidUniform, false), kN,
                             kSeed);
  std::vector<Value> values(kN);
  std::vector<Value> short_values(kN - 1);
  IdBitset mask(kN);
  IdBitset short_mask(kN - 1);
  EXPECT_THROW(set.advance_all_masked(short_values, mask),
               std::invalid_argument);
  EXPECT_THROW(set.advance_all_masked(values, short_mask),
               std::invalid_argument);
}

TEST(BatchEquivalence, MixedAdvanceAndAdvanceAllStayConsistent) {
  // Nodes are independent: per-id advances in reverse id order, between
  // whole-set steps, still track the reference stream by stream.
  const StreamSpec spec = spec_for(StreamFamily::kRandomWalk, true);
  Reference ref(spec, kN, kSeed);
  auto mixed = make_stream_set(spec, kN, kSeed);
  std::vector<Value> got(kN);
  for (std::size_t t = 0; t < kSteps; ++t) {
    if (t % 3 == 0) {
      std::vector<Value> want(kN);
      for (NodeId id = kN; id-- > 0;) got[id] = mixed.advance(id);
      for (NodeId id = 0; id < kN; ++id) want[id] = ref.next(id);
      ASSERT_EQ(got, want) << "t=" << t;
    } else {
      mixed.advance_all(got);
      for (NodeId id = 0; id < kN; ++id) {
        ASSERT_EQ(got[id], ref.next(id)) << "t=" << t;
      }
    }
  }
}

TEST(BatchEquivalence, AdvancingPastThePlanStillWorks) {
  // plan_steps is a documented no-op: a "plan" shorter than the run
  // changes nothing.
  auto scalar = make_stream_set(spec_for(StreamFamily::kZipf, false), kN,
                                kSeed);
  auto planned = make_stream_set(spec_for(StreamFamily::kZipf, false), kN,
                                 kSeed);
  planned.plan_steps(10);
  std::vector<Value> got(kN);
  for (std::size_t t = 0; t < 50; ++t) {
    planned.advance_all(got);
    for (NodeId id = 0; id < kN; ++id) {
      ASSERT_EQ(got[id], scalar.advance(id)) << "t=" << t;
    }
  }
}

TEST(BatchEquivalence, TraceStreamBatchHonorsEndBehavior) {
  const std::vector<Value> vals = {5, 6, 7};
  const auto replay = [&](TraceEnd end, std::size_t steps) {
    std::vector<std::unique_ptr<Stream>> one;
    one.push_back(std::make_unique<TraceStream>(vals, end));
    StreamSet set(std::move(one));
    std::vector<Value> out;
    std::vector<Value> step(1);
    for (std::size_t t = 0; t < steps; ++t) {
      set.advance_all(step);
      out.push_back(step[0]);
    }
    return out;
  };
  EXPECT_EQ(replay(TraceEnd::kHoldLast, 7),
            (std::vector<Value>{5, 6, 7, 7, 7, 7, 7}));
  EXPECT_EQ(replay(TraceEnd::kCycle, 7),
            (std::vector<Value>{5, 6, 7, 5, 6, 7, 5}));
  EXPECT_EQ(replay(TraceEnd::kThrow, 3), vals);
  EXPECT_THROW(replay(TraceEnd::kThrow, 4), std::out_of_range);
}

TEST(BatchEquivalence, PlanLongerThanStrictTraceThrowsAtTheExactStep) {
  // A strict trace delivers every recorded value and throws at the first
  // advance past its end — whole-set or per-id — never earlier, because
  // nothing is generated ahead of demand.
  TraceMatrix trace(2, 5);
  Value v = 0;
  for (std::size_t t = 0; t < 5; ++t) {
    for (NodeId i = 0; i < 2; ++i) trace.at(t, i) = ++v;
  }
  auto set = trace.to_stream_set(TraceEnd::kThrow);
  auto per_id = trace.to_stream_set(TraceEnd::kThrow);
  set.plan_steps(100);  // no-op: a horizon past the end changes nothing
  std::vector<Value> got(2);
  for (std::size_t t = 0; t < 5; ++t) {
    set.advance_all(got);
    EXPECT_EQ(got[0], static_cast<Value>(2 * t + 1)) << "t=" << t;
    EXPECT_EQ(got[1], static_cast<Value>(2 * t + 2)) << "t=" << t;
    EXPECT_EQ(per_id.advance(0), got[0]) << "t=" << t;
  }
  EXPECT_THROW(set.advance_all(got), std::out_of_range);
  EXPECT_THROW(per_id.advance(0), std::out_of_range);
  // The throw is per stream: node 1 of the per-id set, never advanced,
  // still replays from its first value.
  EXPECT_EQ(per_id.advance(1), 2);
}

TEST(BatchEquivalence, PlannedTraceMatrixReplayIsExact) {
  TraceMatrix trace(3, 20);
  Value v = 0;
  for (std::size_t t = 0; t < 20; ++t) {
    for (NodeId i = 0; i < 3; ++i) trace.at(t, i) = ++v;
  }
  auto scalar = trace.to_stream_set(TraceEnd::kThrow);
  auto planned = trace.to_stream_set(TraceEnd::kThrow);
  planned.plan_steps(20);
  std::vector<Value> got(3);
  for (std::size_t t = 0; t < 20; ++t) {
    planned.advance_all(got);
    for (NodeId i = 0; i < 3; ++i) {
      ASSERT_EQ(got[i], scalar.advance(i)) << "t=" << t;
    }
  }
}

TEST(BatchEquivalence, SizeMismatchAndBadIdThrow) {
  auto set = make_stream_set(spec_for(StreamFamily::kRandomWalk, true), kN,
                             kSeed);
  std::vector<Value> short_span(kN - 1);
  std::vector<Value> long_span(kN + 1);
  EXPECT_THROW(set.advance_all(short_span), std::invalid_argument);
  EXPECT_THROW(set.advance_all(long_span), std::invalid_argument);
  EXPECT_THROW(set.advance(static_cast<NodeId>(kN)), std::out_of_range);
  EXPECT_THROW(make_stream(StreamSpec{}, static_cast<NodeId>(kN), kN, kSeed),
               std::invalid_argument);

  // The rejected calls consumed nothing: the set still matches a fresh one.
  auto fresh = make_stream_set(spec_for(StreamFamily::kRandomWalk, true), kN,
                               kSeed);
  std::vector<Value> got(kN);
  std::vector<Value> want(kN);
  set.advance_all(got);
  fresh.advance_all(want);
  EXPECT_EQ(got, want);

  StreamSpec sparse;
  sparse.family = StreamFamily::kSparse;
  auto active = make_stream_set(sparse, kN, kSeed);
  std::vector<NodeId> changed;
  EXPECT_THROW(active.advance_all_active(short_span, changed),
               std::invalid_argument);
}

TEST(BatchEquivalence, ActiveAdvanceNeedsAnActivitySchedule) {
  // Sets without an activity schedule refuse advance_all_active before
  // any stream advances: the values stay untouched and the set still
  // matches a fresh one.
  for (const StreamFamily family :
       {StreamFamily::kRandomWalk, StreamFamily::kIidUniform}) {
    auto set = make_stream_set(spec_for(family, true), kN, kSeed);
    ASSERT_FALSE(set.quiet_capable());
    std::vector<Value> values(kN, 7);
    std::vector<NodeId> changed;
    EXPECT_THROW(set.advance_all_active(values, changed), std::logic_error);
    EXPECT_EQ(values, std::vector<Value>(kN, 7)) << family_name(family);
    auto fresh = make_stream_set(spec_for(family, true), kN, kSeed);
    std::vector<Value> got(kN), want(kN);
    for (std::size_t t = 0; t < 3; ++t) {
      set.advance_all(got);
      fresh.advance_all(want);
      ASSERT_EQ(got, want) << family_name(family) << " t=" << t;
    }
  }
}

TEST(BatchEquivalence, ActiveExclusivityStillFires) {
  // Once advance_all_active has taken over a set, per-id and whole-set
  // advances are refused: the activity pass trusts its `values` to hold
  // the previous observations, so the set is driven one way.
  StreamSpec spec;
  spec.family = StreamFamily::kSparse;
  spec.sparse.rate = 0.25;
  auto set = make_stream_set(spec, kN, kSeed);
  std::vector<Value> values(kN, 0);
  std::vector<NodeId> changed;
  set.advance_all_active(values, changed);
  EXPECT_EQ(changed.size(), kN);  // the initial draw changes every node
  EXPECT_THROW(set.advance(0), std::logic_error);
  EXPECT_THROW(set.advance_all(values), std::logic_error);
  set.advance_all_active(values, changed);  // the activity pass keeps working
}

}  // namespace
}  // namespace topkmon
