// The sparse activity-gated wrapper family: spec-string parsing, the
// exact-fraction activity schedule, golden determinism of the wrapped
// values, and the factory's SparseBank against the per-node SparseStream
// reference (make_stream + distinct_value). Node id draws at advance 0
// and then whenever id % period == (period - c % period) % period, so
// the bank's activity pass (advance_all_active) visits only that stride;
// the grid checks its values, its changed list and advance_all_masked's
// bits for every inner family, and the mixed-mode tests pin which call
// orders continue exactly and which throw.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
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

/// A sparse spec over `inner`, with or without distinctness.
StreamSpec sparse_spec(StreamFamily inner, double rate, bool distinct) {
  StreamSpec spec;
  spec.family = StreamFamily::kSparse;
  spec.sparse.rate = rate;
  spec.sparse_inner = inner;
  spec.enforce_distinct = distinct;
  return spec;
}

/// The per-node reference: node id's bare make_stream wrapper plus the
/// distinctness transform.
std::vector<Value> reference_step(std::vector<std::unique_ptr<Stream>>& nodes,
                                  bool distinct) {
  std::vector<Value> out;
  const auto n = static_cast<Value>(nodes.size());
  for (NodeId id = 0; id < nodes.size(); ++id) {
    const Value v = nodes[id]->next();
    out.push_back(distinct ? distinct_value(v, id, n) : v);
  }
  return out;
}

TEST(SparseStream, ActiveAdvanceMatchesBatchedAdvance) {
  // The SparseBank's strided activity pass against the per-node
  // reference, for every inner family with and without distinctness, at
  // rates 1, 0.3 and 0.01 (periods 1, 3 and 100) and n = 1, 17 and 250
  // (below the period, and not a multiple of it), over at least two
  // periods: advance_all_active's values and its exact changed list
  // (ascending ids), and advance_all_masked's values and bits.
  for (const StreamFamily inner : all_families()) {
    if (inner == StreamFamily::kSparse) continue;
    for (const bool distinct : {false, true}) {
      for (const double rate : {1.0, 0.3, 0.01}) {
        for (const std::size_t n :
             {std::size_t{1}, std::size_t{17}, std::size_t{250}}) {
          const StreamSpec spec = sparse_spec(inner, rate, distinct);
          const std::uint64_t period = SparseStream::period_for(rate);
          const std::size_t steps = 2 * period + 7;
          std::vector<std::unique_ptr<Stream>> ref;
          for (NodeId id = 0; id < n; ++id) {
            ref.push_back(make_stream(spec, id, n, 31));
          }
          auto active = make_stream_set(spec, n, 31);
          auto masked = make_stream_set(spec, n, 31);
          ASSERT_TRUE(active.quiet_capable());
          std::vector<Value> got(n, 0), masked_values(n, 0), prev(n, 0);
          IdBitset mask(n);
          std::vector<NodeId> changed;
          for (std::size_t t = 0; t < steps; ++t) {
            const std::vector<Value> want = reference_step(ref, distinct);
            std::vector<NodeId> expect_changed;
            for (NodeId id = 0; id < n; ++id) {
              if (want[id] != prev[id]) expect_changed.push_back(id);
            }
            active.advance_all_active(got, changed);
            masked.advance_all_masked(masked_values, mask);
            const auto where = [&] {
              return std::string(family_name(inner)) +
                     " distinct=" + std::to_string(distinct) +
                     " rate=" + std::to_string(rate) +
                     " n=" + std::to_string(n) + " t=" + std::to_string(t);
            };
            ASSERT_EQ(got, want) << where();
            ASSERT_EQ(changed, expect_changed) << where();
            ASSERT_EQ(masked_values, want) << where();
            std::vector<NodeId> mask_ids;
            for (NodeId id = 0; id < n; ++id) {
              if (mask.test(id)) mask_ids.push_back(id);
            }
            ASSERT_EQ(mask_ids, expect_changed) << where();
            if (n % 64 != 0) {
              ASSERT_EQ(mask.words().back() >> (n % 64), 0u) << where();
            }
            prev = want;
          }
        }
      }
    }
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

TEST(SparseStream, MixedModeBeforeActive) {
  // Whole-set advances share the activity pass's advance counter, so the
  // pass continues them exactly. A per-id advance gives the nodes counts
  // of their own; the pass then throws before any stream advances, and
  // per-id and whole-set advances stay exact.
  constexpr std::size_t kN = 10;
  const StreamSpec spec = sparse_spec(StreamFamily::kRandomWalk, 0.25, true);
  std::vector<std::unique_ptr<Stream>> ref;
  for (NodeId id = 0; id < kN; ++id) ref.push_back(make_stream(spec, id, kN, 5));

  auto whole_set = make_stream_set(spec, kN, 5);
  std::vector<Value> values(kN);
  for (std::size_t t = 0; t < 6; ++t) {
    whole_set.advance_all(values);
    ASSERT_EQ(values, reference_step(ref, true)) << "t=" << t;
  }
  std::vector<NodeId> changed;
  for (std::size_t t = 6; t < 30; ++t) {
    const std::vector<Value> prev = values;
    whole_set.advance_all_active(values, changed);
    const std::vector<Value> want = reference_step(ref, true);
    ASSERT_EQ(values, want) << "t=" << t;
    std::vector<NodeId> expect_changed;
    for (NodeId id = 0; id < kN; ++id) {
      if (want[id] != prev[id]) expect_changed.push_back(id);
    }
    ASSERT_EQ(changed, expect_changed) << "t=" << t;
  }

  ref.clear();
  for (NodeId id = 0; id < kN; ++id) ref.push_back(make_stream(spec, id, kN, 5));
  auto per_id = make_stream_set(spec, kN, 5);
  per_id.advance_all(values);
  ASSERT_EQ(values, reference_step(ref, true));
  const auto ref_next = [&](NodeId id) {
    return distinct_value(ref[id]->next(), id, static_cast<Value>(kN));
  };
  for (const NodeId id : {NodeId{3}, NodeId{3}, NodeId{7}}) {
    ASSERT_EQ(per_id.advance(id), ref_next(id)) << "node " << id;
  }
  const std::vector<Value> before = values;
  EXPECT_THROW(per_id.advance_all_active(values, changed), std::logic_error);
  EXPECT_EQ(values, before);
  for (std::size_t t = 0; t < 12; ++t) {
    per_id.advance_all(values);
    for (NodeId id = 0; id < kN; ++id) {
      ASSERT_EQ(values[id], ref_next(id)) << "t=" << t << " node=" << id;
    }
  }
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
