// GroundTruthTracker must be observationally identical to the batch
// helpers (true_topk_set / true_topk_ordered / is_valid_topk) at every
// step of any trajectory — that equivalence is what lets the runners
// validate through it without changing a single experiment byte.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>
#include <vector>

#include "core/ground_truth.hpp"
#include "core/ground_truth_tracker.hpp"
#include "streams/factory.hpp"
#include "util/rng.hpp"

namespace topkmon {
namespace {

/// A candidate near the true answer: the true set with one member swapped
/// for a random outsider (sorted, as monitors emit). Exercises both
/// accept-and-reject paths of the weak check.
std::vector<NodeId> perturbed_candidate(const std::vector<NodeId>& truth,
                                        std::size_t n, Rng& rng) {
  std::vector<NodeId> cand = truth;
  const auto victim =
      static_cast<std::size_t>(rng.uniform_below(cand.size()));
  for (int tries = 0; tries < 16; ++tries) {
    const auto outsider = static_cast<NodeId>(rng.uniform_below(n));
    bool member = false;
    for (const NodeId id : truth) member = member || id == outsider;
    if (!member) {
      cand[victim] = outsider;
      break;
    }
  }
  std::sort(cand.begin(), cand.end());
  return cand;
}

void expect_equivalent(GroundTruthTracker& tracker,
                       const std::vector<Value>& values, std::size_t k,
                       Rng& rng, const char* context) {
  const auto expected_set = true_topk_set(values, k);
  const auto expected_ordered = true_topk_ordered(values, k);
  ASSERT_EQ(tracker.topk_set(), expected_set) << context;
  ASSERT_EQ(tracker.ordered_topk(), expected_ordered) << context;

  // Weak check agreement on: the truth, a perturbation, and garbage.
  ASSERT_TRUE(tracker.is_valid(expected_set)) << context;
  const auto cand = perturbed_candidate(expected_set, values.size(), rng);
  ASSERT_EQ(tracker.is_valid(cand), is_valid_topk(values, cand)) << context;
  const std::vector<NodeId> dup(k, expected_set.front());
  if (k > 1) {
    ASSERT_FALSE(tracker.is_valid(dup)) << context;
  }
  const std::vector<NodeId> bad = {static_cast<NodeId>(values.size())};
  ASSERT_FALSE(tracker.is_valid(bad)) << context;

  // Strict check agreement.
  ASSERT_TRUE(tracker.matches_strict(expected_set)) << context;
  if (cand != expected_set) {
    ASSERT_FALSE(tracker.matches_strict(cand)) << context;
  }
}

TEST(GroundTruthTracker, MatchesBatchOverAllStreamFamilies) {
  constexpr std::size_t kN = 24;
  constexpr std::size_t kSteps = 200;
  for (const StreamFamily family : all_families()) {
    for (const std::size_t k : {std::size_t{1}, std::size_t{5}, kN}) {
      StreamSpec spec;
      spec.family = family;
      auto streams = make_stream_set(spec, kN, 1234);
      GroundTruthTracker tracker(kN, k);
      Rng rng(99);
      std::vector<Value> values(kN);
      for (std::size_t t = 0; t < kSteps; ++t) {
        for (NodeId id = 0; id < kN; ++id) {
          values[id] = streams.advance(id);
          tracker.set_value(id, values[id]);
        }
        expect_equivalent(tracker, values, k, rng,
                          family_name(family).data());
      }
    }
  }
}

TEST(GroundTruthTracker, SparseUpdatesStayExact) {
  constexpr std::size_t kN = 64;
  constexpr std::size_t kK = 8;
  Rng rng(7);
  std::vector<Value> values(kN);
  GroundTruthTracker tracker(kN, kK);
  for (NodeId id = 0; id < kN; ++id) {
    values[id] = rng.uniform_int(0, 1'000'000);
    tracker.set_value(id, values[id]);
  }
  Rng cand_rng(8);
  for (int round = 0; round < 2'000; ++round) {
    // Change a single node per round — the O(changed nodes) regime.
    const auto id = static_cast<NodeId>(rng.uniform_below(kN));
    values[id] = rng.uniform_int(0, 1'000'000);
    tracker.set_value(id, values[id]);
    if (round % 7 == 0) {
      expect_equivalent(tracker, values, kK, cand_rng, "sparse");
    }
  }
  // A single-node-change workload must not rebuild on anything close to
  // every update.
  EXPECT_LT(tracker.full_rebuilds(), 2'000u);
}

TEST(GroundTruthTracker, ExactUnderBoundaryTies) {
  // Tied values across the k-boundary: the tracker must reproduce the
  // batch helpers' id tie-break exactly.
  constexpr std::size_t kN = 6;
  constexpr std::size_t kK = 3;
  GroundTruthTracker tracker(kN, kK);
  Rng rng(3);
  std::vector<Value> values(kN);
  Rng cand_rng(4);
  for (int round = 0; round < 500; ++round) {
    for (NodeId id = 0; id < kN; ++id) {
      // Tiny value domain: ties everywhere, including at the boundary.
      values[id] = rng.uniform_int(0, 3);
      tracker.set_value(id, values[id]);
    }
    expect_equivalent(tracker, values, kK, cand_rng, "ties");
  }
}

TEST(GroundTruthTracker, UnchangedValuesNeverRebuild) {
  constexpr std::size_t kN = 16;
  GroundTruthTracker tracker(kN, 4);
  for (NodeId id = 0; id < kN; ++id) {
    tracker.set_value(id, 1'000 - static_cast<Value>(id));
  }
  (void)tracker.topk_set();
  const auto rebuilds = tracker.full_rebuilds();
  for (int round = 0; round < 100; ++round) {
    for (NodeId id = 0; id < kN; ++id) {
      tracker.set_value(id, 1'000 - static_cast<Value>(id));  // same values
    }
    (void)tracker.topk_set();
  }
  EXPECT_EQ(tracker.full_rebuilds(), rebuilds);
}

TEST(GroundTruthTracker, KEqualsNIsAlwaysValid) {
  constexpr std::size_t kN = 5;
  GroundTruthTracker tracker(kN, kN);
  Rng rng(11);
  std::vector<NodeId> all(kN);
  for (NodeId id = 0; id < kN; ++id) all[id] = id;
  for (int round = 0; round < 50; ++round) {
    for (NodeId id = 0; id < kN; ++id) {
      tracker.set_value(id, rng.uniform_int(-100, 100));
    }
    EXPECT_EQ(tracker.topk_set(), all);
    EXPECT_TRUE(tracker.is_valid(all));
    EXPECT_TRUE(tracker.matches_strict(all));
  }
}

TEST(GroundTruthTracker, NonmemberIndexSurvivesBoundaryDecayStorm) {
  // Adversarial workload for the non-member max index: the best outsider
  // decays over and over, so every query repairs the boundary from the
  // index's dirty entries.
  // Equivalence to the batch helpers must hold throughout, and the
  // rescan counter must actually count the repairs.
  constexpr std::size_t kN = 48;
  constexpr std::size_t kK = 6;
  std::vector<Value> values(kN);
  GroundTruthTracker tracker(kN, kK);
  for (std::size_t i = 0; i < kN; ++i) {
    values[i] = static_cast<Value>(10'000 - static_cast<Value>(i));
    tracker.set_value(static_cast<NodeId>(i), values[i]);
  }
  Rng rng(42);
  Value floor_value = 0;
  for (int round = 0; round < 1'500; ++round) {
    // The current boundary non-member (k-th outsider by construction of
    // the batch helper) sinks below everyone.
    const auto ordered = true_topk_ordered(values, kK + 1);
    const NodeId boundary = ordered.back();
    values[boundary] = floor_value--;
    tracker.set_value(boundary, values[boundary]);
    ASSERT_EQ(tracker.topk_set(), true_topk_set(values, kK)) << round;
    // Occasionally revive a random node so full rebuilds interleave with
    // the decay-only repairs (index rebuild path).
    if (round % 97 == 0) {
      const auto id = static_cast<NodeId>(rng.uniform_below(kN));
      values[id] = rng.uniform_int(5'000, 20'000);
      tracker.set_value(id, values[id]);
      ASSERT_EQ(tracker.topk_set(), true_topk_set(values, kK)) << round;
    }
  }
  EXPECT_GT(tracker.boundary_rescans(), 100u);
  EXPECT_GT(tracker.full_rebuilds(), 0u);
}

// -- index shapes ------------------------------------------------------------
//
// The non-member max index has one level per factor of 64 in n: n <= 64
// is a single block, 65 splits into two, 4097 needs a second level and
// 300000 a third. Each shape is driven through walk, iid and tie-heavy
// trajectories that also write kMinusInf (the crash/leave path) and is
// compared against the batch helpers after every step. Every shape runs
// under both update schedules — per-id set_value and one set_values
// batch per step — at batch densities of 100%, 20% and 1%, so the bulk
// path takes its one-sweep schedule (>= n / 8 ids) and its per-id one.

enum class Trajectory { kWalk, kIid, kTies };
enum class Schedule { kPerId, kBulk };

/// One step of `traj` over `values` touching about `percent`% of the
/// nodes: all of them in id order at 100%, otherwise n * percent / 100 + 1
/// random draws (repeats possible). The touched ids, repeats included,
/// are written to `touched`. Walks move a node by at most 8, iid redraws
/// it, ties redraws it from {0..3}. All three knock ~1% of the touched
/// nodes down to kMinusInf and revive them with a fresh value later.
void advance(Trajectory traj, std::size_t percent, std::vector<Value>& values,
             std::vector<NodeId>& touched, Rng& rng) {
  const std::size_t n = values.size();
  const auto fresh = [&] {
    return traj == Trajectory::kTies
               ? rng.uniform_int(0, 3)
               : rng.uniform_int(0, 10 * static_cast<Value>(n));
  };
  const auto touch = [&](std::size_t i) {
    touched.push_back(static_cast<NodeId>(i));
    if (values[i] == kMinusInf) {
      values[i] = fresh();
    } else if (rng.uniform_below(100) == 0) {
      values[i] = kMinusInf;
    } else if (traj == Trajectory::kWalk) {
      values[i] += rng.uniform_int(-8, 8);
    } else {
      values[i] = fresh();
    }
  };
  touched.clear();
  if (percent == 100) {
    for (std::size_t i = 0; i < n; ++i) touch(i);
    return;
  }
  for (std::size_t j = 0; j < n * percent / 100 + 1; ++j) {
    touch(static_cast<std::size_t>(rng.uniform_below(n)));
  }
}

/// Drives every trajectory, k and density of shape `n` through
/// `schedule`, comparing with the batch helpers after every step.
void expect_shape_exact(std::size_t n, Schedule schedule) {
  // Enough steps for the small shapes to decay, climb and rebuild many
  // times; a handful for the large ones, whose batch checks are O(n).
  const std::size_t steps = std::clamp<std::size_t>(400'000 / n, 3, 200);
  std::vector<std::size_t> ks = {1, n / 2, n - 1, n};
  ks.erase(std::remove(ks.begin(), ks.end(), std::size_t{0}), ks.end());
  ks.erase(std::unique(ks.begin(), ks.end()), ks.end());
  std::uint64_t rescans = 0;
  std::vector<NodeId> touched;
  for (const Trajectory traj :
       {Trajectory::kWalk, Trajectory::kIid, Trajectory::kTies}) {
    for (const std::size_t percent : {100, 20, 1}) {
      for (const std::size_t k : ks) {
        SCOPED_TRACE("n=" + std::to_string(n) + " k=" + std::to_string(k) +
                     " trajectory=" + std::to_string(static_cast<int>(traj)) +
                     " percent=" + std::to_string(percent));
        Rng rng(n * 31 + k + percent);
        std::vector<Value> values(n);
        const Value hi =
            traj == Trajectory::kTies ? 3 : 10 * static_cast<Value>(n);
        for (auto& v : values) v = rng.uniform_int(0, hi);
        GroundTruthTracker tracker(n, k);
        for (NodeId id = 0; id < n; ++id) tracker.set_value(id, values[id]);
        for (std::size_t t = 0; t < steps; ++t) {
          advance(traj, percent, values, touched, rng);
          if (schedule == Schedule::kBulk) {
            tracker.set_values(touched, values);
            // A one-sweep batch recomputes the whole index.
            if (t > 0 && k < n && touched.size() >= n / 8) {
              ASSERT_EQ(tracker.dirty_index_entries(), 0u) << t;
            }
          } else {
            for (const NodeId id : touched) tracker.set_value(id, values[id]);
          }
          const Value nm_max = k < n ? nth_value(values, k + 1) : kMinusInf;
          ASSERT_EQ(tracker.topk_set(), true_topk_set(values, k)) << t;
          ASSERT_EQ(tracker.member_min_value(), nth_value(values, k)) << t;
          ASSERT_EQ(tracker.nonmember_max_value(), nm_max) << t;
        }
        rescans += tracker.boundary_rescans();
      }
    }
  }
  // The decay repair, not only full rebuilds, kept the index exact.
  if (n > 1) {
    EXPECT_GT(rescans, 0u);
  }
}

class TrackerIndexShapes : public ::testing::TestWithParam<std::size_t> {};

TEST_P(TrackerIndexShapes, MatchesBatchHelpersAtEveryStep) {
  expect_shape_exact(GetParam(), Schedule::kPerId);
}

TEST_P(TrackerIndexShapes, BulkBatchesMatchBatchHelpersAtEveryStep) {
  expect_shape_exact(GetParam(), Schedule::kBulk);
}

INSTANTIATE_TEST_SUITE_P(
    GroundTruthTracker, TrackerIndexShapes,
    ::testing::Values<std::size_t>(1, 63, 64, 65, 4095, 4097, 70'000, 300'000),
    [](const auto& info) { return 'n' + std::to_string(info.param); });

TEST(GroundTruthTracker, IndexCountsEveryBoundaryDecayRepair) {
  // A boundary-decay chain across a two-level index: each round sinks the
  // current best non-member below everyone, which must cost exactly one
  // boundary repair and no full rebuild. The values are a permutation of
  // 0..n-1 scattered over the ids, so successive boundary nodes sit in
  // different blocks.
  constexpr std::size_t kN = 70'000;
  constexpr std::size_t kK = 8;
  std::vector<Value> values(kN);
  GroundTruthTracker tracker(kN, kK);
  for (std::size_t i = 0; i < kN; ++i) {
    values[i] = static_cast<Value>(i * 7919 % kN);
    tracker.set_value(static_cast<NodeId>(i), values[i]);
  }
  ASSERT_EQ(tracker.topk_set(), true_topk_set(values, kK));
  const auto rebuilds = tracker.full_rebuilds();
  const auto rescans = tracker.boundary_rescans();
  Value floor_value = -1;
  constexpr std::uint64_t kRounds = 300;
  for (std::uint64_t round = 1; round <= kRounds; ++round) {
    const NodeId boundary = true_topk_ordered(values, kK + 1).back();
    values[boundary] = floor_value--;
    tracker.set_value(boundary, values[boundary]);
    ASSERT_EQ(tracker.topk_set(), true_topk_set(values, kK)) << round;
    ASSERT_EQ(tracker.nonmember_max_value(), nth_value(values, kK + 1))
        << round;
    ASSERT_EQ(tracker.boundary_rescans(), rescans + round);
  }
  EXPECT_EQ(tracker.full_rebuilds(), rebuilds);
}

TEST(GroundTruthTracker, MinusInfOutsiderRanksBeforeEmptySentinel) {
  // Crashed or departed nodes are written as kMinusInf. When the boundary
  // non-member sinks to kMinusInf as well, the repair must find a real
  // node (ties broken by id), not the empty-block sentinel; otherwise the
  // tied boundary would force a needless full rebuild.
  GroundTruthTracker tracker(4, 2);
  const std::vector<Value> start = {5, 4, 3, kMinusInf};
  for (NodeId id = 0; id < 4; ++id) tracker.set_value(id, start[id]);
  ASSERT_EQ(tracker.topk_set(), (std::vector<NodeId>{0, 1}));
  const auto rebuilds = tracker.full_rebuilds();
  tracker.set_value(1, kMinusInf);  // the worst member crashes
  tracker.set_value(2, kMinusInf);  // and so does the best outsider
  ASSERT_EQ(tracker.topk_set(), (std::vector<NodeId>{0, 1}));
  EXPECT_EQ(tracker.nonmember_max_value(), kMinusInf);
  EXPECT_EQ(tracker.boundary_rescans(), 1u);
  EXPECT_EQ(tracker.full_rebuilds(), rebuilds);
}

TEST(GroundTruthTracker, DenseBatchCountsBoundaryDecayOnly) {
  // A one-sweep batch absorbs the boundary repair; boundary_rescans
  // still counts the event "the boundary outsider decayed", and only it.
  constexpr std::size_t kN = 256;
  constexpr std::size_t kK = 4;
  std::vector<Value> values(kN);
  std::vector<NodeId> all(kN);
  GroundTruthTracker tracker(kN, kK);
  for (NodeId id = 0; id < kN; ++id) {
    values[id] = static_cast<Value>(id * 37 % kN) * 10;
    all[id] = id;
  }
  tracker.set_values(all, values);
  ASSERT_EQ(tracker.topk_set(), true_topk_set(values, kK));
  const auto rebuilds = tracker.full_rebuilds();

  // Every id rises by 1: the boundary outsider gains, nothing decayed.
  for (auto& v : values) v += 1;
  tracker.set_values(all, values);
  ASSERT_EQ(tracker.topk_set(), true_topk_set(values, kK));
  EXPECT_EQ(tracker.boundary_rescans(), 0u);

  // The boundary outsider sinks to the bottom while the rest rise.
  const NodeId boundary = true_topk_ordered(values, kK + 1).back();
  for (auto& v : values) v += 1;
  values[boundary] = -1;
  tracker.set_values(all, values);
  EXPECT_EQ(tracker.dirty_index_entries(), 0u);
  ASSERT_EQ(tracker.topk_set(), true_topk_set(values, kK));
  EXPECT_EQ(tracker.nonmember_max_value(), nth_value(values, kK + 1));
  EXPECT_EQ(tracker.boundary_rescans(), 1u);
  EXPECT_EQ(tracker.full_rebuilds(), rebuilds);
}

TEST(GroundTruthTracker, DenseBatchClearsDirtLeftBySparseBatches) {
  // Sparse batches climb per id and leave decayed entries dirty for the
  // next boundary repair; a dense batch after them must leave the whole
  // two-level index exact, with no dirt for a later repair to misread.
  constexpr std::size_t kN = 4097;
  constexpr std::size_t kK = 8;
  Rng rng(17);
  std::vector<Value> values(kN);
  std::vector<NodeId> all(kN);
  for (NodeId id = 0; id < kN; ++id) {
    values[id] = rng.uniform_int(0, 100'000);
    all[id] = id;
  }
  GroundTruthTracker tracker(kN, kK);
  tracker.set_values(all, values);
  ASSERT_EQ(tracker.topk_set(), true_topk_set(values, kK));
  std::vector<NodeId> batch;
  std::size_t dirt_seen = 0;
  for (int round = 0; round < 60; ++round) {
    // A sparse batch that sinks random nodes: block argmaxes decay.
    batch.clear();
    for (int j = 0; j < 100; ++j) {
      const auto id = static_cast<NodeId>(rng.uniform_below(kN));
      values[id] -= rng.uniform_int(0, 50'000);
      batch.push_back(id);
    }
    tracker.set_values(batch, values);
    dirt_seen += tracker.dirty_index_entries();
    ASSERT_EQ(tracker.topk_set(), true_topk_set(values, kK)) << round;
    // A dense walk step over every id.
    for (auto& v : values) v += rng.uniform_int(-8, 8);
    tracker.set_values(all, values);
    ASSERT_EQ(tracker.dirty_index_entries(), 0u) << round;
    ASSERT_EQ(tracker.topk_set(), true_topk_set(values, kK)) << round;
    ASSERT_EQ(tracker.nonmember_max_value(), nth_value(values, kK + 1))
        << round;
  }
  EXPECT_GT(dirt_seen, 0u);  // the sparse batches did leave dirt behind
}

TEST(GroundTruthTracker, SparseBatchMatchesPerIdUpdates) {
  // Below n / 8 ids a batch is a loop of set_value calls: same answers,
  // same counters, and the index keeps its lazily repaired dirt.
  constexpr std::size_t kN = 4096;
  constexpr std::size_t kK = 8;
  Rng rng(5);
  std::vector<Value> values(kN);
  for (auto& v : values) v = rng.uniform_int(0, 1'000'000);
  GroundTruthTracker per_id(kN, kK);
  GroundTruthTracker bulk(kN, kK);
  for (NodeId id = 0; id < kN; ++id) {
    per_id.set_value(id, values[id]);
    bulk.set_value(id, values[id]);
  }
  std::vector<NodeId> batch;
  for (int step = 0; step < 200; ++step) {
    batch.clear();
    for (int j = 0; j < 40; ++j) {
      const auto id = static_cast<NodeId>(rng.uniform_below(kN));
      values[id] = rng.uniform_int(0, 1'000'000);
      batch.push_back(id);
    }
    for (const NodeId id : batch) per_id.set_value(id, values[id]);
    bulk.set_values(batch, values);
    ASSERT_EQ(bulk.topk_set(), per_id.topk_set()) << step;
    ASSERT_EQ(bulk.dirty_index_entries(), per_id.dirty_index_entries());
  }
  EXPECT_EQ(bulk.boundary_rescans(), per_id.boundary_rescans());
  EXPECT_EQ(bulk.full_rebuilds(), per_id.full_rebuilds());
}

// -- the dense-step frame's mask path -----------------------------------------

TEST(GroundTruthTracker, MaskPathAnswersLikeAscendingPerIdUpdates) {
  // The run loop's dense frame: each step's change mask of a stream set,
  // minus the down nodes, thinned to 100%, 20% or 5% of its bits so the
  // mask path takes both its per-id schedule (< n / 8 bits) and its
  // one-sweep one. Nodes crash to kMinusInf and recover with their latest
  // value per id, and k changes once mid-run (the tracker is re-emplaced
  // and re-fed), as in exp::run_scenario. The reference takes the same
  // writes through set_value in ascending id order.
  std::uint64_t dense_steps = 0, rebuilds = 0, rescans = 0;
  for (const StreamFamily family : all_families()) {
    for (const std::size_t n : {std::size_t{300}, std::size_t{4097}}) {
      for (const std::size_t percent : {100, 20, 5}) {
        const std::size_t steps = n < 1000 ? 120 : 30;
        const std::size_t k0 = n < 1000 ? 5 : 40;
        StreamSpec spec;
        spec.family = family;
        auto streams = make_stream_set(spec, n, 77 + percent);
        Rng rng(n + percent);
        std::vector<Value> values(n, 0), mirror(n);
        IdBitset moved(n);
        IdBitset down(n);
        std::optional<GroundTruthTracker> mask(std::in_place, n, k0);
        std::optional<GroundTruthTracker> per_id(std::in_place, n, k0);
        const auto write = [&](NodeId id, Value v) {
          mask->set_value(id, v);
          per_id->set_value(id, v);
        };
        for (std::size_t t = 0; t < steps; ++t) {
          SCOPED_TRACE(::testing::Message()
                       << family_name(family) << " n=" << n << " " << percent
                       << "% t=" << t);
          streams.advance_all_masked(values, moved);
          moved.subtract(down);
          for (NodeId id = 0; id < n; ++id) {
            if (moved.test(id) && rng.uniform_below(100) >= percent) {
              moved.clear(id);
            }
          }
          if (t > 0 && moved.count() >= n / 8) ++dense_steps;
          mask->set_values_masked(moved, values);
          for (NodeId id = 0; id < n; ++id) {
            if (moved.test(id)) per_id->set_value(id, values[id]);
          }
          // Churn between the write and the query, as the run loop's
          // fault events: ~1% of the nodes crash, a down node recovers
          // with probability 1/4.
          for (NodeId id = 0; id < n; ++id) {
            if (down.test(id) && rng.uniform_below(4) == 0) {
              down.clear(id);
              write(id, values[id]);
            } else if (!down.test(id) && rng.uniform_below(100) == 0) {
              down.set(id);
              write(id, kMinusInf);
            }
          }
          if (t == steps / 2) {
            // Dynamic k: re-emplace both and re-feed every value.
            rebuilds += mask->full_rebuilds();
            rescans += mask->boundary_rescans();
            mask.emplace(n, 2 * k0 + 1);
            per_id.emplace(n, 2 * k0 + 1);
            for (NodeId id = 0; id < n; ++id) {
              write(id, down.test(id) ? kMinusInf : values[id]);
            }
          }
          ASSERT_EQ(mask->topk_set(), per_id->topk_set());
          ASSERT_EQ(mask->ordered_topk(), per_id->ordered_topk());
          ASSERT_EQ(mask->full_rebuilds(), per_id->full_rebuilds());
          ASSERT_EQ(mask->boundary_rescans(), per_id->boundary_rescans());
          for (NodeId id = 0; id < n; ++id) mirror[id] = mask->value(id);
          ASSERT_EQ(mask->topk_set(), true_topk_set(mirror, mask->k()));
        }
        rebuilds += mask->full_rebuilds();
        rescans += mask->boundary_rescans();
      }
    }
  }
  // Both schedules ran, boundaries were crossed and outsiders decayed.
  EXPECT_GT(dense_steps, 100u);
  EXPECT_GT(rebuilds, 100u);
  EXPECT_GT(rescans, 100u);
}

TEST(GroundTruthTracker, MaskPathChecksSizes) {
  GroundTruthTracker tracker(10, 2);
  std::vector<Value> column(10);
  std::vector<Value> short_column(9);
  IdBitset mask(10);
  IdBitset short_mask(9);
  EXPECT_THROW(tracker.set_values_masked(short_mask, column),
               std::invalid_argument);
  EXPECT_THROW(tracker.set_values_masked(mask, short_column),
               std::invalid_argument);
}

// -- weak validation: answer size ---------------------------------------------

TEST(GroundTruthTracker, WeakCheckRejectsShortAnswer) {
  // A subset of the true top-k passes the value comparison (every member
  // beats every outsider) but leaves live members out.
  GroundTruthTracker tracker(6, 3);
  const std::vector<Value> values = {60, 50, 40, 30, 20, 10};
  for (NodeId id = 0; id < 6; ++id) tracker.set_value(id, values[id]);
  EXPECT_TRUE(tracker.is_valid(std::vector<NodeId>{0, 1, 2}));
  EXPECT_FALSE(tracker.is_valid(std::vector<NodeId>{0, 1}));
  EXPECT_FALSE(tracker.is_valid(std::vector<NodeId>{0}));
  EXPECT_FALSE(tracker.is_valid(std::vector<NodeId>{}));
}

TEST(GroundTruthTracker, WeakCheckAcceptsAnswerOmittingOnlyMinusInfMembers) {
  // Only two nodes are live: the true top-3 holds a kMinusInf (down)
  // node, which an answer may leave out — but not a live member.
  GroundTruthTracker tracker(4, 3);
  const std::vector<Value> values = {kMinusInf, 7, kMinusInf, 9};
  for (NodeId id = 0; id < 4; ++id) tracker.set_value(id, values[id]);
  EXPECT_TRUE(tracker.is_valid(std::vector<NodeId>{1, 3}));
  EXPECT_TRUE(tracker.is_valid(std::vector<NodeId>{1, 2, 3}));
  EXPECT_FALSE(tracker.is_valid(std::vector<NodeId>{3}));

  // With every node down, the empty answer is the only live one.
  GroundTruthTracker dark(3, 2);
  for (NodeId id = 0; id < 3; ++id) dark.set_value(id, kMinusInf);
  EXPECT_TRUE(dark.is_valid(std::vector<NodeId>{}));
}

TEST(GroundTruthTracker, WeakCheckRejectsOversizeAnswer) {
  // Under ties every id holds the top value; k + 1 of them still is not a
  // top-k answer.
  GroundTruthTracker tracker(5, 2);
  for (NodeId id = 0; id < 5; ++id) tracker.set_value(id, 4);
  EXPECT_TRUE(tracker.is_valid(std::vector<NodeId>{1, 3}));
  EXPECT_FALSE(tracker.is_valid(std::vector<NodeId>{1, 3, 4}));
  EXPECT_FALSE(tracker.is_valid(std::vector<NodeId>{0, 1, 2, 3, 4}));
}

TEST(GroundTruthTracker, RejectsBadK) {
  EXPECT_THROW(GroundTruthTracker(4, 0), std::invalid_argument);
  EXPECT_THROW(GroundTruthTracker(4, 5), std::invalid_argument);
}

}  // namespace
}  // namespace topkmon
