// The load-bearing guarantee of the role-separated design: under the
// instant NetworkSpec, every native role pair is *byte-identical* to the
// lock-step implementation it replaced — same messages of every kind in
// every step, same protocol coin flips, same answers, same algorithm-
// event counters. The lock-step outputs are frozen as golden records
// (lockstep_golden.hpp), which is what lets every experiment suite keep
// its published numbers exactly through the Scenario path. The
// comparison machinery lives in the shared differential harness
// (role_port_harness.hpp), which also covers the per-port grids
// (test_role_ports.cpp) — one standard for the zoo.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "role_port_harness.hpp"

namespace topkmon {
namespace {

using harness::Shape;
using harness::expect_matches_golden;

TEST(RoleEquivalence, FilterMonitorMatchesLockstepAcrossShapes) {
  const std::vector<Shape> shapes{{8, 2}, {16, 4}, {16, 1}, {16, 15}, {5, 5}};
  const std::vector<std::string> families{"random_walk", "iid_uniform",
                                          "rotating_max", "bursty"};
  for (const Shape s : shapes) {
    for (const std::string& family : families) {
      for (const std::uint64_t seed : {1ull, 7ull}) {
        expect_matches_golden("topk_filter", family, s, seed, 300);
      }
    }
  }
}

TEST(RoleEquivalence, FilterMonitorMatchesLockstepWithBeaconSuppression) {
  for (const std::string family : {"random_walk", "iid_uniform"}) {
    expect_matches_golden("topk_filter?nobeacon", family, {24, 4}, 11, 400);
  }
}

TEST(RoleEquivalence, NaiveVariantsMatchLockstep) {
  for (const std::string spec : {"naive", "naive_chg"}) {
    for (const std::string family : {"random_walk", "sinusoidal"}) {
      expect_matches_golden(spec, family, {12, 3}, 3, 250);
    }
  }
}

TEST(RoleEquivalence, FormerAdapterMonitorsNowRunNativeAndMatch) {
  // The exact monitors are also error-free against the ground truth.
  const Shape s{16, 4};
  for (const std::string spec :
       {"recompute", "slack", "dominance", "ordered", "approx?eps=64"}) {
    expect_matches_golden(spec, "random_walk", s, 5, 200);
  }
  for (const std::string spec : {"recompute", "slack", "dominance"}) {
    EXPECT_TRUE(harness::run_lockstep(spec, "random_walk", s, 5, 200)
                    .fp.error_steps.empty())
        << spec;
  }
}

TEST(RoleEquivalence, GoldenTableHasOneRecordPerCell) {
  const auto& runs = golden::golden_runs();
  for (std::size_t i = 0; i < runs.size(); ++i) {
    for (std::size_t j = i + 1; j < runs.size(); ++j) {
      const bool same = runs[i].monitor == runs[j].monitor &&
                        runs[i].stream == runs[j].stream &&
                        runs[i].n == runs[j].n && runs[i].k == runs[j].k &&
                        runs[i].seed == runs[j].seed &&
                        runs[i].steps == runs[j].steps;
      EXPECT_FALSE(same) << "duplicate record " << runs[i].monitor;
    }
  }
}

}  // namespace
}  // namespace topkmon
