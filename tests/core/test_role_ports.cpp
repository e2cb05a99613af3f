// Per-port proof: every monitor runs as a native CoordinatorAlgo/NodeAlgo
// role pair that is message-for-message and coin-flip-identical to the
// golden records of the lock-step implementation it replaced, under the
// instant network, across a stream-family × shape × seed grid — and then
// runs green under scheduled networks (delay / jitter / drop) and through
// a light e19-style churn plan.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "role_port_harness.hpp"

namespace topkmon {
namespace {

using harness::Shape;
using harness::expect_answer_and_rng_parity;
using harness::expect_matches_golden;
using harness::run_native;

void expect_grid_equivalence(const std::vector<std::string>& specs,
                             const std::vector<Shape>& shapes,
                             std::size_t steps = 250) {
  const std::vector<std::string> families{"random_walk", "iid_uniform",
                                          "bursty"};
  for (const std::string& spec : specs) {
    for (const Shape s : shapes) {
      for (const std::string& family : families) {
        for (const std::uint64_t seed : {1ull, 7ull}) {
          expect_matches_golden(spec, family, s, seed, steps);
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Instant-network differential equivalence, port by port
// ---------------------------------------------------------------------------

TEST(RolePorts, SlackMatchesLockstepAcrossGrid) {
  expect_grid_equivalence({"slack", "slack?alpha=0.05", "slack?adaptive"},
                          {{16, 4}, {12, 3}});
}

TEST(RolePorts, DominanceMatchesLockstepAcrossGrid) {
  expect_grid_equivalence({"dominance"}, {{16, 4}, {9, 2}});
}

TEST(RolePorts, ApproxMatchesLockstepAcrossGrid) {
  expect_grid_equivalence({"approx?eps=0", "approx?eps=64", "approx?eps=2000"},
                          {{16, 4}});
}

TEST(RolePorts, MultiKMatchesLockstepAcrossGrid) {
  expect_grid_equivalence({"multi_k", "multi_k?ks=2+8", "multi_k?ks=1+4+12"},
                          {{16, 4}});
}

TEST(RolePorts, OrderedMatchesLockstepAcrossGrid) {
  expect_grid_equivalence({"ordered"}, {{16, 4}, {10, 5}});
}

TEST(RolePorts, ExistingPortsStillMatchThroughSharedHarness) {
  expect_grid_equivalence({"topk_filter", "naive", "naive_chg", "recompute"},
                          {{16, 4}});
}

TEST(RolePorts, DegenerateShapesMatch) {
  // k == n (no outsiders), k == 1 (no order structure to maintain), and
  // tiny n exercise every port's boundary-free and single-band paths.
  expect_grid_equivalence({"slack", "dominance", "ordered", "approx?eps=64"},
                          {{6, 6}, {8, 1}}, 150);
  expect_grid_equivalence({"multi_k?ks=1+8"}, {{8, 1}}, 150);
}

TEST(RolePorts, BeaconSuppressionVariantsMatch) {
  expect_grid_equivalence({"ordered?nobeacon", "multi_k?ks=2+8,nobeacon",
                           "approx?eps=64,nobeacon", "recompute?nobeacon"},
                          {{16, 4}}, 200);
}

// ---------------------------------------------------------------------------
// Coin-flip identity: per-step answers + final RNG state of every node
// ---------------------------------------------------------------------------

TEST(RolePorts, TwinDriveProvesAnswerAndRngParity) {
  const Shape s{16, 4};
  for (const std::string spec :
       {"topk_filter", "naive", "naive_chg", "slack", "slack?adaptive",
        "dominance", "approx?eps=64", "multi_k?ks=2+8", "ordered",
        "recompute", "recompute?nobeacon"}) {
    expect_answer_and_rng_parity(spec, "random_walk", s, 5, 250);
    expect_answer_and_rng_parity(spec, "bursty", s, 9, 250);
  }
}

// ---------------------------------------------------------------------------
// The latency (e14) and loss (e15) suites publish rows for the whole zoo;
// their instant-network cells at the suites' defaults (n 32, k 4, 1200
// steps, seed 1, a fast walk) are in the golden table, so every row's
// port still speaks its reference protocol message for message.
// ---------------------------------------------------------------------------

TEST(RolePorts, LatencyAndLossSuiteCellsMatchLockstep) {
  StreamSpec fast;
  fast.walk.max_step = 20'000;
  for (const std::string spec :
       {"topk_filter", "naive", "slack", "dominance", "ordered",
        "approx?eps=40000", "multi_k?ks=4+8"}) {
    expect_matches_golden(spec, fast, {32, 4}, 1, 1'200);
  }
}

// ---------------------------------------------------------------------------
// Scheduled networks: the ports must run (and stay live) once messages
// are delayed, jittered, and dropped — a regime no golden record covers.
// ---------------------------------------------------------------------------

const std::vector<std::string>& port_specs() {
  // multi_k's answer is the top-k of its *smallest* monitored k, so the
  // scheduled-network / churn scenarios (validated against the scenario
  // k) pin ks to start at the scenario's k = 4.
  static const std::vector<std::string> specs{
      "slack",   "dominance", "approx?eps=64", "multi_k?ks=4+8",
      "ordered", "recompute"};
  return specs;
}

TEST(RolePorts, NewPortsRunGreenOnScheduledNetworks) {
  for (const std::string& spec : port_specs()) {
    for (const std::string network : {"delay=2", "jitter=2", "drop=0.02"}) {
      SCOPED_TRACE(spec + " / " + network);
      const auto r = run_native(spec, "random_walk", {16, 4}, 3, 300,
                                RunConfig::Validation::kWeak, network);
      EXPECT_EQ(r.steps_executed, 301u);
      EXPECT_GT(r.comm.total(), 0u);
      // Delay and jitter only lag the answer; the monitor must keep
      // converging rather than wedge into a permanently wrong state.
      EXPECT_LT(r.error_rate(), 0.9) << "monitor wedged under " << network;
    }
  }
}

// ---------------------------------------------------------------------------
// Fault plans: a light e19-style churn plan (crash, outage, recovery)
// must complete with the answer re-converging after the heal.
// ---------------------------------------------------------------------------

TEST(RolePorts, NewPortsSurviveLightChurn) {
  for (const std::string& spec : port_specs()) {
    SCOPED_TRACE(spec);
    const auto r =
        run_native(spec, "random_walk", {16, 4}, 11, 300,
                   RunConfig::Validation::kWeak, "instant",
                   /*faults=*/"churn?crash=1@80,recover=1@160");
    EXPECT_EQ(r.steps_executed, 301u);
    // Once the crashed node has rejoined and re-synced, the answer must
    // go clean again: no errors over the final third of the run.
    EXPECT_EQ(r.error_steps_since(220), 0u) << "never re-converged";
  }
}

TEST(RolePorts, RecomputeFollowsDynamicK) {
  // recompute reselects every step, so a k= event only changes how many
  // winners the next selection announces.
  for (const std::string faults :
       {"churn?k=8@80", "churn?k=8@80,k=2@180",
        "churn?crash=1@60,k=6@100,recover=1@150"}) {
    SCOPED_TRACE(faults);
    const auto r = run_native("recompute", "random_walk", {16, 4}, 13, 300,
                              RunConfig::Validation::kWeak, "instant", faults);
    EXPECT_EQ(r.steps_executed, 301u);
    EXPECT_EQ(r.error_steps, 0u);
  }
}

}  // namespace
}  // namespace topkmon
