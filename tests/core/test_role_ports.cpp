// The tentpole proof of the five-port PR: slack, dominance, approx,
// multi_k and ordered run as native CoordinatorAlgo/NodeAlgo role pairs
// and are message-for-message and coin-flip-identical to their lock-step
// MonitorBase twins under the instant network, across a stream-family ×
// shape × seed grid — then run green under scheduled networks
// (delay / jitter / drop) and through a light e19-style churn plan. The
// three pre-existing ports (topk_filter, naive, naive_chg) re-run through
// the same shared harness so one comparison standard covers the whole zoo.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "role_port_harness.hpp"

namespace topkmon {
namespace {

using harness::Shape;
using harness::expect_identical;
using harness::expect_twin_lockstep_parity;
using harness::results_identical;
using harness::run_lockstep;
using harness::run_native;

std::string label(const std::string& spec, Shape s, const std::string& family,
                  std::uint64_t seed) {
  return spec + " n=" + std::to_string(s.n) + " k=" + std::to_string(s.k) +
         " fam=" + family + " seed=" + std::to_string(seed);
}

void expect_grid_equivalence(const std::vector<std::string>& specs,
                             const std::vector<Shape>& shapes,
                             std::size_t steps = 250) {
  const std::vector<std::string> families{"random_walk", "iid_uniform",
                                          "bursty"};
  for (const std::string& spec : specs) {
    for (const Shape s : shapes) {
      for (const std::string& family : families) {
        for (const std::uint64_t seed : {1ull, 7ull}) {
          const auto lockstep = run_lockstep(spec, family, s, seed, steps);
          const auto native = run_native(spec, family, s, seed, steps);
          expect_identical(lockstep, native, label(spec, s, family, seed));
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
  expect_grid_equivalence({"topk_filter", "naive", "naive_chg"}, {{16, 4}});
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
                           "approx?eps=64,nobeacon"},
                          {{16, 4}}, 200);
}

// ---------------------------------------------------------------------------
// Coin-flip identity: per-step answers + final RNG state of every node
// ---------------------------------------------------------------------------

TEST(RolePorts, TwinDriveProvesAnswerAndRngParity) {
  const Shape s{16, 4};
  for (const std::string spec :
       {"topk_filter", "naive", "naive_chg", "slack", "slack?adaptive",
        "dominance", "approx?eps=64", "multi_k?ks=2+8", "ordered"}) {
    expect_twin_lockstep_parity(spec, "random_walk", s, 5, 250);
    expect_twin_lockstep_parity(spec, "bursty", s, 9, 250);
  }
}

// ---------------------------------------------------------------------------
// Scheduled networks: the ports must run (and stay live) once messages
// are delayed, jittered, and dropped — the regime the lock-step twins
// cannot enter at all.
// ---------------------------------------------------------------------------

const std::vector<std::string>& new_port_specs() {
  // multi_k's answer is the top-k of its *smallest* monitored k, so the
  // scheduled-network / churn scenarios (validated against the scenario
  // k) pin ks to start at the scenario's k = 4.
  static const std::vector<std::string> specs{
      "slack", "dominance", "approx?eps=64", "multi_k?ks=4+8", "ordered"};
  return specs;
}

TEST(RolePorts, NewPortsRunGreenOnScheduledNetworks) {
  for (const std::string& spec : new_port_specs()) {
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
  for (const std::string& spec : new_port_specs()) {
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

}  // namespace
}  // namespace topkmon
