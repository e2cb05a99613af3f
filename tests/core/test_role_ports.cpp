// Per-port proof: every monitor runs as a native CoordinatorAlgo/NodeAlgo
// role pair that is message-for-message and coin-flip-identical to the
// golden records of the lock-step implementation it replaced, under the
// instant network, across a stream-family × shape × seed grid — and then
// runs green under scheduled networks (delay / jitter / drop) and through
// a light e19-style churn plan.
#include <gtest/gtest.h>

#include <array>
#include <string>
#include <utility>
#include <vector>

#include "role_port_harness.hpp"
#include "streams/trace.hpp"

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

// ---------------------------------------------------------------------------
// Crash pins for the violation cycle's structural branch: a crash that
// takes a rank with it (an ordered member, a multi_k node above a
// boundary, or a winner of the in-flight reset selection) aborts the
// running cycle and re-runs the full reset over the live nodes. Churn on
// random streams reaches none of these, so scripted traces fix the
// crashed node's role, and a budgeted delay network stretches a cycle
// across the step boundary where the crash fires. The literal figures
// pin the behaviour of every crash, recovery and reset along the way.
// ---------------------------------------------------------------------------

struct Move {
  TimeStep step;
  NodeId node;
  Value value;  ///< held from `step` on
};

/// n nodes at 1000·(id + 1), node n-1 on top, each move applied from its
/// step on.
TraceMatrix scripted(std::size_t n, std::size_t steps,
                     const std::vector<Move>& moves) {
  TraceMatrix m(n, steps + 1);
  for (std::size_t t = 0; t <= steps; ++t) {
    for (NodeId id = 0; id < n; ++id) {
      m.at(t, id) = 1000 * static_cast<Value>(id + 1);
    }
    for (const Move& mv : moves) {
      if (mv.step <= t) m.at(t, mv.node) = mv.value;
    }
  }
  return m;
}

struct CrashPin {
  std::array<std::uint64_t, kNumMsgKinds> by_kind;
  std::uint64_t filter_resets;
  std::uint64_t full_rebuilds;
  std::uint64_t resyncs;
  /// The error steps as runs of consecutive steps, first and last.
  std::vector<std::pair<TimeStep, TimeStep>> error_runs;
};

/// Runs `spec` over the scripted trace and checks the pinned figures and
/// a clean answer from step `healed` on.
void expect_crash_pin(const std::string& spec, std::size_t k,
                      const TraceMatrix& trace, const std::string& network,
                      const std::string& faults, TimeStep healed,
                      const CrashPin& want) {
  SCOPED_TRACE(spec + " / " + network + " / " + faults);
  exp::Scenario sc;
  sc.monitor = spec;
  sc.n = trace.nodes();
  sc.k = k;
  sc.steps = trace.steps() - 1;
  sc.seed = 3;
  sc.with_network(network);
  sc.faults = faults;
  sc.validation = RunConfig::Validation::kWeak;
  sc.throw_on_error = false;
  const RunResult r = exp::run_scenario(sc, trace.to_stream_set());
  for (std::size_t kind = 0; kind < kNumMsgKinds; ++kind) {
    EXPECT_EQ(r.comm.by_kind(static_cast<MsgKind>(kind)), want.by_kind[kind])
        << "kind " << msg_kind_name(static_cast<MsgKind>(kind));
  }
  EXPECT_EQ(r.monitor.filter_resets, want.filter_resets);
  EXPECT_EQ(r.monitor.full_rebuilds, want.full_rebuilds);
  EXPECT_EQ(r.monitor.resyncs, want.resyncs);
  std::vector<TimeStep> error_steps;
  for (const auto& [first, last] : want.error_runs) {
    for (TimeStep t = first; t <= last; ++t) error_steps.push_back(t);
  }
  EXPECT_EQ(r.error_step_list, error_steps);
  EXPECT_EQ(r.error_steps_since(healed), 0u) << "never re-converged";
}

// ordered, n = 8, k = 3: members 7, 6, 5 until a move says otherwise.

TEST(RolePorts, OrderedMemberCrashWhileIdleRerunsReset) {
  // Node 4 overtakes member 5 at step 3 (a full reset makes it a member);
  // member 6 crashes at step 6 with no cycle running.
  expect_crash_pin("ordered", 3, scripted(8, 30, {{3, 4, 6500}}), "instant",
                   "churn?crash=6@6,recover=6@12", 13,
                   {{59, 0, 53, 16, 0, 1, 0, 0}, 4, 0, 1, {}});
}

TEST(RolePorts, OrderedMemberCrashDuringInternalRerankRerunsReset) {
  // Member 5 overtakes member 6 at step 3: the boundary holds and a
  // k-iteration member re-rank runs, spanning steps on the budgeted
  // delay network; member 7, its first winner, crashes at step 4 while
  // the second iteration runs.
  expect_crash_pin("ordered", 3, scripted(8, 30, {{3, 5, 7500}}),
                   "delay=1,ticks=6", "churn?crash=7@4,recover=7@12", 18,
                   {{80, 0, 55, 17, 0, 1, 0, 0}, 4, 0, 1, {{4, 7}, {12, 17}}});
}

TEST(RolePorts, OrderedResetWinnerCrashRerunsReset) {
  // Outsider 0 jumps to the top at step 3: T+ < T- and a full reset
  // runs. Node 0 wins its first iteration and crashes at step 8, in the
  // gap before the second, so it is a winner without being a member.
  // Its recovery at step 14 lands mid-reset and is deferred.
  expect_crash_pin("ordered", 3, scripted(8, 40, {{3, 0, 9000}}),
                   "delay=1,ticks=3", "churn?crash=0@8,recover=0@14", 25,
                   {{81, 0, 61, 17, 0, 2, 0, 0}, 5, 0, 1, {{3, 7}, {14, 24}}});
}

// multi_k?ks=2+5, n = 8: band 0 holds 7, 6; band 1 holds 5, 4, 3; band 2
// the rest. Boundary 0 lies between nodes 6 and 5, boundary 1 between 3
// and 2.

TEST(RolePorts, MultiKBandZeroCrashWhileIdleRerunsReset) {
  // Node 2 crosses boundary 1 upward at step 3 (its repair resets);
  // band-0 node 7 crashes at step 6 with no cycle running.
  expect_crash_pin("multi_k?ks=2+5", 2, scripted(8, 30, {{3, 2, 4500}}),
                   "instant", "churn?crash=7@6,recover=7@12", 13,
                   {{81, 0, 77, 24, 0, 1, 0, 0}, 4, 0, 1, {}});
}

TEST(RolePorts, MultiKCrashMidRepairOfSecondBoundaryRerunsReset) {
  // Node 3 crosses boundary 1 downward at step 3; band-0 node 6 crashes
  // at step 4 while boundary 1's missing-side session runs.
  expect_crash_pin("multi_k?ks=2+5", 2, scripted(8, 30, {{3, 3, 2500}}),
                   "delay=1,ticks=6", "churn?crash=6@4,recover=6@12", 18,
                   {{69, 0, 63, 18, 1, 2, 0, 0}, 3, 0, 1, {{4, 9}, {12, 17}}});
}

}  // namespace
}  // namespace topkmon
