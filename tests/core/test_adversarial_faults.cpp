// Adversarial fault model end-to-end tests: lag / stale / mute / heal
// degradations against the suspicion state machines (topk_filter?suspect,
// naive?suspect, naive_chg?suspect — see core/filter_roles.hpp and
// core/naive_roles.hpp) and the warm-standby assignment replay
// (topk_filter?replay).
//
// The contract under instant delivery: a degradation may corrupt the
// answer while it is active (the coordinator needs a few strikes to
// convict, and a quarantined node is excluded while the truth still
// counts it), but the error tail is bounded — once the heal lands the
// release probe re-admits the node and the answer is exact again.
//
// The scenarios run a small, tight cluster (n = 8, k = 4) on a volatile
// walk: with half the nodes in the answer, a degraded node is guaranteed
// to interact with the boundary, so detection is actually exercised
// instead of depending on where the seed placed one node.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "exp/scenario.hpp"
#include "sim/fault_plan.hpp"

namespace topkmon {
namespace {

using exp::Scenario;
using exp::run_scenario;

Scenario adversarial_scenario(const std::string& monitor,
                              const std::string& network,
                              const std::string& plan,
                              std::uint64_t max_step = 4'000'000,
                              std::size_t n = 8, std::size_t k = 4) {
  Scenario sc;
  sc.monitor = monitor;
  sc.with_stream_family("random_walk");
  sc.stream.walk.hi = 50'000'000;
  // Volatile by default: every node keeps crossing filter boundaries, so
  // degraded nodes keep signalling (silence strikes accrue) and frozen
  // stale reports contradict the node's true trajectory quickly.
  sc.stream.walk.max_step = max_step;
  sc.with_network(network);
  sc.n = n;
  sc.k = k;
  sc.steps = 300;
  sc.seed = 13;
  sc.faults = plan;
  sc.validation = RunConfig::Validation::kStrict;
  sc.throw_on_error = false;
  return sc;
}

// Three of the eight nodes go mute at 50 and heal at 200: whichever way
// the walk breaks, at least one muted node crosses the k-boundary.
constexpr const char* kMutePlan =
    "churn?mute=0@50,mute=1@50,mute=2@50,heal=0@200,heal=1@200,heal=2@200";

// ---------------------------------------------------------------------------
// Bounded error tails + exact convergence after the heal
// ---------------------------------------------------------------------------

TEST(AdversarialFaults, MuteIsQuarantinedAndHealConvergesExactly) {
  for (const char* mon : {"topk_filter?nobeacon,suspect", "naive?suspect",
                          "naive_chg?suspect"}) {
    SCOPED_TRACE(mon);
    const RunResult r =
        run_scenario(adversarial_scenario(mon, "instant", kMutePlan));
    // The coordinator inferred the degradation without any
    // failure-detector event...
    EXPECT_GE(r.monitor.suspicions, 3u) << "mute nodes not all suspected";
    EXPECT_GE(r.monitor.quarantines, 3u) << "mute nodes not all quarantined";
    // ...and after the heal the release probe re-admits the nodes: the
    // tail is exact on instant delivery.
    EXPECT_EQ(r.error_steps_since(250), 0u);
    // Every degradation event (3 mutes + 3 heals) opened a recovery
    // window and every window closed within bounded ticks.
    EXPECT_EQ(r.recovery_ticks.size(), 6u);
    EXPECT_LE(r.max_recovery_ticks(), 50'000u);
  }
}

TEST(AdversarialFaults, LaggardIsConvictedAndHealConvergesExactly) {
  // 200 delivery ticks of per-message hold dwarfs the session window, so
  // the laggard's reports land only after the repair already aborted —
  // stragglers that must not launder its silence. Its late probe replies
  // keep releasing the quarantine (the oscillation the capped backoff
  // damps), so suspicions re-accumulate for as long as the lag holds.
  const RunResult r = run_scenario(adversarial_scenario(
      "topk_filter?nobeacon,suspect", "instant",
      "churn?lag=0@50:200,heal=0@200"));
  EXPECT_GE(r.monitor.suspicions, 1u);
  EXPECT_GE(r.monitor.quarantines, 1u);
  EXPECT_EQ(r.error_steps_since(250), 0u);
}

TEST(AdversarialFaults, NaiveAbsorbsInStepLagByDesign) {
  // The naive coordinator reads whatever reports have arrived by the end
  // of the step's settle loop; a lag that releases within the step is
  // invisible to it — no errors, and correctly no suspicion either.
  const RunResult r = run_scenario(adversarial_scenario(
      "naive?suspect", "instant", "churn?lag=0@50:200,heal=0@200"));
  EXPECT_EQ(r.error_steps, 0u);
  EXPECT_EQ(r.monitor.suspicions, 0u);
}

TEST(AdversarialFaults, StaleResponderDetectedByFilterOnly) {
  // A stale responder keeps answering probes — silence detection never
  // fires. Only the filter monitor can convict it, by contradiction: the
  // node's (unforgeable) violation signal says its true value crossed
  // the boundary while its frozen reports keep landing on the other
  // side.
  const RunResult filter = run_scenario(adversarial_scenario(
      "topk_filter?nobeacon,suspect", "instant",
      "churn?stale=0@50,heal=0@200"));
  EXPECT_GE(filter.monitor.stale_detections, 1u);
  EXPECT_GE(filter.monitor.quarantines, 1u);
  EXPECT_EQ(filter.error_steps_since(250), 0u);

  // The naive family has no violation signals to contradict a frozen
  // report: stale is undetectable by design, the counter stays 0.
  const RunResult naive = run_scenario(adversarial_scenario(
      "naive?suspect", "instant", "churn?stale=0@50,heal=0@200"));
  EXPECT_EQ(naive.monitor.stale_detections, 0u);
  EXPECT_EQ(naive.monitor.quarantines, 0u);
}

TEST(AdversarialFaults, SuspectIsTraceInertOnCleanRuns) {
  // The suspicion machinery must not change a single message until a
  // node actually degrades — even on a workload volatile enough that
  // values hover across the boundary (the honest-hover race the
  // same-step signal anchor exists for).
  for (const char* mon : {"topk_filter?nobeacon", "naive"}) {
    SCOPED_TRACE(mon);
    Scenario plain =
        adversarial_scenario(mon, "instant", "none", 2'000'000, 32, 6);
    Scenario armed = plain;
    armed.monitor = std::string(mon) +
                    (std::string(mon).find('?') == std::string::npos
                         ? "?suspect"
                         : ",suspect");
    const RunResult a = run_scenario(plain);
    const RunResult b = run_scenario(armed);
    EXPECT_EQ(a.comm.total(), b.comm.total());
    EXPECT_EQ(a.comm.upstream(), b.comm.upstream());
    EXPECT_EQ(a.comm.unicast(), b.comm.unicast());
    EXPECT_EQ(a.error_steps, 0u);
    EXPECT_EQ(b.error_steps, 0u);
    EXPECT_EQ(b.monitor.suspicions, 0u);
    EXPECT_EQ(b.monitor.quarantines, 0u);
  }
  // naive_chg is the exception: a change-only reporter cannot be audited
  // passively, so ?suspect adds exactly its round-robin audit probes
  // (one probe + one reply per poll) and nothing else.
  Scenario plain = adversarial_scenario("naive_chg", "instant", "none",
                                        2'000'000, 32, 6);
  Scenario armed = plain;
  armed.monitor = "naive_chg?suspect";
  const RunResult a = run_scenario(plain);
  const RunResult b = run_scenario(armed);
  EXPECT_EQ(b.monitor.quarantines, 0u);
  EXPECT_GT(b.monitor.polls, 0u);
  EXPECT_EQ(b.comm.total(), a.comm.total() + 2 * b.monitor.polls);
}

// naive_chg audits with round-robin probes (silence is legitimate for a
// change-only reporter), so its polls counter must move under suspect.
TEST(AdversarialFaults, NaiveChgAuditsWithPolls) {
  const RunResult r = run_scenario(
      adversarial_scenario("naive_chg?suspect", "instant", kMutePlan));
  EXPECT_GE(r.monitor.polls, 1u);
  EXPECT_GE(r.monitor.quarantines, 3u);
  EXPECT_EQ(r.error_steps_since(250), 0u);
}

// ---------------------------------------------------------------------------
// Quarantine accounting and release
// ---------------------------------------------------------------------------

TEST(QuarantineRelease, MuteWithoutHealStaysQuarantined) {
  // No heal: the nodes stay mute to the end. Errors may persist (the
  // truth still counts the muted nodes) but the run must complete with
  // consistent accounting — the quarantine holds instead of thrashing.
  const RunResult r = run_scenario(adversarial_scenario(
      "topk_filter?nobeacon,suspect", "instant",
      "churn?mute=0@50,mute=1@50,mute=2@50"));
  EXPECT_GE(r.monitor.quarantines, 3u);
  EXPECT_EQ(r.steps_executed, 301u);  // run completes, no hang
  EXPECT_EQ(r.error_step_list.size(), r.error_steps);
}

TEST(QuarantineRelease, DegradationsComposeWithDelayNetworks) {
  // The strike thresholds are tuned for instant/delayed networks: under
  // delay=2 the run must keep consistent accounting, convict the mute
  // nodes, and converge after the heal.
  const RunResult r = run_scenario(adversarial_scenario(
      "topk_filter?nobeacon,suspect", "delay=2", kMutePlan));
  EXPECT_EQ(r.steps_executed, 301u);
  EXPECT_EQ(r.error_step_list.size(), r.error_steps);
  EXPECT_GE(r.monitor.quarantines, 3u);
  EXPECT_EQ(r.error_steps_since(250), 0u);
}

// ---------------------------------------------------------------------------
// Warm-standby assignment replay
// ---------------------------------------------------------------------------

TEST(AdversarialReplay, ReplayCutsResyncStormOnJoinHeavyChurn) {
  // 16 joiners at once on a calm cluster: the handshake path opens 16
  // probe/reply/assign re-syncs (replies that land mid-cycle are parked,
  // not re-probed: instant delivery loses nothing, so no retry fires);
  // the replay path folds each into one kFilterAssign.
  const char* plan = "churn?join=+16@60";
  const RunResult handshake = run_scenario(adversarial_scenario(
      "topk_filter?nobeacon", "instant", plan, 100'000, 32, 6));
  const RunResult replay = run_scenario(adversarial_scenario(
      "topk_filter?nobeacon,replay", "instant", plan, 100'000, 32, 6));
  EXPECT_EQ(handshake.monitor.resyncs, 16u);
  EXPECT_EQ(handshake.monitor.resync_retries, 0u);
  EXPECT_GE(replay.monitor.assign_replays, 16u);
  EXPECT_LT(replay.monitor.resyncs, handshake.monitor.resyncs);
  EXPECT_EQ(replay.monitor.resync_retries, 0u);
  EXPECT_LT(replay.comm.total(), handshake.comm.total());
}

TEST(AdversarialReplay, ReplayKeepsExactTailOnInstant) {
  const char* plan = "churn?crash=5@40,recover=5@100,join=+8@150";
  const RunResult r = run_scenario(adversarial_scenario(
      "topk_filter?nobeacon,replay", "instant", plan, 100'000, 24, 6));
  EXPECT_GE(r.monitor.assign_replays, 1u);
  EXPECT_EQ(r.error_steps_since(250), 0u);
  EXPECT_LE(r.max_recovery_ticks(), 50'000u);
}

TEST(AdversarialReplay, ReplayOffIsDefault) {
  // ?replay changes e19 traces, so it must be strictly opt-in: without
  // the flag the counter stays 0 on any plan.
  const RunResult r = run_scenario(adversarial_scenario(
      "topk_filter?nobeacon", "instant", "churn?join=+8@60", 100'000, 24,
      6));
  EXPECT_EQ(r.monitor.assign_replays, 0u);
  EXPECT_GT(r.monitor.resyncs, 0u);
}

}  // namespace
}  // namespace topkmon
