// Fault-injection subsystem tests (sim/fault_plan.hpp + the SimDriver /
// scenario plumbing): spec grammar and timeline validation with
// did-you-mean hints, property/fuzz coverage of the grammar (random valid
// timelines validate; spec_name round-trips; malformed specs hint),
// schedule determinism (same seed => same victims, repeated runs
// byte-identical), crash/recover/join/leave/k end-to-end on every native
// monitor, churn composed with the e15 drop ladder, the sharded churn
// contract (per-shard plan carving, whole-shard outage quota drain,
// degradations rejected), and the RunResult error/recovery accounting the
// churn suite reports.
#include <gtest/gtest.h>

#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/root_merge.hpp"
#include "exp/scenario.hpp"
#include "sim/fault_plan.hpp"

namespace topkmon {
namespace {

using exp::Scenario;
using exp::run_scenario;

// ---------------------------------------------------------------------------
// Grammar and timeline validation
// ---------------------------------------------------------------------------

TEST(FaultPlanSpec, NoneAndEmptyAreEmptyPlans) {
  for (const char* spec : {"none", ""}) {
    const FaultPlan plan(spec, 8, 2, 1);
    EXPECT_TRUE(plan.empty());
    EXPECT_FALSE(plan.has_churn());
    EXPECT_EQ(plan.initial_nodes(), 8u);
    EXPECT_EQ(plan.total_nodes(), 8u);
  }
}

TEST(FaultPlanSpec, ExplicitEventsSortedAndProvisioned) {
  const FaultPlan plan(
      "churn?crash=3@50,recover=3@90,join=+16@120,leave=1@200,k=4@250", 8, 2,
      1);
  ASSERT_EQ(plan.events().size(), 5u);
  EXPECT_TRUE(plan.has_churn());
  EXPECT_EQ(plan.total_nodes(), 24u);  // 8 initial + 16 joining
  TimeStep prev = 0;
  for (const FaultEvent& ev : plan.events()) {
    EXPECT_GE(ev.step, prev);
    prev = ev.step;
  }
  EXPECT_EQ(plan.events().back().kind, FaultEvent::Kind::kSetK);
  EXPECT_EQ(plan.events().back().count, 4u);
}

TEST(FaultPlanSpec, KOnlyPlanHasNoChurn) {
  const FaultPlan plan("churn?k=4@100,k=2@200", 8, 2, 1);
  EXPECT_FALSE(plan.has_churn());
  EXPECT_FALSE(plan.empty());
}

TEST(FaultPlanSpec, RejectsMalformedSpecs) {
  // Unknown plan name, with a hint.
  try {
    FaultPlan("churm?crash=1@10", 8, 2, 1);
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("churn"), std::string::npos);
  }
  // Unknown key, with a hint.
  try {
    FaultPlan("churn?crsh=1@10", 8, 2, 1);
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("crash"), std::string::npos);
  }
  // Timeline violations.
  EXPECT_THROW(FaultPlan("churn?crash=99@10", 8, 2, 1),
               std::invalid_argument);  // id out of range
  EXPECT_THROW(FaultPlan("churn?crash=1@10,crash=1@20", 8, 2, 1),
               std::invalid_argument);  // crash of a down node
  EXPECT_THROW(FaultPlan("churn?recover=1@10", 8, 2, 1),
               std::invalid_argument);  // recovery of a live node
  EXPECT_THROW(FaultPlan("churn?crash=1@10,leave=1@20", 8, 2, 1),
               std::invalid_argument);  // leave while down
  EXPECT_THROW(FaultPlan("churn?k=9@10", 8, 2, 1),
               std::invalid_argument);  // k > live nodes
  EXPECT_THROW(FaultPlan("none?x=1", 8, 2, 1), std::invalid_argument);
  EXPECT_THROW(FaultPlan("churn?crash=1@0", 8, 2, 1),
               std::invalid_argument);  // step 0 is initialization
  // Generated and explicit forms cannot mix.
  EXPECT_THROW(FaultPlan("churn?every=10,down=1,count=2,outage=5,crash=1@7",
                         8, 2, 1),
               std::invalid_argument);
}

TEST(FaultPlanSpec, GeneratedChurnIsSeedDeterministic) {
  const char* spec = "churn?every=50,down=3,count=4,outage=20";
  const FaultPlan a(spec, 64, 8, 7);
  const FaultPlan b(spec, 64, 8, 7);
  ASSERT_EQ(a.events().size(), b.events().size());
  for (std::size_t i = 0; i < a.events().size(); ++i) {
    EXPECT_EQ(a.events()[i].kind, b.events()[i].kind);
    EXPECT_EQ(a.events()[i].step, b.events()[i].step);
    EXPECT_EQ(a.events()[i].node, b.events()[i].node);
  }
  // A different seed draws different victims (4 bursts x 3 victims out of
  // 64 nodes: collision of the full sequence is practically impossible).
  const FaultPlan c(spec, 64, 8, 8);
  ASSERT_EQ(a.events().size(), c.events().size());
  bool any_differs = false;
  for (std::size_t i = 0; i < a.events().size(); ++i) {
    if (a.events()[i].node != c.events()[i].node) any_differs = true;
  }
  EXPECT_TRUE(any_differs);
}

// ---------------------------------------------------------------------------
// Property / fuzz coverage of the grammar
// ---------------------------------------------------------------------------

namespace fuzz {

struct Timeline {
  std::string spec = "churn?";
  std::size_t n = 0;
  std::size_t k = 0;
  std::size_t events = 0;
};

/// Generates a random *valid* timeline: every emitted event is legal in
/// the membership/degradation state the previous events left behind, so
/// the plan must construct (any throw is a validator bug).
Timeline random_timeline(std::mt19937_64& rng) {
  Timeline tl;
  tl.n = 4 + rng() % 29;                          // 4..32 initial nodes
  tl.k = 1 + rng() % std::min<std::size_t>(tl.n, 8);
  enum : char { kUp, kDown, kGone };
  std::vector<char> state(tl.n, kUp);
  std::vector<char> degraded(tl.n, 0);
  std::size_t live = tl.n;
  std::size_t cur_k = tl.k;  // the validator holds live >= k at all times
  TimeStep step = 1;
  const std::size_t want = 1 + rng() % 12;
  bool first = true;
  const auto emit = [&](const std::string& item) {
    if (!first) tl.spec += ',';
    first = false;
    tl.spec += item;
    ++tl.events;
  };
  const auto pick = [&](const auto& eligible) -> std::size_t {
    std::vector<std::size_t> ids;
    for (std::size_t id = 0; id < state.size(); ++id) {
      if (eligible(id)) ids.push_back(id);
    }
    return ids.empty() ? state.size() : ids[rng() % ids.size()];
  };
  for (std::size_t e = 0; e < want; ++e) {
    step += static_cast<TimeStep>(rng() % 40);
    const std::string at = "@" + std::to_string(step);
    switch (rng() % 8) {
      case 0: {  // crash a live node (also clears its degradation)
        if (live <= cur_k) break;
        const std::size_t id = pick([&](std::size_t i) {
          return state[i] == kUp;
        });
        if (id == state.size()) break;
        state[id] = kDown;
        degraded[id] = 0;
        --live;
        emit("crash=" + std::to_string(id) + at);
        break;
      }
      case 1: {  // recover a crashed node
        const std::size_t id = pick([&](std::size_t i) {
          return state[i] == kDown;
        });
        if (id == state.size()) break;
        state[id] = kUp;
        ++live;
        emit("recover=" + std::to_string(id) + at);
        break;
      }
      case 2: {  // permanent leave of a live node
        if (live <= cur_k) break;
        const std::size_t id = pick([&](std::size_t i) {
          return state[i] == kUp;
        });
        if (id == state.size()) break;
        state[id] = kGone;
        degraded[id] = 0;
        --live;
        emit("leave=" + std::to_string(id) + at);
        break;
      }
      case 3: {  // join a fresh block
        const std::size_t count = 1 + rng() % 4;
        state.insert(state.end(), count, kUp);
        degraded.insert(degraded.end(), count, 0);
        live += count;
        emit("join=+" + std::to_string(count) + at);
        break;
      }
      case 4: {  // dynamic k within the live count
        cur_k = 1 + rng() % live;
        emit("k=" + std::to_string(cur_k) + at);
        break;
      }
      case 5: {  // degrade a clean live node
        const std::size_t id = pick([&](std::size_t i) {
          return state[i] == kUp && degraded[i] == 0;
        });
        if (id == state.size()) break;
        degraded[id] = 1;
        const std::size_t mode = rng() % 3;
        if (mode == 0) {
          emit("lag=" + std::to_string(id) + at + ":" +
               std::to_string(1 + rng() % 50));
        } else {
          emit((mode == 1 ? "stale=" : "mute=") + std::to_string(id) + at);
        }
        break;
      }
      default: {  // heal an actively degraded node
        const std::size_t id = pick([&](std::size_t i) {
          return degraded[i] != 0;
        });
        if (id == state.size()) break;
        degraded[id] = 0;
        emit("heal=" + std::to_string(id) + at);
        break;
      }
    }
  }
  if (tl.events == 0) {
    // Always-legal fallback so the plan is never empty: re-assert k.
    emit("k=" + std::to_string(cur_k) + "@" + std::to_string(step));
  }
  return tl;
}

}  // namespace fuzz

TEST(FaultPlanSpec, FuzzRandomValidTimelinesValidate) {
  std::mt19937_64 rng(0xF00DF00Dull);
  for (int iter = 0; iter < 300; ++iter) {
    const fuzz::Timeline tl = fuzz::random_timeline(rng);
    SCOPED_TRACE(tl.spec);
    const FaultPlan plan(tl.spec, tl.n, tl.k, /*seed=*/iter);
    EXPECT_EQ(plan.events().size(), tl.events);
    EXPECT_EQ(plan.initial_nodes(), tl.n);
  }
}

TEST(FaultPlanSpec, FuzzSpecNameRoundTripsToIdenticalPlan) {
  std::mt19937_64 rng(0xCAFEF00Dull);
  for (int iter = 0; iter < 300; ++iter) {
    const fuzz::Timeline tl = fuzz::random_timeline(rng);
    SCOPED_TRACE(tl.spec);
    const FaultPlan a(tl.spec, tl.n, tl.k, /*seed=*/iter);
    const FaultPlan b(a.spec_name(), tl.n, tl.k, /*seed=*/iter);
    EXPECT_EQ(a.spec_name(), b.spec_name());
    ASSERT_EQ(a.events().size(), b.events().size());
    for (std::size_t i = 0; i < a.events().size(); ++i) {
      EXPECT_EQ(a.events()[i].kind, b.events()[i].kind);
      EXPECT_EQ(a.events()[i].step, b.events()[i].step);
      EXPECT_EQ(a.events()[i].node, b.events()[i].node);
      EXPECT_EQ(a.events()[i].count, b.events()[i].count);
    }
    EXPECT_EQ(a.total_nodes(), b.total_nodes());
    EXPECT_EQ(a.has_churn(), b.has_churn());
    EXPECT_EQ(a.has_degradation(), b.has_degradation());
  }
}

TEST(FaultPlanSpec, GeneratedChurnSpecNameRoundTrips) {
  // The generated form expands to explicit events; spec_name must emit
  // that expansion, and reparsing it must reproduce the events for any
  // seed (the canonical form carries no seed dependence).
  const FaultPlan a("churn?every=50,down=3,count=4,outage=20,k=12@170", 64, 8,
                    9);
  const FaultPlan b(a.spec_name(), 64, 8, /*seed=*/12345);
  ASSERT_EQ(a.events().size(), b.events().size());
  for (std::size_t i = 0; i < a.events().size(); ++i) {
    EXPECT_EQ(a.events()[i].kind, b.events()[i].kind);
    EXPECT_EQ(a.events()[i].step, b.events()[i].step);
    EXPECT_EQ(a.events()[i].node, b.events()[i].node);
  }
}

TEST(FaultPlanSpec, FuzzMutatedKeysHintTheIntendedKey) {
  // Drop one character from a known key: the error must carry the
  // intended key as a did-you-mean hint.
  const struct {
    const char* spec;
    const char* hint;
  } cases[] = {
      {"churn?crsh=1@10", "crash"},     {"churn?recver=1@10", "recover"},
      {"churn?lav=1@10:5", "lag"},      {"churn?stal=1@10", "stale"},
      {"churn?mut=1@10", "mute"},       {"churn?hea=1@10", "heal"},
      {"churn?leae=1@10", "leave"},     {"churn?jin=+4@10", "join"},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.spec);
    try {
      FaultPlan(c.spec, 8, 2, 1);
      FAIL() << "expected invalid_argument";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(c.hint), std::string::npos)
          << e.what();
    }
  }
}

// ---------------------------------------------------------------------------
// End-to-end churn runs
// ---------------------------------------------------------------------------

Scenario churn_scenario(const std::string& monitor, const std::string& network,
                        const std::string& plan, std::size_t n = 48,
                        std::size_t k = 6) {
  Scenario sc;
  sc.monitor = monitor;
  sc.with_stream_family("random_walk");
  sc.stream.walk.hi = 50'000'000;
  sc.stream.walk.max_step = 200;
  sc.with_network(network);
  sc.n = n;
  sc.k = k;
  sc.steps = 300;
  sc.seed = 11;
  sc.faults = plan;
  sc.validation = RunConfig::Validation::kStrict;
  sc.throw_on_error = false;
  return sc;
}

const char* kMixedPlan =
    "churn?crash=5@40,recover=5@80,join=+16@120,leave=2@160,k=10@200,"
    "crash=20@230,recover=20@250";

TEST(FaultInjection, EveryNativeMonitorSurvivesMixedChurnOnInstant) {
  for (const char* mon : {"topk_filter?nobeacon", "naive", "naive_chg"}) {
    SCOPED_TRACE(mon);
    const RunResult r = run_scenario(churn_scenario(mon, "instant",
                                                    kMixedPlan));
    // The monitor must have fully re-converged after the last event; on
    // instant delivery the tail is error-free outright.
    EXPECT_EQ(r.error_steps_since(270), 0u);
    // Recoveries and the join fired the re-sync handshake.
    EXPECT_EQ(r.monitor.resyncs, 18u);  // 2 recoveries + 16 joiners
    // One recovery window per applied event, all bounded (instant repair
    // completes within the event's own step).
    EXPECT_EQ(r.recovery_ticks.size(), 7u);
    EXPECT_LE(r.max_recovery_ticks(), 5'000u);
  }
}

TEST(FaultInjection, ParkedResyncRepliesNeedNoRetryOnInstant) {
  // A re-sync reply that lands while a repair cycle runs is parked and
  // admitted when the cycle ends. On instant delivery nothing is lost, so
  // the coordinator never re-probes (it used to re-probe every
  // probe_timeout ticks until a reply happened to land while idle).
  for (const char* mon : {"topk_filter", "approx?eps=64"}) {
    SCOPED_TRACE(mon);
    const RunResult r =
        run_scenario(churn_scenario(mon, "instant", kMixedPlan));
    EXPECT_EQ(r.monitor.resyncs, 18u);  // 2 recoveries + 16 joiners
    EXPECT_EQ(r.monitor.resync_retries, 0u);
    EXPECT_EQ(r.error_steps_since(250), 0u);  // after the last recovery
  }
}

TEST(FaultInjection, NaiveBatchedReportsStayExactUnderChurnAndDynamicK) {
  // The naive coordinator queues each step's reports and applies them to
  // its tracker in one batch before every answer, extremum read and
  // crash / quarantine / rekey write. On instant delivery that batching
  // must be invisible: the answer is exact at every step of a plan that
  // crashes, recovers, joins, leaves and changes k, monolithic and
  // sharded (whose root reads the shard extrema).
  for (const std::size_t shards : {std::size_t{1}, std::size_t{2}}) {
    for (const char* mon : {"naive", "naive_chg"}) {
      SCOPED_TRACE(std::string(mon) + " shards=" + std::to_string(shards));
      Scenario sc = churn_scenario(mon, "instant", kMixedPlan);
      sc.shards = shards;
      sc.stream.walk.max_step = 2'000'000;  // the boundary moves every step
      const RunResult r = run_scenario(sc);
      EXPECT_EQ(r.error_steps, 0u);
    }
  }
}

TEST(FaultInjection, ErrorAccountingIsConsistent) {
  const RunResult r = run_scenario(
      churn_scenario("topk_filter?nobeacon", "drop=0.1", kMixedPlan));
  EXPECT_EQ(r.error_step_list.size(), r.error_steps);
  EXPECT_EQ(r.error_steps_since(0), r.error_steps);
  EXPECT_EQ(r.error_steps_since(r.config.steps + 1), 0u);
  TimeStep prev = 0;
  for (const TimeStep t : r.error_step_list) {
    EXPECT_GE(t, prev);  // ascending (lower_bound contract)
    prev = t;
  }
}

TEST(FaultInjection, CrashDuringExtremumSelection) {
  // k close to n: every FILTERRESET selection involves most live nodes, so
  // crashing nodes mid-run reliably hits in-flight selections (winner or
  // participant), exercising the structural-repair path. A volatile walk
  // keeps resets frequent. k = 10 is the ceiling the plan validator
  // allows: each burst takes 2 of the 12 nodes down.
  Scenario sc = churn_scenario("topk_filter", "instant",
                               "churn?every=20,down=2,count=6,outage=8", 12,
                               10);
  sc.stream.walk.max_step = 5'000'000;
  const RunResult r = run_scenario(sc);
  EXPECT_EQ(r.error_steps_since(200), 0u);
  EXPECT_GT(r.monitor.resyncs, 0u);
}

TEST(FaultInjection, RecoverDuringRenegotiationAndDynamicK) {
  // Recovery and a k change on the same step: the re-sync handshake must
  // survive the reset storm the rekey triggers.
  const char* plan = "churn?crash=3@50,recover=3@100,k=9@100,k=2@180";
  for (const char* mon : {"topk_filter?nobeacon", "naive_chg"}) {
    SCOPED_TRACE(mon);
    const RunResult r = run_scenario(churn_scenario(mon, "instant", plan, 24,
                                                    4));
    EXPECT_EQ(r.error_steps_since(250), 0u);
    EXPECT_EQ(r.monitor.resyncs, 1u);
  }
}

TEST(FaultInjection, DynamicKReKeysFilterNodes) {
  // A dynamic-k reset must re-key the nodes, not only the coordinator:
  // each node derives its membership from the announce order and the k
  // its kStartSelection control carries. A node that kept its
  // construction-time k would hold a wrong filter, violate every step and
  // drag the coordinator into one FILTERRESET per step. So after each k
  // event the filter family settles like ordered does: exact answers and
  // at most one reset per k event plus the initial one.
  struct Plan {
    const char* spec;
    std::uint64_t k_events;
  };
  for (const Plan& plan : {Plan{"churn?k=10@80", 1},
                           Plan{"churn?k=20@80,k=4@180", 2}}) {
    for (const char* mon : {"topk_filter", "topk_filter?nobeacon",
                            "approx?eps=64", "ordered"}) {
      SCOPED_TRACE(std::string(mon) + " " + plan.spec);
      const RunResult r = run_scenario(churn_scenario(mon, "instant",
                                                      plan.spec));
      EXPECT_EQ(r.error_steps, 0u);
      EXPECT_LE(r.monitor.filter_resets, plan.k_events + 1);
    }
  }
}

TEST(FaultInjection, JoinBlockExtendsIdRange) {
  // Joining ids live in [n, total_nodes); the answer may contain them
  // after the join step.
  Scenario sc = churn_scenario("naive", "instant", "churn?join=+8@50", 16, 12);
  bool saw_joiner = false;
  sc.on_step = [&](TimeStep t, const std::vector<Value>&,
                   const std::vector<NodeId>& answer) {
    for (const NodeId id : answer) {
      ASSERT_LT(id, 24u);
      if (t < 50) {
        ASSERT_LT(id, 16u) << "joiner answered before its join";
      }
      if (id >= 16) saw_joiner = true;
    }
  };
  const RunResult r = run_scenario(sc);
  EXPECT_EQ(r.error_steps, 0u);
  // 12 of 24 slots: with 8 fresh random walkers, some joiner reaches the
  // top-12 over 250 steps (the ground truth would flag it if the monitor
  // missed it; this asserts the scenario actually exercised the case).
  EXPECT_TRUE(saw_joiner);
}

TEST(FaultInjection, ChurnComposedWithDropLadder) {
  // The e15 drop ladder under generated churn: the run must complete with
  // consistent accounting at every rate, and stay exact at rate 0.
  for (const double rate : {0.002, 0.01, 0.05, 0.2}) {
    SCOPED_TRACE(rate);
    Scenario sc = churn_scenario("topk_filter?nobeacon,backoff",
                                 "drop=" + std::to_string(rate),
                                 "churn?every=60,down=3,count=3,outage=25");
    sc.validation = RunConfig::Validation::kWeak;
    const RunResult r = run_scenario(sc);
    EXPECT_EQ(r.steps_executed, 301u);
    EXPECT_EQ(r.error_step_list.size(), r.error_steps);
    EXPECT_EQ(r.monitor.resyncs, 9u);
  }
}

// ---------------------------------------------------------------------------
// Determinism contracts
// ---------------------------------------------------------------------------

TEST(FaultInjection, RepeatedRunsAreIdentical) {
  const Scenario sc = churn_scenario("naive_chg", "jitter=3", kMixedPlan);
  const RunResult a = run_scenario(sc);
  const RunResult b = run_scenario(sc);
  EXPECT_EQ(a.comm.total(), b.comm.total());
  EXPECT_EQ(a.error_step_list, b.error_step_list);
  EXPECT_EQ(a.recovery_ticks, b.recovery_ticks);
}

TEST(FaultInjection, NoFaultRunIsByteIdenticalToDefault) {
  // faults = "none" / "" must leave every allocation and RNG stream
  // untouched: identical messages by kind, identical answers.
  Scenario base = churn_scenario("topk_filter", "jitter=2", "none");
  Scenario empty = base;
  empty.faults = "";
  const RunResult a = run_scenario(base);
  const RunResult b = run_scenario(empty);
  EXPECT_EQ(a.comm.total(), b.comm.total());
  EXPECT_EQ(a.comm.upstream(), b.comm.upstream());
  EXPECT_EQ(a.error_steps, b.error_steps);
  EXPECT_TRUE(a.recovery_ticks.empty());
  EXPECT_TRUE(b.recovery_ticks.empty());
}

TEST(FaultInjection, NonNativeMonitorRejected) {
  // Every monitor is a native role pair now: `recompute`, once the one
  // monitor without a port, runs a churn plan like the rest.
  Scenario sc = churn_scenario("recompute", "instant", "churn?crash=1@10");
  EXPECT_NO_THROW(run_scenario(sc));

  // multi_k monitors a fixed set of k values and has no on_set_k: a plan
  // with a dynamic-k event is rejected before the run starts, naming the
  // monitor, instead of diverging (and throwing) mid-run. Its churn-only
  // plans still run.
  Scenario multik = churn_scenario("multi_k", "instant", "churn?k=10@80");
  multik.throw_on_error = true;
  bool stepped = false;
  multik.on_step = [&stepped](TimeStep, const std::vector<Value>&,
                              const std::vector<NodeId>&) { stepped = true; };
  try {
    run_scenario(multik);
    ADD_FAILURE() << "multi_k accepted a dynamic-k plan";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("multi_k"), std::string::npos)
        << e.what();
  }
  EXPECT_FALSE(stepped);
  multik.faults = "churn?crash=3@40,recover=3@80";
  multik.throw_on_error = false;
  multik.on_step = nullptr;
  EXPECT_NO_THROW(run_scenario(multik));
}

// ---------------------------------------------------------------------------
// Sharded deployments: churn and k plans (degradations rejected)
// ---------------------------------------------------------------------------

TEST(FaultInjection, ShardedRejectsDegradationsAcceptsDynamicK) {
  Scenario sc = churn_scenario("topk_filter?nobeacon", "instant",
                               "churn?mute=1@10,heal=1@30", 64, 8);
  sc.shards = 4;
  EXPECT_THROW(run_scenario(sc), std::invalid_argument);

  for (const std::size_t shards : {std::size_t{1}, std::size_t{4}}) {
    SCOPED_TRACE(shards);
    for (const char* mon : {"topk_filter?nobeacon", "naive_chg"}) {
      SCOPED_TRACE(mon);
      Scenario ks = churn_scenario(mon, "instant", "churn?k=20@80,k=4@180",
                                   64, 8);
      ks.shards = shards;
      const RunResult r = run_scenario(ks);
      // Quota renegotiation keeps the merged answer exact on instant
      // delivery: no divergence at any step, at either shard count.
      EXPECT_EQ(r.error_steps, 0u);
    }
  }
}

TEST(FaultInjection, ShardedMixedChurnReachesExactTail) {
  // The full membership-churn grammar at c in {2, 4}: crashes, a
  // recovery, a join block (which lands entirely in shards provisioned as
  // join reserve), a leave and a dynamic k. The deployment carves the
  // plan into per-shard schedules; the tail must be exact after the last
  // event re-converges, with every recovery window bounded.
  for (const std::size_t shards : {std::size_t{2}, std::size_t{4}}) {
    SCOPED_TRACE(shards);
    for (const char* mon : {"topk_filter?nobeacon", "naive", "naive_chg"}) {
      SCOPED_TRACE(mon);
      Scenario sc = churn_scenario(mon, "instant", kMixedPlan);
      sc.shards = shards;
      const RunResult r = run_scenario(sc);
      EXPECT_EQ(r.error_steps_since(270), 0u);
      EXPECT_EQ(r.recovery_ticks.size(), 7u);
      EXPECT_LE(r.max_recovery_ticks(), 50'000u);
    }
  }
}

TEST(FaultInjection, ShardedWholeShardOutageDrainsQuotaAndRecovers) {
  // n = 64, c = 4: shard 0 owns ids [0, 16). Crashing all of it at step
  // 40 leaves its quota unfillable; the under-fill report (U_s = -inf)
  // makes the root drain the quota to the live shards. Exactness on the
  // outage plateau proves the drain happened — a shard holding quota it
  // cannot fill would leave the union short of k and fail strict
  // validation every step. Recovery at 160 regrants via the resync ->
  // violation -> crossing chain.
  std::string plan = "churn?";
  for (int id = 0; id < 16; ++id) {
    plan += "crash=" + std::to_string(id) + "@40,";
  }
  for (int id = 0; id < 16; ++id) {
    plan += "recover=" + std::to_string(id) + "@160,";
  }
  plan.pop_back();
  for (const char* mon : {"topk_filter?nobeacon", "naive"}) {
    SCOPED_TRACE(mon);
    Scenario sc = churn_scenario(mon, "instant", plan, 64, 8);
    sc.shards = 4;
    const RunResult r = run_scenario(sc);
    // Exact on the outage plateau (quota fully drained)...
    EXPECT_EQ(r.error_steps_since(100), r.error_steps_since(160));
    // ...and exact again after the recovery renegotiation settles.
    EXPECT_EQ(r.error_steps_since(250), 0u);
    EXPECT_LE(r.max_recovery_ticks(), 50'000u);
  }
}

TEST(FaultInjection, ShardedSetKValidatesRange) {
  ShardedSpec spec;
  spec.n = 16;
  spec.k = 4;
  spec.shards = 2;
  spec.seed = 3;
  ShardedDeployment dep(spec);
  for (NodeId id = 0; id < 16; ++id) {
    dep.set_value(id, static_cast<Value>(id + 1));
  }
  dep.initialize();
  EXPECT_THROW(dep.set_k(0), std::invalid_argument);
  EXPECT_THROW(dep.set_k(17), std::invalid_argument);
}

}  // namespace
}  // namespace topkmon
