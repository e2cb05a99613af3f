// The bit-compatibility contract: the activity-driven sparse event loop
// (sparse per-tick scan + quiet-range-gated on_observe + changed-node
// detection) must be indistinguishable from the legacy dense loop — same
// messages by direction and kind, same monitor counters (which see every
// re-raised violation signal), same per-step answers, same error pattern
// — for every monitor on every network policy it can run on, across both
// quiet-capable (sparse wrapper) and arbitrary workloads, under fault
// plans and in sharded deployments.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "exp/scenario.hpp"
#include "sim/message.hpp"

namespace topkmon {
namespace {

using exp::Scenario;
using exp::run_scenario;

struct LoopTrace {
  RunResult result;
  std::vector<std::vector<NodeId>> answers;
};

LoopTrace run_loop(const std::string& monitor, const std::string& family,
                   const std::string& network, const std::string& faults,
                   Value max_step, std::size_t shards, bool dense) {
  Scenario sc;
  sc.monitor = monitor;
  sc.shards = shards;
  sc.with_stream_family(family);
  sc.stream.walk.max_step = max_step;
  sc.with_network(network);
  sc.n = 24;
  sc.k = 5;
  sc.steps = 120;
  sc.seed = 77;
  sc.dense_loop = dense;
  sc.faults = faults;
  // Lossy / budgeted networks legitimately diverge from the ground truth;
  // the invariant under test is that both loops diverge identically.
  sc.validation = RunConfig::Validation::kWeak;
  sc.throw_on_error = false;
  LoopTrace trace;
  sc.on_step = [&trace](TimeStep, const std::vector<Value>&,
                        const std::vector<NodeId>& answer) {
    trace.answers.push_back(answer);
  };
  trace.result = run_scenario(sc);
  return trace;
}

void expect_equivalent(const std::string& monitor, const std::string& family,
                       const std::string& network,
                       const std::string& faults = "none",
                       Value max_step = 5'000, std::size_t shards = 1) {
  SCOPED_TRACE(monitor + " / " + family + " / " + network + " / " + faults +
               " / shards " + std::to_string(shards));
  const LoopTrace sparse =
      run_loop(monitor, family, network, faults, max_step, shards, false);
  const LoopTrace dense =
      run_loop(monitor, family, network, faults, max_step, shards, true);

  // Messages: totals, directions, and every kind (beacons, announces,
  // filter updates, probes ... — a missed coin flip or skipped signal
  // shifts these immediately).
  EXPECT_EQ(sparse.result.comm.total(), dense.result.comm.total());
  EXPECT_EQ(sparse.result.comm.upstream(), dense.result.comm.upstream());
  EXPECT_EQ(sparse.result.comm.unicast(), dense.result.comm.unicast());
  EXPECT_EQ(sparse.result.comm.broadcast(), dense.result.comm.broadcast());
  for (std::size_t k = 0; k < kNumMsgKinds; ++k) {
    EXPECT_EQ(sparse.result.comm.by_kind(static_cast<MsgKind>(k)),
              dense.result.comm.by_kind(static_cast<MsgKind>(k)))
        << msg_kind_name(static_cast<MsgKind>(k));
  }

  // Monitor counters, including the violation counts fed by per-step
  // signals (a node in violation must re-signal every step even when its
  // value is unchanged — the needs-observe contract).
  EXPECT_EQ(sparse.result.monitor.violation_steps,
            dense.result.monitor.violation_steps);
  EXPECT_EQ(sparse.result.monitor.violations, dense.result.monitor.violations);
  EXPECT_EQ(sparse.result.monitor.protocol_runs,
            dense.result.monitor.protocol_runs);
  EXPECT_EQ(sparse.result.monitor.filter_resets,
            dense.result.monitor.filter_resets);
  EXPECT_EQ(sparse.result.monitor.full_rebuilds,
            dense.result.monitor.full_rebuilds);
  EXPECT_EQ(sparse.result.monitor.resyncs, dense.result.monitor.resyncs);
  EXPECT_EQ(sparse.result.monitor.suspicions, dense.result.monitor.suspicions);
  EXPECT_EQ(sparse.result.monitor.quarantines,
            dense.result.monitor.quarantines);
  EXPECT_EQ(sparse.result.monitor.stale_detections,
            dense.result.monitor.stale_detections);
  EXPECT_EQ(sparse.result.root_comm.total(), dense.result.root_comm.total());

  // Validation outcome and the answer itself, step by step.
  EXPECT_EQ(sparse.result.error_steps, dense.result.error_steps);
  EXPECT_EQ(sparse.result.correct, dense.result.correct);
  EXPECT_EQ(sparse.result.first_error_step, dense.result.first_error_step);
  ASSERT_EQ(sparse.answers.size(), dense.answers.size());
  for (std::size_t t = 0; t < sparse.answers.size(); ++t) {
    EXPECT_EQ(sparse.answers[t], dense.answers[t]) << "step " << t;
  }
}

const std::vector<std::string>& workloads() {
  // One quiet-capable family (activity interface + sparse observe) and
  // one dense stochastic family (previous-value compare path).
  static const std::vector<std::string> w{
      "sparse?rate=0.2,inner=random_walk", "random_walk"};
  return w;
}

TEST(SparseDenseLoop, AllMonitorsOnInstant) {
  for (const char* monitor :
       {"topk_filter", "topk_filter?nobeacon", "ordered", "slack", "dominance",
        "recompute", "naive", "naive_chg", "approx?eps=1000",
        "multi_k?ks=2+5"}) {
    for (const std::string& family : workloads()) {
      expect_equivalent(monitor, family, "instant");
    }
  }
}

TEST(SparseDenseLoop, NativeMonitorsOnScheduledNetworks) {
  for (const char* monitor : {"topk_filter", "naive", "naive_chg"}) {
    for (const char* network :
         {"delay=2,jitter=1", "drop=0.1", "batch=2", "delay=1,drop=0.05",
          "delay=3,ticks=4", "delay=1,jitter=2,ticks=8"}) {
      for (const std::string& family : workloads()) {
        expect_equivalent(monitor, family, network);
      }
    }
  }
}

// Fault plans change which nodes may skip an observe: a crash masks the
// node out, a recovery or join resets its quiet range to empty, and a
// degraded node keeps observing while its reports are held, frozen or
// discarded.
TEST(SparseDenseLoop, NativeMonitorsUnderChurn) {
  for (const char* monitor :
       {"topk_filter", "approx?eps=1000", "slack", "ordered", "dominance",
        "multi_k?ks=2+5", "naive", "naive_chg"}) {
    for (const char* plan :
         {"churn?crash=3@20,recover=3@50,join=+4@60,leave=10@80,"
          "crash=17@90,recover=17@110",
          "churn?every=30,down=2,count=3,outage=15"}) {
      for (const std::string& family : workloads()) {
        expect_equivalent(monitor, family, "instant", plan);
      }
    }
  }
}

TEST(SparseDenseLoop, FilterUnderDegradationsWithSuspect) {
  // Volatile walks: the degraded nodes keep crossing the boundary, so
  // suspicions, quarantines and stale convictions all fire.
  for (const char* network : {"instant", "delay=1,jitter=1"}) {
    for (const std::string& family : workloads()) {
      expect_equivalent("topk_filter?suspect", family, network,
                        "churn?lag=2@20:30,stale=5@30,mute=7@40,heal=2@70,"
                        "heal=5@80,heal=7@90",
                        500'000);
    }
  }
}

TEST(SparseDenseLoop, ShardedDeployments) {
  constexpr std::size_t kShards = 4;
  for (const char* monitor : {"topk_filter", "naive", "naive_chg"}) {
    for (const char* plan :
         {"none", "churn?crash=3@20,recover=3@50,crash=14@60,recover=14@90"}) {
      for (const std::string& family : workloads()) {
        expect_equivalent(monitor, family, "instant", plan, 5'000, kShards);
      }
    }
    expect_equivalent(monitor, workloads()[0], "delay=1,drop=0.05", "none",
                      5'000, kShards);
  }
}

TEST(SparseDenseLoop, StrictValidationStaysExactOnInstant) {
  // Beyond mutual equivalence: on the instant network the sparse loop
  // must also stay exactly correct against the ground truth.
  Scenario sc;
  sc.monitor = "topk_filter";
  sc.with_stream_family("sparse?rate=0.1,inner=random_walk");
  sc.stream.walk.max_step = 20'000;
  sc.n = 32;
  sc.k = 6;
  sc.steps = 250;
  sc.seed = 5;
  sc.validation = RunConfig::Validation::kStrict;
  const RunResult r = run_scenario(sc);  // throws on divergence
  EXPECT_TRUE(r.correct);
}

}  // namespace
}  // namespace topkmon
