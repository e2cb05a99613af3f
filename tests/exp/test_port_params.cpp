// Monitor-spec parameter round-trips for the five newly-native ports:
// every documented `?key=value` must reach both factories (lock-step
// make_monitor and native make_role_pair) with the same meaning — the
// twin runs of the differential harness only prove something if both
// sides were built from the same configuration. Plus the composition
// rules: `?shards=` is a deployment parameter that must split off
// cleanly (and be rejected where no sharded deployment exists), and
// `?suspect` is a native-roles-only knob accepted exactly where the
// suspicion machinery lives.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "exp/monitor_registry.hpp"
#include "exp/scenario.hpp"
#include "sim/cluster.hpp"

namespace topkmon {
namespace {

std::string native_name(const std::string& spec, std::size_t k = 4) {
  Cluster cluster(16, 1);
  const auto pair = exp::make_role_pair(cluster, spec, k);
  EXPECT_TRUE(pair.native) << spec;
  return std::string(pair.coordinator->name());
}

std::string lockstep_name(const std::string& spec, std::size_t k = 4) {
  return std::string(exp::make_monitor(spec, k)->name());
}

TEST(PortParams, NamesRoundTripThroughBothFactories) {
  // name() encodes the effective configuration (e.g. the slack placement
  // mode), so twin name equality pins that a parameter reached both
  // implementations — the harness compares monitor_name first.
  for (const char* spec :
       {"slack", "slack?alpha=0.25", "slack?adaptive", "dominance", "ordered",
        "approx?eps=64", "multi_k", "multi_k?ks=2+8+16"}) {
    SCOPED_TRACE(spec);
    EXPECT_EQ(native_name(spec), lockstep_name(spec));
  }
  EXPECT_EQ(native_name("slack?adaptive"), "slack_adaptive");
  EXPECT_EQ(native_name("slack?alpha=0.1"), "slack_fixed");
  EXPECT_EQ(native_name("dominance"), "dominance_midpoint");
  EXPECT_EQ(native_name("ordered"), "ordered_topk");
  EXPECT_EQ(native_name("approx?eps=64"), "approx_topk");
  EXPECT_EQ(native_name("multi_k?ks=2+8"), "multi_k");
}

TEST(PortParams, UnknownAndMalformedParamsRejectOnBothPaths) {
  Cluster cluster(16, 1);
  for (const char* spec :
       {"dominance?alpha=1",      // dominance takes no parameters
        "ordered?alpha=1",        // ordered takes only nobeacon
        "slack?eps=64",           // eps belongs to approx
        "slack?alpha=abc",        // unparseable double
        "approx?eps=abc",         // unparseable int
        "multi_k?ks=",            // empty list
        "multi_k?ks=5+2",         // not strictly increasing
        "multi_k?ks=4+4"}) {      // duplicates are not increasing either
    SCOPED_TRACE(spec);
    EXPECT_THROW(exp::make_monitor(spec, 4), std::invalid_argument);
    EXPECT_THROW(exp::make_role_pair(cluster, spec, 4),
                 std::invalid_argument);
  }
}

TEST(PortParams, SuspectKnobIsNativeOnlyAndScoped) {
  Cluster cluster(16, 1);
  // Accepted where the suspicion machinery exists (the filter family and
  // the naive baselines)...
  for (const char* spec :
       {"topk_filter?suspect", "approx?eps=64,suspect", "naive?suspect",
        "naive_chg?suspect"}) {
    SCOPED_TRACE(spec);
    EXPECT_TRUE(exp::make_role_pair(cluster, spec, 4).native);
  }
  // ...rejected on ports without it (a silently ignored `?suspect` would
  // report an adversarial sweep as hardened when it never was), and on
  // the lock-step factory (native-roles-only knob).
  for (const char* spec : {"slack?suspect", "dominance?suspect",
                           "ordered?suspect", "multi_k?suspect"}) {
    SCOPED_TRACE(spec);
    EXPECT_THROW(exp::make_role_pair(cluster, spec, 4),
                 std::invalid_argument);
  }
  EXPECT_THROW(exp::make_monitor("approx?eps=64,suspect", 4),
               std::invalid_argument);
}

TEST(PortParams, ShardsParamSplitsAndComposes) {
  // `?shards=` never reaches the monitor factories: it splits off as a
  // deployment property, leaving the remaining spec intact in order.
  const auto [slack_rest, slack_shards] =
      exp::split_shards_param("slack?shards=2,alpha=0.1");
  EXPECT_EQ(slack_rest, "slack?alpha=0.1");
  EXPECT_EQ(slack_shards, 2u);
  const auto [multik_rest, multik_shards] =
      exp::split_shards_param("multi_k?ks=2+8,shards=4");
  EXPECT_EQ(multik_rest, "multi_k?ks=2+8");
  EXPECT_EQ(multik_shards, 4u);
  const auto [plain_rest, plain_shards] = exp::split_shards_param("ordered");
  EXPECT_EQ(plain_rest, "ordered");
  EXPECT_EQ(plain_shards, 0u);  // 0 = "not given", distinct from =1
}

TEST(PortParams, ShardedDeploymentRejectsPortsWithoutOne) {
  // The two-tier sharded runner supports the filter/naive families only;
  // the newly-native ports must be rejected up front with a clear error,
  // not run monolithically under a silently dropped parameter.
  // Parameters of shardable monitors that the shard adapters would drop
  // (only topk_filter's nobeacon reaches the shards) are rejected too.
  for (const char* monitor :
       {"slack?shards=2", "dominance?shards=2", "ordered?shards=2",
        "approx?eps=64,shards=2", "multi_k?ks=2+8,shards=2",
        "topk_filter?backoff,shards=2", "topk_filter?suspect,shards=2",
        "topk_filter?replay,shards=2", "topk_filter?eps=64,shards=2",
        "naive?suspect,shards=2", "naive_chg?nobeacon,shards=2"}) {
    SCOPED_TRACE(monitor);
    exp::Scenario sc;
    sc.monitor = monitor;
    sc.n = 16;
    sc.k = 4;
    sc.steps = 5;
    EXPECT_THROW(exp::run_scenario(sc), std::invalid_argument);
  }
  // The rejection lists the shardable monitors, read off the registry.
  try {
    exp::parse_sharded_spec("ordered");
    ADD_FAILURE() << "ordered has no sharded deployment";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("topk_filter, naive, naive_chg"),
              std::string::npos)
        << e.what();
  }
  const ShardedSpec nobeacon = exp::parse_sharded_spec("topk_filter?nobeacon");
  EXPECT_EQ(nobeacon.monitor, ShardedSpec::Monitor::kFilter);
  EXPECT_TRUE(nobeacon.suppress_idle_broadcasts);
  EXPECT_EQ(exp::parse_sharded_spec("naive_chg").monitor,
            ShardedSpec::Monitor::kNaiveChg);
}

}  // namespace
}  // namespace topkmon
