// Monitor-spec parameter round-trips for the native ports: every
// documented `?key=value` must reach the role pair with its meaning —
// the golden records of the differential harness only prove something
// if the port was built from the recorded configuration. Plus the composition
// rules: the shard count is Scenario::shards alone (a `?shards=` monitor
// parameter is rejected like any unknown one, and shards > 1 is rejected
// where no sharded deployment exists), and `?suspect` is a
// native-roles-only knob accepted exactly where the suspicion machinery
// lives.
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

TEST(PortParams, NamesRoundTripThroughBothFactories) {
  // name() encodes the effective configuration (e.g. the slack placement
  // mode), so the name pins that a parameter reached the port — the
  // harness compares monitor_name with the golden record first.
  EXPECT_EQ(native_name("slack"), "slack_fixed");
  EXPECT_EQ(native_name("slack?alpha=0.25"), "slack_fixed");
  EXPECT_EQ(native_name("slack?adaptive"), "slack_adaptive");
  EXPECT_EQ(native_name("slack?alpha=0.1"), "slack_fixed");
  EXPECT_EQ(native_name("dominance"), "dominance_midpoint");
  EXPECT_EQ(native_name("ordered"), "ordered_topk");
  EXPECT_EQ(native_name("approx?eps=64"), "approx_topk");
  EXPECT_EQ(native_name("multi_k?ks=2+8"), "multi_k");
  EXPECT_EQ(native_name("multi_k"), "multi_k");
  EXPECT_EQ(native_name("recompute?nobeacon"), "recompute");
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
  // report an adversarial sweep as hardened when it never was).
  for (const char* spec : {"slack?suspect", "dominance?suspect",
                           "ordered?suspect", "multi_k?suspect",
                           "recompute?suspect"}) {
    SCOPED_TRACE(spec);
    EXPECT_THROW(exp::make_role_pair(cluster, spec, 4),
                 std::invalid_argument);
  }
}

TEST(PortParams, ShardsIsNotAMonitorParameter) {
  // The shard count lives in Scenario::shards only: a `?shards=` spec
  // parameter is unknown to every monitor, on both deployments.
  for (const char* monitor :
       {"topk_filter?shards=2", "topk_filter?shards=1", "naive?shards=4"}) {
    SCOPED_TRACE(monitor);
    exp::Scenario sc;
    sc.monitor = monitor;
    sc.n = 16;
    sc.k = 4;
    sc.steps = 5;
    EXPECT_THROW(exp::run_scenario(sc), std::invalid_argument);
    sc.shards = 2;
    EXPECT_THROW(exp::run_scenario(sc), std::invalid_argument);
  }
}

TEST(PortParams, ShardedDeploymentRejectsPortsWithoutOne) {
  // The two-tier sharded runner supports the filter/naive families only;
  // the newly-native ports must be rejected up front with a clear error,
  // not run monolithically under a silently dropped parameter.
  // Parameters of shardable monitors that the shard adapters would drop
  // (only topk_filter's nobeacon reaches the shards) are rejected too.
  for (const char* monitor :
       {"slack", "dominance", "ordered", "approx?eps=64", "multi_k?ks=2+8",
        "topk_filter?backoff", "topk_filter?suspect", "topk_filter?replay",
        "topk_filter?eps=64", "naive?suspect", "naive_chg?nobeacon"}) {
    SCOPED_TRACE(monitor);
    exp::Scenario sc;
    sc.monitor = monitor;
    sc.n = 16;
    sc.k = 4;
    sc.steps = 5;
    sc.shards = 2;
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
