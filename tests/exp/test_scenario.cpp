// The Scenario layer: registry spec parsing, declarative construction,
// run_scenario semantics across network policies, the graceful-
// degradation properties of the native role implementations, and the
// single-worker contract of the kept `workers` fields.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <memory>
#include <stdexcept>
#include <string>

#include "core/driver.hpp"
#include "core/root_merge.hpp"
#include "exp/monitor_registry.hpp"
#include "exp/scenario.hpp"
#include "exp/sweep_grid.hpp"
#include "exp/sweep_runner.hpp"

namespace topkmon {
namespace {

using exp::Scenario;
using exp::run_scenario;

Scenario base_scenario(const std::string& monitor) {
  Scenario sc;
  sc.monitor = monitor;
  sc.stream.family = StreamFamily::kRandomWalk;
  sc.stream.walk.max_step = 10'000;
  sc.n = 16;
  sc.k = 4;
  sc.steps = 150;
  sc.seed = 21;
  return sc;
}

TEST(MonitorSpecTest, ParameterizedSpecsConstruct) {
  Cluster cluster(8, 1);
  for (const char* spec :
       {"topk_filter", "topk_filter?nobeacon", "slack?alpha=0.25,adaptive",
        "approx?eps=100", "multi_k?ks=1+2+4", "naive_chg", "ordered",
        "dominance", "recompute?nobeacon=true"}) {
    SCOPED_TRACE(spec);
    EXPECT_TRUE(exp::is_known_monitor(spec));
    EXPECT_NE(exp::make_role_pair(cluster, spec, 2).coordinator, nullptr);
  }
}

TEST(MonitorSpecTest, MalformedSpecsThrow) {
  Cluster cluster(8, 1);
  for (const char* spec : {"no_such_monitor", "topk_filter?bogus=1",
                           "slack?alpha=abc", "multi_k?ks=",
                           "recompute?bogus"}) {
    EXPECT_THROW(exp::make_role_pair(cluster, spec, 2), std::invalid_argument)
        << spec;
  }
  EXPECT_FALSE(exp::is_known_monitor("no_such_monitor"));
  EXPECT_TRUE(exp::is_known_monitor("topk_filter?bogus=1"));  // base name
}

TEST(MonitorSpecTest, NativeListMatchesRolePairs) {
  // Every registered monitor is one native role pair.
  Cluster cluster(4, 1);
  for (const auto& name : exp::all_monitor_names()) {
    const auto pair = exp::make_role_pair(cluster, name, 2);
    EXPECT_TRUE(pair.native) << name;
    EXPECT_EQ(pair.nodes.size(), cluster.size()) << name;
  }
}

TEST(ScenarioTest, FluentHelpersParseNames) {
  Scenario sc;
  sc.with_monitor("naive").with_stream_family("zipf").with_network(
      "delay=2,ticks=8");
  EXPECT_EQ(sc.monitor, "naive");
  EXPECT_EQ(sc.stream.family, StreamFamily::kZipf);
  EXPECT_EQ(sc.network.delay, 2u);
  EXPECT_EQ(sc.network.ticks_per_step, 8u);
  EXPECT_THROW(sc.with_stream_family("nope"), std::invalid_argument);
  EXPECT_THROW(sc.with_network("warp=1"), std::invalid_argument);
}

TEST(ScenarioTest, RunsAreDeterministic) {
  for (const char* net :
       {"instant", "delay=2", "drop=0.1", "delay=1,ticks=4"}) {
    SCOPED_TRACE(net);
    Scenario sc = base_scenario("topk_filter");
    sc.with_network(net);
    sc.throw_on_error = false;
    const auto a = run_scenario(sc);
    const auto b = run_scenario(sc);
    EXPECT_EQ(a.comm.total(), b.comm.total());
    EXPECT_EQ(a.comm.upstream(), b.comm.upstream());
    EXPECT_EQ(a.error_steps, b.error_steps);
    EXPECT_EQ(a.network, parse_network_spec(net).name());
  }
}

TEST(ScenarioTest, FilterStaysExactUnderPureDelay) {
  // Run-to-quiescence + lossless delay: sessions wait out the lag, so
  // Algorithm 1 must remain strictly correct — latency alone costs
  // messages (weaker beacon pruning), never answers.
  Scenario instant = base_scenario("topk_filter");
  const auto r0 = run_scenario(instant);

  Scenario delayed = base_scenario("topk_filter");
  delayed.with_network("delay=3");
  const auto r3 = run_scenario(delayed);  // throws on any divergence

  EXPECT_TRUE(r3.correct);
  EXPECT_GE(r3.comm.upstream(), r0.comm.upstream());
}

TEST(ScenarioTest, NaiveGoesStaleOnceDelayExceedsCadence) {
  // iid uniform reshuffles the top-k almost every step, so a replica even
  // one observation behind is almost always wrong.
  Scenario on_time = base_scenario("naive");
  on_time.stream.family = StreamFamily::kIidUniform;
  on_time.with_network("delay=2,ticks=4");
  on_time.throw_on_error = false;
  EXPECT_EQ(run_scenario(on_time).error_steps, 0u);

  Scenario late = base_scenario("naive");
  late.stream.family = StreamFamily::kIidUniform;
  late.with_network("delay=12,ticks=4");
  late.throw_on_error = false;
  EXPECT_GT(run_scenario(late).error_steps, 100u);
}

TEST(ScenarioTest, LossIsRecordedNotThrownWhenTolerated) {
  Scenario sc = base_scenario("topk_filter");
  sc.with_network("drop=0.2");
  sc.throw_on_error = false;
  const auto r = run_scenario(sc);
  EXPECT_EQ(r.steps_executed, sc.steps + 1);
  EXPECT_GT(r.error_steps, 0u);   // 20% loss must hurt a stateful monitor
  EXPECT_FALSE(r.correct);
  EXPECT_DOUBLE_EQ(r.error_rate(),
                   static_cast<double>(r.error_steps) /
                       static_cast<double>(r.steps_executed));
}

TEST(ScenarioTest, RejectsInvalidShapes) {
  Scenario sc = base_scenario("topk_filter");
  sc.k = 0;
  EXPECT_THROW(run_scenario(sc), std::invalid_argument);
  sc.k = sc.n + 1;
  EXPECT_THROW(run_scenario(sc), std::invalid_argument);
}

// Scenario::workers, ShardedSpec::workers and SimDriver's 5-argument
// constructor remain for perfbench only; each accepts exactly 1.
TEST(ScenarioTest, RejectsWorkersOtherThanOne) {
  for (const std::size_t workers : {std::size_t{2}, std::size_t{0}}) {
    SCOPED_TRACE(workers);
    for (const std::size_t shards : {std::size_t{1}, std::size_t{4}}) {
      SCOPED_TRACE(shards);
      Scenario sc = base_scenario("topk_filter");
      sc.shards = shards;
      sc.workers = workers;
      bool stepped = false;
      sc.on_step = [&stepped](TimeStep, const std::vector<Value>&,
                              const std::vector<NodeId>&) { stepped = true; };
      EXPECT_THROW(run_scenario(sc), std::invalid_argument);
      EXPECT_FALSE(stepped);
    }
    // Built at a shard count it accepts, so the throw is the workers
    // check's.
    ShardedSpec spec;
    spec.n = 16;
    spec.k = 4;
    spec.shards = 4;
    spec.workers = workers;
    EXPECT_THROW(ShardedDeployment{spec}, std::invalid_argument);
  }
}

TEST(ScenarioTest, DriverConstructorRejectsWorkersOtherThanOne) {
  Cluster cluster(8, 3);
  for (NodeId id = 0; id < 8; ++id) {
    cluster.set_value(id, static_cast<Value>(100 * (id + 1)));
  }
  exp::RolePair pair = exp::make_role_pair(cluster, "topk_filter", 2);
  for (const std::size_t workers : {std::size_t{2}, std::size_t{0}}) {
    EXPECT_THROW((SimDriver{cluster, *pair.coordinator, pair.nodes,
                            pair.native, workers}),
                 std::invalid_argument)
        << "workers " << workers;
  }
  EXPECT_EQ(cluster.stats().total(), 0u);  // no callback ran, nothing sent
  SimDriver driver(cluster, *pair.coordinator, pair.nodes, pair.native, 1);
  driver.initialize();
  EXPECT_EQ(pair.coordinator->topk().size(), 2u);
}

// Every monitor is a native role pair, so the driver always delivers the
// network's mail itself; the manual-delivery mode (auto_deliver == false)
// is rejected like workers != 1, before any callback runs.
TEST(ScenarioTest, DriverConstructorRejectsManualDelivery) {
  struct Spy final : NodeAlgo {
    explicit Spy(int& calls) : calls_(calls) {}
    void on_init(NodeCtx&, Value) override { ++calls_; }
    int& calls_;
  };
  struct SpyCoordinator final : CoordinatorAlgo {
    explicit SpyCoordinator(int& calls) : calls_(calls) {}
    std::string_view name() const override { return "spy"; }
    void on_init(CoordCtx&) override { ++calls_; }
    const std::vector<NodeId>& topk() const override { return ids_; }
    int& calls_;
    std::vector<NodeId> ids_;
  };
  int calls = 0;
  Cluster cluster(4, 1);
  SpyCoordinator coord(calls);
  std::vector<std::unique_ptr<NodeAlgo>> nodes;
  for (int i = 0; i < 4; ++i) nodes.push_back(std::make_unique<Spy>(calls));
  EXPECT_THROW((SimDriver{cluster, coord, nodes, /*auto_deliver=*/false}),
               std::invalid_argument);
  EXPECT_THROW((SimDriver{cluster, coord, nodes, false, 1}),
               std::invalid_argument);
  EXPECT_EQ(calls, 0);
  SimDriver driver(cluster, coord, nodes);
  driver.initialize();
  EXPECT_EQ(calls, 5);  // four nodes and the coordinator
}

TEST(SweepGridTest, NetworkAxisMultipliesCellsButNotSeeds) {
  exp::SweepGrid grid;
  grid.ns = {8};
  grid.ks = {2};
  grid.monitors = {"naive"};
  grid.families = {StreamFamily::kRandomWalk};
  grid.networks = {NetworkSpec{}, parse_network_spec("delay=1")};
  grid.trials = 2;
  grid.base.steps = 10;

  const auto specs = grid.expand();
  ASSERT_EQ(specs.size(), grid.size());
  ASSERT_EQ(specs.size(), 4u);
  // Same trial under different networks replays the same seed (paired
  // comparison); different trials differ.
  EXPECT_EQ(specs[0].seed, specs[2].seed);
  EXPECT_EQ(specs[1].seed, specs[3].seed);
  EXPECT_NE(specs[0].seed, specs[1].seed);
  EXPECT_TRUE(specs[0].network.is_instant());
  EXPECT_EQ(specs[2].network.delay, 1u);

  // And the engine runs them end to end.
  exp::SweepRunner runner(1);
  const auto results = runner.run(specs);
  ASSERT_EQ(results.size(), 4u);
  EXPECT_EQ(results[0].comm.total(), results[2].comm.total());
}

}  // namespace
}  // namespace topkmon
