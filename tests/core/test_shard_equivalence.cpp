// The sharding subsystem's load-bearing guarantees (core/root_merge.hpp):
//
//   1. shards = 1 is THE single-coordinator path, message-for-message:
//      run_sharded_scenario with an inert root tier reproduces the
//      monolithic run_scenario byte-identically — every message of every
//      kind in every step, every protocol coin, every algorithm counter —
//      across all three native monitors and across instant AND scheduled
//      (delay / jitter / drop) networks.
//   2. Sharded exactness: at any c under the instant network the
//      deployment's answer equals the true global top-k every step
//      (strict validation), including the quota edge cases (k < c forces
//      quota-0 shards; k = n forces full shards).
//
// Plus the sweep/CLI surface: the shards axis never enters the trial
// seed (paired comparisons across c), set_axis rejects unknown names
// with a did-you-mean hint, and `?shards=c` monitor params split
// correctly.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "core/root_merge.hpp"
#include "core/runner.hpp"
#include "exp/monitor_registry.hpp"
#include "exp/scenario.hpp"
#include "exp/sweep_grid.hpp"
#include "sim/network_model.hpp"

namespace topkmon {
namespace {

exp::Scenario base_scenario(const std::string& monitor, std::size_t n,
                            std::size_t k, std::uint64_t seed,
                            std::size_t steps) {
  exp::Scenario sc;
  sc.monitor = monitor;
  sc.n = n;
  sc.k = k;
  sc.steps = steps;
  sc.seed = seed;
  // Wide value range: pairwise-distinct values in practice, so strict
  // set equality against the ground truth is meaningful.
  sc.stream.walk.hi = 100'000'000;
  sc.stream.iid_hi = 100'000'000;
  return sc;
}

void expect_identical(const RunResult& a, const RunResult& b,
                      const std::string& label) {
  SCOPED_TRACE(label);
  EXPECT_EQ(a.monitor_name, b.monitor_name);
  EXPECT_EQ(a.steps_executed, b.steps_executed);
  EXPECT_EQ(a.error_steps, b.error_steps);
  EXPECT_EQ(a.correct, b.correct);

  // Communication: every direction, every kind, every step.
  EXPECT_EQ(a.comm.upstream(), b.comm.upstream());
  EXPECT_EQ(a.comm.unicast(), b.comm.unicast());
  EXPECT_EQ(a.comm.broadcast(), b.comm.broadcast());
  for (std::size_t kind = 0; kind < kNumMsgKinds; ++kind) {
    EXPECT_EQ(a.comm.by_kind(static_cast<MsgKind>(kind)),
              b.comm.by_kind(static_cast<MsgKind>(kind)))
        << "kind " << msg_kind_name(static_cast<MsgKind>(kind));
  }
  EXPECT_EQ(a.comm.series(), b.comm.series());

  // Algorithm event counters, every one of them.
  for (const MonitorCounter& c : kMonitorCounters) {
    EXPECT_EQ(a.monitor.*c.field, b.monitor.*c.field) << c.name;
  }

  // Fault accounting.
  EXPECT_EQ(a.error_step_list, b.error_step_list);
  EXPECT_EQ(a.recovery_ticks, b.recovery_ticks);
}

TEST(ShardEquivalence, ShardsOneMatchesMonolithicPath) {
  // Fault-free on four networks, then membership churn on two: an
  // explicit crash/recover/join/leave plan and generated churn. Under
  // churn the deployments fire their own carved schedules while the
  // scenario loop keeps one fault cursor for the ground truth and the
  // recovery windows, so equal error_step_list and recovery_ticks pin
  // that cursor to the same steps and ticks on both paths.
  struct Case {
    const char* network;
    const char* faults;
  };
  const std::vector<Case> cases{
      {"instant", "none"},
      {"delay=1", "none"},
      {"delay=1,jitter=2", "none"},
      {"drop=0.2", "none"},
      {"instant",
       "churn?crash=5@40,recover=5@80,join=+16@120,leave=2@160,crash=20@150,"
       "recover=20@170"},
      {"delay=1,jitter=2",
       "churn?crash=5@40,recover=5@80,join=+16@120,leave=2@160,crash=20@150,"
       "recover=20@170"},
      {"instant", "churn?every=40,down=2,count=3,outage=15"},
      {"delay=1,jitter=2", "churn?every=40,down=2,count=3,outage=15"},
      {"instant", "churn?k=10@80"},
      {"delay=1,jitter=2", "churn?k=10@80"},
      {"instant", "churn?k=20@80,k=4@180"},
      {"delay=1,jitter=2", "churn?k=20@80,k=4@180"},
      {"instant", "churn?crash=5@40,recover=5@80,k=10@100,join=+8@120"},
  };
  for (const char* monitor : {"topk_filter", "naive", "naive_chg"}) {
    for (const Case& c : cases) {
      exp::Scenario sc = base_scenario(monitor, 48, 6, 17, 200);
      sc.network = parse_network_spec(c.network);
      sc.faults = c.faults;
      sc.shards = 1;
      sc.record_series = true;  // per-step message counts must match too
      if (!sc.network.is_instant() || sc.faults != "none") {
        // Scheduled networks and churn degrade the answer exactly like
        // monolithic native runs; equal error_step_list below pins the
        // answers per step.
        sc.validation = RunConfig::Validation::kWeak;
        sc.throw_on_error = false;
      }
      const std::string label =
          std::string(monitor) + " / " + c.network + " / " + c.faults;
      const RunResult mono = exp::run_scenario(sc);
      const RunResult sharded = exp::run_sharded_scenario(sc);
      expect_identical(mono, sharded, label);
      EXPECT_EQ(sharded.root_comm.total(), 0u)
          << label << ": inert root tier must never speak";
    }
  }
}

TEST(ShardEquivalence, ShardedExactUnderInstantNetwork) {
  // Quota edges on purpose: k = 2 < c = 7 leaves quota-0 shards; k = n
  // fills every shard; n = 53 splits unevenly across 7.
  struct Case {
    std::size_t n, k, shards;
  };
  const std::vector<Case> cases{{53, 2, 7}, {32, 32, 4}, {40, 11, 2},
                                {64, 9, 4}};
  // Random walks drift the boundary slowly; iid uniform re-rolls every
  // value each step, forcing continuous mid-run crossings so the whole
  // probe/quota-transfer/re-anchor renegotiation loop runs hot (hundreds
  // of polls over these 250 steps), not just the bootstrap.
  const std::vector<StreamFamily> families{StreamFamily::kRandomWalk,
                                           StreamFamily::kIidUniform};
  for (const auto& monitor : {"topk_filter", "naive", "naive_chg"}) {
    for (const Case& c : cases) {
      for (const StreamFamily family : families) {
        for (const std::uint64_t seed : {1ull, 9ull}) {
          exp::Scenario sc = base_scenario(monitor, c.n, c.k, seed, 250);
          sc.stream.family = family;
          sc.shards = c.shards;
          sc.validation = RunConfig::Validation::kStrict;
          sc.throw_on_error = true;  // any divergent step throws
          const RunResult r = exp::run_scenario(sc);
          SCOPED_TRACE(std::string(monitor) + " n=" + std::to_string(c.n) +
                       " k=" + std::to_string(c.k) +
                       " c=" + std::to_string(c.shards) + " fam=" +
                       std::string(family_name(family)) +
                       " seed=" + std::to_string(seed));
          EXPECT_TRUE(r.correct);
          EXPECT_EQ(r.error_steps, 0u);
          EXPECT_GT(r.root_comm.total(), 0u);  // the root tier took part
        }
      }
    }
  }
}

TEST(ShardScenario, MonitorParamOverridesScenarioField) {
  // `?shards=c` beats Scenario::shards; `?shards=1` forces the monolithic
  // path even if the field says otherwise.
  exp::Scenario sc = base_scenario("topk_filter?shards=4", 40, 5, 3, 100);
  sc.shards = 1;
  const RunResult sharded = exp::run_scenario(sc);
  EXPECT_GT(sharded.root_comm.total(), 0u);

  exp::Scenario mono = base_scenario("topk_filter?shards=1", 40, 5, 3, 100);
  mono.shards = 4;
  const RunResult single = exp::run_scenario(mono);
  EXPECT_EQ(single.root_comm.total(), 0u);
}

TEST(ShardScenario, RejectsUnsupportedConfigurations) {
  // Monitors without a sharded deployment are rejected.
  exp::Scenario sc = base_scenario("recompute", 16, 4, 1, 10);
  sc.shards = 2;
  EXPECT_THROW(exp::run_scenario(sc), std::invalid_argument);

  // More shards than nodes.
  exp::Scenario wide = base_scenario("topk_filter", 4, 2, 1, 10);
  wide.shards = 8;
  EXPECT_THROW(exp::run_scenario(wide), std::invalid_argument);
}

TEST(ShardScenario, SeriesMergesAcrossShards) {
  // record_series at c > 1: the per-shard series merge element-wise into
  // one deployment-level per-step series whose sum equals the
  // node<->shard tier total.
  exp::Scenario sc = base_scenario("topk_filter", 64, 6, 2, 80);
  sc.shards = 2;
  sc.record_series = true;
  const RunResult r = exp::run_scenario(sc);
  ASSERT_TRUE(r.comm.series_enabled());
  EXPECT_EQ(r.comm.series().size(), static_cast<std::size_t>(81));
  std::uint64_t sum = 0;
  for (const std::uint64_t v : r.comm.series()) sum += v;
  EXPECT_EQ(sum, r.comm.total());
}

TEST(ShardGrid, ShardsAxisDoesNotEnterTrialSeed) {
  exp::SweepGrid grid;
  grid.ns = {32};
  grid.ks = {4};
  grid.shards = {1, 2, 4};
  grid.trials = 2;
  const auto specs = grid.expand();
  ASSERT_EQ(specs.size(), 6u);
  // Expansion order: shards-major over trials; same trial index at
  // different c must replay the same seed (paired comparisons).
  for (std::size_t t = 0; t < grid.trials; ++t) {
    const auto seed = specs[t].cfg.seed;
    for (std::size_t si = 1; si < grid.shards.size(); ++si) {
      EXPECT_EQ(specs[si * grid.trials + t].cfg.seed, seed);
      EXPECT_EQ(specs[si * grid.trials + t].shards, grid.shards[si]);
    }
  }
}

TEST(ShardGrid, SetAxisParsesAndHintsUnknownNames) {
  exp::SweepGrid grid;
  grid.set_axis("shards", {"1", "8"});
  EXPECT_EQ(grid.shards, (std::vector<std::size_t>{1, 8}));

  try {
    grid.set_axis("shard", {"2"});
    FAIL() << "unknown axis accepted";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("did you mean"), std::string::npos) << msg;
    EXPECT_NE(msg.find("'shards'"), std::string::npos) << msg;
  }
  EXPECT_THROW(grid.set_axis("shards", {"x"}), std::invalid_argument);
  EXPECT_THROW(grid.set_axis("shards", {}), std::invalid_argument);
}

TEST(ShardRegistry, SplitShardsParam) {
  using exp::split_shards_param;
  EXPECT_EQ(split_shards_param("topk_filter"),
            std::make_pair(std::string("topk_filter"), std::size_t{0}));
  EXPECT_EQ(split_shards_param("topk_filter?shards=4"),
            std::make_pair(std::string("topk_filter"), std::size_t{4}));
  // Other params survive, in order, with the shards key stripped.
  EXPECT_EQ(split_shards_param("topk_filter?nobeacon,shards=2"),
            std::make_pair(std::string("topk_filter?nobeacon"),
                           std::size_t{2}));
  EXPECT_EQ(split_shards_param("topk_filter?shards=2,nobeacon"),
            std::make_pair(std::string("topk_filter?nobeacon"),
                           std::size_t{2}));
  EXPECT_THROW(split_shards_param("topk_filter?shards=0"),
               std::invalid_argument);
  EXPECT_THROW(split_shards_param("topk_filter?shards=x"),
               std::invalid_argument);
}

TEST(ShardPartition, WordAlignedBalancedRanges) {
  // Boundaries fall on 64-node words whenever there are enough words to
  // go around; sizes stay balanced and cover [0, n) exactly.
  for (const std::size_t n : {4096u, 1000u, 130u, 53u}) {
    for (const std::size_t c : {1u, 2u, 7u, 16u}) {
      if (c > n) continue;
      const auto ranges = partition_shards(n, c);
      ASSERT_EQ(ranges.size(), c);
      std::size_t covered = 0;
      std::size_t min_size = n, max_size = 0;
      for (std::size_t s = 0; s < c; ++s) {
        EXPECT_EQ(ranges[s].base, covered);
        EXPECT_GT(ranges[s].size, 0u);
        covered += ranges[s].size;
        min_size = std::min(min_size, ranges[s].size);
        max_size = std::max(max_size, ranges[s].size);
        if ((n + 63) / 64 >= c && s + 1 < c) {
          EXPECT_EQ(ranges[s + 1].base % 64, 0u)
              << "n=" << n << " c=" << c << " s=" << s;
        }
      }
      EXPECT_EQ(covered, n);
      // Word-aligned splits differ by at most one 64-node word plus the
      // final word's truncation to n; the tiny-n fallback balances nodes
      // directly (spread <= 1).
      EXPECT_LE(max_size - min_size, (n + 63) / 64 >= c ? 127u : 1u)
          << "n=" << n << " c=" << c;
    }
  }
}

}  // namespace
}  // namespace topkmon
