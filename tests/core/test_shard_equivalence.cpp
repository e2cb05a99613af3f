// The sharding subsystem's load-bearing guarantees (core/root_merge.hpp):
//
//   1. Sharded exactness: at any c under the instant network the
//      deployment's answer equals the true global top-k every step
//      (strict validation), including the quota edge cases (k < c forces
//      quota-0 shards; k = n forces full shards), and stays exact
//      through a crash, a k growth that forces filter shards to re-rank
//      while the crash holds, and the recovery — with a rebuilt shard
//      resuming its fault schedule rather than replaying it.
//   2. The two-tier deployment starts at two shards: the one-coordinator
//      case is the monolithic path, and ShardedDeployment rejects
//      shards < 2 and shards > n.
//
// Plus the sweep surface: the shards axis never enters the trial seed
// (paired comparisons across c), and run_scenario rejects a shard count
// outside [1, n].
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "core/root_merge.hpp"
#include "core/runner.hpp"
#include "exp/scenario.hpp"
#include "exp/sweep_grid.hpp"

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

TEST(ShardEquivalence, ExactThroughCrashRerankRecover) {
  // c = 2 filter shards on instant delivery: node 3 crashes at step 40,
  // k grows 6 -> 20 at step 60 (each shard's quota outgrows its ranking,
  // so the gaining shards re-rank on fresh drivers while the crash
  // holds), and node 3 recovers at step 100. iid values make the root
  // renegotiate, and the shards rebuild, almost every step after that.
  // A rebuilt shard's driver must resume the fault schedule where the
  // retired one left it: replaying the fired crash/recover pair would
  // bounce node 3 through another re-sync handshake on every rebuild.
  for (const char* monitor : {"topk_filter", "topk_filter?nobeacon"}) {
    SCOPED_TRACE(monitor);
    exp::Scenario sc = base_scenario(monitor, 48, 6, 1, 200);
    sc.stream.family = StreamFamily::kIidUniform;
    sc.shards = 2;
    sc.faults = "churn?crash=3@40,k=20@60,recover=3@100";
    sc.validation = RunConfig::Validation::kStrict;
    sc.throw_on_error = false;
    const RunResult r = exp::run_scenario(sc);
    EXPECT_EQ(r.error_steps, 0u);
    EXPECT_EQ(r.monitor.resyncs, 1u);  // the one recover event's
    EXPECT_GT(r.root_comm.total(), 0u);
  }
}

TEST(ShardScenario, RejectsUnsupportedConfigurations) {
  // Monitors without a sharded deployment are rejected.
  exp::Scenario sc = base_scenario("recompute", 16, 4, 1, 10);
  sc.shards = 2;
  EXPECT_THROW(exp::run_scenario(sc), std::invalid_argument);

  // More shards than nodes, and no shards at all (which must not fall
  // through to the monolithic path).
  for (const std::size_t shards : {std::size_t{8}, std::size_t{0}}) {
    exp::Scenario wide = base_scenario("topk_filter", 4, 2, 1, 10);
    wide.shards = shards;
    EXPECT_THROW(exp::run_scenario(wide), std::invalid_argument);
  }

  // The deployment itself needs 2 <= shards <= n: one shard is the
  // monolithic path's job.
  for (const std::size_t shards :
       {std::size_t{0}, std::size_t{1}, std::size_t{17}}) {
    SCOPED_TRACE(shards);
    ShardedSpec spec;
    spec.n = 16;
    spec.k = 4;
    spec.shards = shards;
    EXPECT_THROW(ShardedDeployment{spec}, std::invalid_argument);
  }
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
    const auto seed = specs[t].seed;
    for (std::size_t si = 1; si < grid.shards.size(); ++si) {
      EXPECT_EQ(specs[si * grid.trials + t].seed, seed);
      EXPECT_EQ(specs[si * grid.trials + t].shards, grid.shards[si]);
    }
  }
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
