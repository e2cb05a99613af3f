// Tests for the parallel experiment engine: grid expansion into
// Scenarios, parallel == serial determinism, thread-pool semantics,
// aggregation fixtures, and CSV/JSON round-trips.
#include "exp/sweep_runner.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <set>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "exp/monitor_registry.hpp"
#include "exp/result_sink.hpp"
#include "exp/scenario.hpp"
#include "exp/sweep_grid.hpp"
#include "exp/writers.hpp"

namespace topkmon::exp {
namespace {

SweepGrid small_grid() {
  SweepGrid grid;
  grid.ns = {8, 16};
  grid.ks = {2, 4};
  grid.monitors = {"topk_filter", "recompute"};
  grid.families = {StreamFamily::kRandomWalk, StreamFamily::kIidUniform};
  grid.trials = 2;
  grid.base.steps = 60;
  grid.base.seed = 99;
  return grid;
}

TEST(SweepGrid, ExpansionShapeAndOrdinals) {
  // A trial's ordinal is its index in the expansion: n-major, then k,
  // monitor, family, ..., trial-minor.
  const auto grid = small_grid();
  const auto specs = grid.expand();
  EXPECT_EQ(specs.size(), grid.size());
  EXPECT_EQ(specs.size(), 2u * 2u * 2u * 2u * 2u);
  for (std::size_t i = 0; i < specs.size(); ++i) {
    EXPECT_EQ(specs[i].n, grid.ns[i / 16]);
    EXPECT_EQ(specs[i].k, grid.ks[i / 8 % 2]);
    EXPECT_EQ(specs[i].monitor, grid.monitors[i / 4 % 2]);
    EXPECT_EQ(specs[i].stream.family, grid.families[i / 2 % 2]);
  }
}

TEST(SweepGrid, BaseCarriesEveryNonAxisField) {
  // Everything but the axes comes from `base`, so a grid can set any
  // Scenario field — the loop mode, order validation and series
  // recording included.
  SweepGrid grid = small_grid();
  grid.base.dense_loop = true;
  grid.base.validate_order = true;
  grid.base.record_series = true;
  grid.base.record_trace = true;
  grid.base.throw_on_error = false;
  grid.base.validation = RunConfig::Validation::kWeak;
  grid.base.stream.walk.max_step = 77;
  grid.base.with_network("delay=2");
  grid.faults = {"churn?crash=1@10,recover=1@20"};
  const auto specs = grid.expand();
  ASSERT_EQ(specs.size(), grid.size());
  for (const Scenario& sc : specs) {
    EXPECT_EQ(sc.steps, 60u);
    EXPECT_TRUE(sc.dense_loop);
    EXPECT_TRUE(sc.validate_order);
    EXPECT_TRUE(sc.record_series);
    EXPECT_TRUE(sc.record_trace);
    EXPECT_FALSE(sc.throw_on_error);
    EXPECT_EQ(sc.validation, RunConfig::Validation::kWeak);
    EXPECT_EQ(sc.stream.walk.max_step, 77);
    EXPECT_EQ(sc.faults, "churn?crash=1@10,recover=1@20");
    // The network axis (default: instant) overwrites base.network.
    EXPECT_TRUE(sc.network.is_instant());
  }

  // And the fields take effect: a trial run from the grid equals the
  // same Scenario run directly.
  Scenario direct;
  direct.monitor = specs[0].monitor;
  direct.stream = specs[0].stream;
  direct.n = specs[0].n;
  direct.k = specs[0].k;
  direct.steps = 60;
  direct.seed = specs[0].seed;
  direct.faults = grid.faults[0];
  direct.dense_loop = true;
  direct.validate_order = true;
  direct.record_series = true;
  direct.record_trace = true;
  direct.throw_on_error = false;
  direct.validation = RunConfig::Validation::kWeak;
  const RunResult via_grid = SweepRunner(1).run({specs[0]})[0];
  const RunResult want = run_scenario(direct);
  EXPECT_TRUE(via_grid.comm.series_enabled());
  EXPECT_EQ(via_grid.comm.series(), want.comm.series());
  EXPECT_EQ(via_grid.comm.total(), want.comm.total());
  EXPECT_EQ(via_grid.error_steps, want.error_steps);
  EXPECT_TRUE(via_grid.trace.has_value());
}

TEST(SweepGrid, SkipsInvalidKCells) {
  SweepGrid grid;
  grid.ns = {4, 16};
  grid.ks = {2, 8};  // k=8 invalid for n=4
  grid.trials = 1;
  const auto specs = grid.expand();
  EXPECT_EQ(specs.size(), 3u);
  for (const auto& s : specs) {
    EXPECT_LE(s.k, s.n);
  }
}

TEST(SweepGrid, SeedsDependOnCoordinatesNotExpansionOrder) {
  const auto grid = small_grid();
  const auto specs = grid.expand();
  std::set<std::uint64_t> seeds;
  for (const auto& s : specs) seeds.insert(s.seed);
  EXPECT_EQ(seeds.size(), specs.size());  // all distinct

  // A narrowed grid (one monitor) must reproduce the same seeds for the
  // cells it shares with the full grid.
  SweepGrid narrowed = grid;
  narrowed.monitors = {"topk_filter"};
  const auto narrow = narrowed.expand();
  for (std::size_t i = 0; i < narrow.size(); ++i) {
    const Scenario& s = narrow[i];
    const std::size_t t = i % narrowed.trials;
    const auto expected = derive_trial_seed(
        grid.base.seed, s.n, s.k, /*monitor_index=*/0,
        /*family_index=*/s.stream.family == StreamFamily::kRandomWalk ? 0 : 1,
        t);
    EXPECT_EQ(s.seed, expected);
  }
}

// The headline guarantee: a parallel sweep is bit-identical to a serial
// sweep of the same grid.
TEST(SweepRunner, ParallelMatchesSerialBitIdentical) {
  const auto grid = small_grid();
  const auto specs = grid.expand();

  SweepRunner serial(1);
  SweepRunner parallel(4);
  const auto rs = serial.run(specs);
  const auto rp = parallel.run(specs);

  ASSERT_EQ(rs.size(), rp.size());
  for (std::size_t i = 0; i < rs.size(); ++i) {
    EXPECT_EQ(rs[i].monitor_name, rp[i].monitor_name);
    EXPECT_EQ(rs[i].steps_executed, rp[i].steps_executed);
    EXPECT_EQ(rs[i].comm.total(), rp[i].comm.total());
    EXPECT_EQ(rs[i].monitor.filter_resets, rp[i].monitor.filter_resets);
    EXPECT_EQ(rs[i].monitor.handler_calls, rp[i].monitor.handler_calls);
    EXPECT_TRUE(rs[i].correct);
    EXPECT_TRUE(rp[i].correct);
  }

  // And the aggregated tables (the CLI's CSV rows) are byte-identical too.
  auto aggregate = [&](const std::vector<RunResult>& results) {
    ResultSink sink({"monitor", "workload"}, {"msgs_per_step"});
    for (std::size_t i = 0; i < specs.size(); ++i) {
      sink.add({specs[i].monitor,
                std::string(family_name(specs[i].stream.family))},
               i, {results[i].messages_per_step()});
    }
    std::ostringstream csv;
    sink.to_table(4).write_csv(csv);
    return csv.str();
  };
  EXPECT_EQ(aggregate(rs), aggregate(rp));
}

TEST(SweepRunner, ParallelForCoversEveryIndexExactlyOnce) {
  SweepRunner runner(4);
  constexpr std::size_t kCount = 1000;
  std::vector<std::atomic<int>> hits(kCount);
  runner.parallel_for(kCount, [&](std::size_t i) { hits[i]++; });
  for (std::size_t i = 0; i < kCount; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(SweepRunner, MapPreservesOrder) {
  SweepRunner runner(3);
  const auto out =
      runner.map<std::size_t>(257, [](std::size_t i) { return i * i; });
  ASSERT_EQ(out.size(), 257u);
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i], i * i);
  }
}

TEST(SweepRunner, PropagatesExceptions) {
  SweepRunner runner(4);
  EXPECT_THROW(
      runner.parallel_for(100,
                          [](std::size_t i) {
                            if (i == 37) throw std::runtime_error("boom");
                          }),
      std::runtime_error);
  // The pool must stay usable after a failed batch.
  int ok = 0;
  runner.parallel_for(1, [&](std::size_t) { ok = 1; });
  EXPECT_EQ(ok, 1);
}

TEST(SweepRunner, ZeroJobsMeansHardwareConcurrency) {
  SweepRunner runner(0);
  EXPECT_GE(runner.jobs(), 1u);
  EXPECT_LE(runner.jobs(), SweepRunner::kMaxJobs);
}

TEST(SweepRunner, RejectsJobsAboveMaximumBeforeStartingThreads) {
  // The bound is checked before the first thread starts, so this starts
  // none.
  EXPECT_THROW(SweepRunner(SweepRunner::kMaxJobs + 1), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Aggregation fixtures
// ---------------------------------------------------------------------------

TEST(ResultSink, MeanAndStddevMatchHandComputedFixture) {
  // Samples {2, 4, 4, 4, 5, 5, 7, 9}: mean 5, sample stddev sqrt(32/7).
  ResultSink sink({"cell"}, {"metric"});
  const double samples[] = {2, 4, 4, 4, 5, 5, 7, 9};
  for (std::size_t i = 0; i < 8; ++i) {
    sink.add({"a"}, i, {samples[i]});
  }
  const Table t = sink.to_table(6);
  ASSERT_EQ(t.rows(), 1u);
  ASSERT_EQ(t.cols(), 3u);  // cell, metric, metric_sd
  EXPECT_EQ(t.header()[1], "metric");
  EXPECT_EQ(t.header()[2], "metric_sd");
  EXPECT_NEAR(std::stod(t.row(0)[1]), 5.0, 1e-6);
  EXPECT_NEAR(std::stod(t.row(0)[2]), std::sqrt(32.0 / 7.0), 1e-6);
}

TEST(ResultSink, InsertionOrderDoesNotChangeOutput) {
  auto fill = [](ResultSink& sink, bool reversed) {
    // Two cells × 3 trials with distinct values; ordinals fix fold order.
    const double vals[] = {1.0, 2.0, 4.0};
    for (int c = 0; c < 2; ++c) {
      for (int t = 0; t < 3; ++t) {
        const int tt = reversed ? 2 - t : t;
        const std::size_t ordinal = static_cast<std::size_t>(c * 3 + tt);
        sink.add({c == 0 ? "x" : "y"}, ordinal, {vals[tt] + c});
      }
    }
  };
  ResultSink forward({"cell"}, {"m"});
  ResultSink backward({"cell"}, {"m"});
  fill(forward, false);
  fill(backward, true);

  std::ostringstream a, b;
  forward.to_table(6).write_csv(a);
  backward.to_table(6).write_csv(b);
  EXPECT_EQ(a.str(), b.str());
}

TEST(ResultSink, CellsOrderedByFirstOrdinal) {
  ResultSink sink({"cell"}, {"m"});
  sink.add({"late"}, 10, {1.0});
  sink.add({"early"}, 2, {1.0});
  const Table t = sink.to_table();
  ASSERT_EQ(t.rows(), 2u);
  EXPECT_EQ(t.row(0)[0], "early");
  EXPECT_EQ(t.row(1)[0], "late");
}

TEST(ResultSink, RejectsArityMismatchAndDuplicates) {
  ResultSink sink({"cell"}, {"m"});
  EXPECT_THROW(sink.add({"a", "b"}, 0, {1.0}), std::invalid_argument);
  EXPECT_THROW(sink.add({"a"}, 0, {1.0, 2.0}), std::invalid_argument);
  sink.add({"a"}, 0, {1.0});
  EXPECT_THROW(sink.add({"a"}, 0, {2.0}), std::invalid_argument);
}

TEST(ResultSink, ThreadSafeConcurrentAdds) {
  ResultSink sink({"cell"}, {"m"});
  SweepRunner runner(4);
  runner.parallel_for(200, [&](std::size_t i) {
    sink.add({i % 2 ? "odd" : "even"}, i, {static_cast<double>(i)});
  });
  EXPECT_EQ(sink.cells(), 2u);
  const Table t = sink.to_table(1);
  ASSERT_EQ(t.rows(), 2u);
  // even: mean of 0,2,...,198 = 99; odd: mean of 1,3,...,199 = 100.
  EXPECT_EQ(t.row(0)[0], "even");
  EXPECT_NEAR(std::stod(t.row(0)[1]), 99.0, 1e-9);
  EXPECT_NEAR(std::stod(t.row(1)[1]), 100.0, 1e-9);
}

}  // namespace
}  // namespace topkmon::exp
