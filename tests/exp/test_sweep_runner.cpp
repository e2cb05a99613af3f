// Tests for the parallel experiment engine: grid expansion, parallel ==
// serial determinism, thread-pool semantics, aggregation fixtures, and
// CSV/JSON round-trips.
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
  grid.steps = 60;
  grid.base_seed = 99;
  return grid;
}

TEST(SweepGrid, ExpansionShapeAndOrdinals) {
  const auto grid = small_grid();
  const auto specs = grid.expand();
  EXPECT_EQ(specs.size(), grid.size());
  EXPECT_EQ(specs.size(), 2u * 2u * 2u * 2u * 2u);
  for (std::size_t i = 0; i < specs.size(); ++i) {
    EXPECT_EQ(specs[i].ordinal, i);
  }
}

TEST(SweepGrid, SkipsInvalidKCells) {
  SweepGrid grid;
  grid.ns = {4, 16};
  grid.ks = {2, 8};  // k=8 invalid for n=4
  grid.trials = 1;
  const auto specs = grid.expand();
  EXPECT_EQ(specs.size(), 3u);
  for (const auto& s : specs) {
    EXPECT_LE(s.cfg.k, s.cfg.n);
  }
}

TEST(SweepGrid, SeedsDependOnCoordinatesNotExpansionOrder) {
  const auto grid = small_grid();
  const auto specs = grid.expand();
  std::set<std::uint64_t> seeds;
  for (const auto& s : specs) seeds.insert(s.cfg.seed);
  EXPECT_EQ(seeds.size(), specs.size());  // all distinct

  // A narrowed grid (one monitor) must reproduce the same seeds for the
  // cells it shares with the full grid.
  SweepGrid narrowed = grid;
  narrowed.monitors = {"topk_filter"};
  for (const auto& s : narrowed.expand()) {
    const auto expected = derive_trial_seed(
        grid.base_seed, s.cfg.n, s.cfg.k, /*monitor_index=*/0,
        /*family_index=*/s.stream.family == StreamFamily::kRandomWalk ? 0 : 1,
        s.trial);
    EXPECT_EQ(s.cfg.seed, expected);
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
               specs[i].ordinal, {results[i].messages_per_step()});
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

TEST(SweepRunner, RunTrialMatchesDirectExecution) {
  TrialSpec spec;
  spec.cfg.n = 12;
  spec.cfg.k = 3;
  spec.cfg.steps = 40;
  spec.cfg.seed = 5;
  spec.stream.family = StreamFamily::kRandomWalk;
  spec.monitor = "topk_filter";

  const auto via_engine = run_trial(spec);

  auto monitor = make_monitor("topk_filter", 3);
  auto streams = make_stream_set(spec.stream, spec.cfg.n, spec.cfg.seed);
  const auto direct = run_monitor(*monitor, streams, spec.cfg);

  EXPECT_EQ(via_engine.comm.total(), direct.comm.total());
  EXPECT_EQ(via_engine.monitor.filter_resets, direct.monitor.filter_resets);
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
