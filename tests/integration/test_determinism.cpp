// Reproducibility: identical seeds must reproduce identical traces,
// message counts and answers across independent executions — the property
// every experiment in EXPERIMENTS.md relies on.
#include <gtest/gtest.h>

#include "core/runner.hpp"
#include "exp/scenario.hpp"
#include "streams/factory.hpp"

namespace topkmon {
namespace {

std::pair<std::uint64_t, std::vector<std::uint64_t>> run_once(
    const std::string& monitor, StreamFamily family, std::uint64_t seed) {
  exp::Scenario sc;
  sc.monitor = monitor;
  sc.stream.family = family;
  sc.n = 10;
  sc.k = 3;
  sc.steps = 400;
  sc.seed = seed;
  sc.record_series = true;
  const auto r = exp::run_scenario(sc);
  return {r.comm.total(), r.comm.series()};
}

TEST(Determinism, TopkFilterIdenticalRuns) {
  const auto a = run_once("topk_filter", StreamFamily::kRandomWalk, 31);
  const auto b = run_once("topk_filter", StreamFamily::kRandomWalk, 31);
  EXPECT_EQ(a.first, b.first);
  EXPECT_EQ(a.second, b.second);
}

TEST(Determinism, TopkFilterDifferentSeedsDiffer) {
  const auto a = run_once("topk_filter", StreamFamily::kRandomWalk, 31);
  const auto b = run_once("topk_filter", StreamFamily::kRandomWalk, 32);
  EXPECT_NE(a.second, b.second);
}

TEST(Determinism, RecomputeIdenticalRuns) {
  const auto a = run_once("recompute", StreamFamily::kBursty, 33);
  const auto b = run_once("recompute", StreamFamily::kBursty, 33);
  EXPECT_EQ(a.first, b.first);
  EXPECT_EQ(a.second, b.second);
}

TEST(Determinism, DominanceIdenticalRuns) {
  const auto a = run_once("dominance", StreamFamily::kSinusoidal, 35);
  const auto b = run_once("dominance", StreamFamily::kSinusoidal, 35);
  EXPECT_EQ(a.first, b.first);
  EXPECT_EQ(a.second, b.second);
}

TEST(Determinism, SlackIdenticalRuns) {
  const auto a = run_once("slack", StreamFamily::kRandomWalk, 37);
  const auto b = run_once("slack", StreamFamily::kRandomWalk, 37);
  EXPECT_EQ(a.first, b.first);
}

TEST(Determinism, OrderedIdenticalRuns) {
  const auto a = run_once("ordered", StreamFamily::kRandomWalk, 39);
  const auto b = run_once("ordered", StreamFamily::kRandomWalk, 39);
  EXPECT_EQ(a.first, b.first);
  EXPECT_EQ(a.second, b.second);
}

TEST(Determinism, TraceRecordingIsStable) {
  StreamSpec spec;
  spec.family = StreamFamily::kPareto;
  exp::Scenario sc;
  sc.stream = spec;
  sc.n = 6;
  sc.k = 2;
  sc.steps = 100;
  sc.seed = 41;
  sc.record_trace = true;
  const auto r1 = exp::run_scenario(sc);
  const auto r2 = exp::run_scenario(sc);
  ASSERT_TRUE(r1.trace.has_value() && r2.trace.has_value());
  for (std::size_t t = 0; t < r1.trace->steps(); ++t) {
    for (NodeId i = 0; i < 6; ++i) {
      ASSERT_EQ(r1.trace->at(t, i), r2.trace->at(t, i));
    }
  }
}

}  // namespace
}  // namespace topkmon
