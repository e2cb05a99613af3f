// Shared differential equivalence harness for the native role ports.
//
// Every monitor is one CoordinatorAlgo/NodeAlgo role pair. Each port was
// proven identical to the lock-step implementation it replaced, and what
// those implementations produced is frozen as golden records
// (lockstep_golden.hpp). The instruments:
//
//   * run_lockstep — the golden record of a (spec, workload, shape,
//     seed, steps) cell (throws std::out_of_range for a cell the table
//     does not hold);
//   * run_native — the same cell through exp::run_scenario (any network
//     policy and fault plan);
//   * expect_identical / results_identical — the full comparison: per-
//     step message series, messages by direction and by kind, every
//     algorithm counter, and the per-step error pattern against the
//     ground truth (which pins the answers themselves);
//   * expect_answer_and_rng_parity — drives the native pair by hand and
//     compares the coordinator's answer after every step (rank order
//     included for the ordered port) and the final state of every node
//     RNG plus the coordinator RNG with the record: identical RNG state
//     on identical seeds means the port consumed exactly the same coin
//     flips as the reference.
//
// Its own teeth are pinned by the mutant property test
// (test_port_mutant.cpp): a deliberately off-by-one port must make
// results_identical return false against the record and on every
// network policy.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/driver.hpp"
#include "core/ground_truth_tracker.hpp"
#include "core/ordered_roles.hpp"
#include "core/runner.hpp"
#include "exp/monitor_registry.hpp"
#include "exp/scenario.hpp"
#include "lockstep_golden.hpp"
#include "sim/cluster.hpp"
#include "streams/factory.hpp"

namespace topkmon::harness {

using golden::GoldenRun;

struct Shape {
  std::size_t n;
  std::size_t k;
};

inline const GoldenRun& run_lockstep(const std::string& spec,
                                     const StreamSpec& stream, Shape s,
                                     std::uint64_t seed, std::size_t steps) {
  const std::string key = golden::stream_key(stream);
  for (const GoldenRun& g : golden::golden_runs()) {
    if (g.monitor == spec && g.stream == key && g.n == s.n && g.k == s.k &&
        g.seed == seed && g.steps == steps) {
      return g;
    }
  }
  throw std::out_of_range("no golden record for " + spec + " on " + key +
                          " n=" + std::to_string(s.n) +
                          " k=" + std::to_string(s.k) +
                          " seed=" + std::to_string(seed) +
                          " steps=" + std::to_string(steps));
}

inline const GoldenRun& run_lockstep(const std::string& spec,
                                     const std::string& family, Shape s,
                                     std::uint64_t seed, std::size_t steps) {
  return run_lockstep(spec, parse_stream_spec(family, StreamSpec{}), s, seed,
                      steps);
}

inline RunResult run_native(
    const std::string& spec, const StreamSpec& stream, Shape s,
    std::uint64_t seed, std::size_t steps,
    RunConfig::Validation validation = RunConfig::Validation::kWeak,
    const std::string& network = "instant", const std::string& faults = "") {
  exp::Scenario sc;
  sc.monitor = spec;
  sc.stream = stream;
  sc.with_network(network);
  sc.n = s.n;
  sc.k = s.k;
  sc.steps = steps;
  sc.seed = seed;
  sc.faults = faults;
  sc.validation = validation;
  sc.record_series = true;
  // Divergence is recorded, not thrown: lossy configurations (and the
  // mutant property test) legitimately err, and the comparison checks
  // that both runs err in exactly the same steps.
  sc.throw_on_error = false;
  return exp::run_scenario(sc);
}

inline RunResult run_native(
    const std::string& spec, const std::string& family, Shape s,
    std::uint64_t seed, std::size_t steps,
    RunConfig::Validation validation = RunConfig::Validation::kWeak,
    const std::string& network = "instant", const std::string& faults = "") {
  return run_native(spec, parse_stream_spec(family, StreamSpec{}), s, seed,
                    steps, validation, network, faults);
}

/// Non-fatal comparison: true iff every compared dimension matches. The
/// mutant property test uses the boolean form to assert the harness
/// *fails* on a perturbed port; expect_identical uses gtest expectations
/// for readable per-dimension diagnostics.
inline bool results_identical(const RunResult& a, const RunResult& b) {
  return golden::fingerprint(a) == golden::fingerprint(b);
}

inline bool results_identical(const GoldenRun& g, const RunResult& r) {
  return g.fp == golden::fingerprint(r);
}

inline void expect_identical(const GoldenRun& g, const RunResult& r,
                             const std::string& label) {
  SCOPED_TRACE(label);
  const golden::Fingerprint a = g.fp;
  const golden::Fingerprint b = golden::fingerprint(r);
  EXPECT_EQ(a.monitor_name, b.monitor_name);

  // Communication: every direction, every kind, every step.
  EXPECT_EQ(a.upstream, b.upstream);
  EXPECT_EQ(a.unicast, b.unicast);
  EXPECT_EQ(a.broadcast, b.broadcast);
  for (std::size_t kind = 0; kind < kNumMsgKinds; ++kind) {
    EXPECT_EQ(a.by_kind[kind], b.by_kind[kind])
        << "kind " << msg_kind_name(static_cast<MsgKind>(kind));
  }
  EXPECT_EQ(a.series, b.series) << "per-step message series differ";

  // Algorithm event counters.
  for (std::size_t i = 0; i < std::size(kMonitorCounters); ++i) {
    EXPECT_EQ(a.counters[i], b.counters[i]) << kMonitorCounters[i].name;
  }

  // Per-step answer pattern against the ground truth: identical steps
  // must err (none at all for exact monitors on the instant network).
  EXPECT_EQ(a.error_steps, b.error_steps);
}

/// Drives the native pair by hand over the record's cell and compares the
/// coordinator's answer after *every* step (rank order too for the
/// ordered port) and the final state of all n node RNGs and the
/// coordinator RNG with the record.
inline void expect_answer_and_rng_parity(const std::string& spec,
                                         const StreamSpec& stream, Shape s,
                                         std::uint64_t seed,
                                         std::size_t steps) {
  SCOPED_TRACE("parity " + spec + " on " + golden::stream_key(stream));
  const GoldenRun& g = run_lockstep(spec, stream, s, seed, steps);

  Cluster cluster(s.n, seed);
  exp::RolePair pair = exp::make_role_pair(cluster, spec, s.k);
  SimDriver driver(cluster, *pair.coordinator, pair.nodes, pair.native);
  auto streams = make_stream_set(stream, s.n, seed);
  const auto* ordered =
      dynamic_cast<const OrderedCoordinator*>(pair.coordinator.get());

  golden::Digest answers;
  std::vector<Value> observed(s.n);
  std::vector<NodeId> changed;
  const auto observe = [&] {
    streams.advance_all(observed);
    changed.clear();
    for (NodeId id = 0; id < s.n; ++id) {
      if (observed[id] != cluster.value(id)) {
        cluster.set_value(id, observed[id]);
        changed.push_back(id);
      }
    }
  };
  const auto record_answer = [&] {
    answers.add_ids(pair.coordinator->topk());
    if (ordered != nullptr) answers.add_ids(ordered->ordered_topk());
  };

  observe();
  driver.initialize();
  record_answer();
  for (TimeStep t = 1; t <= steps; ++t) {
    observe();
    driver.step(t, changed);
    record_answer();
  }

  EXPECT_EQ(answers.value(), g.answers) << "per-step answers diverged";
  EXPECT_EQ(golden::node_rng_digest(cluster), g.node_rng)
      << "node RNG state diverged (unequal coin draws)";
  EXPECT_EQ(golden::coordinator_rng_digest(cluster), g.coord_rng)
      << "coordinator RNG state diverged (unequal coin draws)";
  EXPECT_EQ(cluster.stats().total(), g.fp.upstream + g.fp.unicast +
                                         g.fp.broadcast);
}

inline void expect_answer_and_rng_parity(const std::string& spec,
                                         const std::string& family, Shape s,
                                         std::uint64_t seed,
                                         std::size_t steps) {
  expect_answer_and_rng_parity(spec, parse_stream_spec(family, StreamSpec{}),
                               s, seed, steps);
}

/// The full check of one cell: the run_scenario path against the record,
/// then the hand-driven answer and RNG parity.
inline void expect_matches_golden(const std::string& spec,
                                  const StreamSpec& stream, Shape s,
                                  std::uint64_t seed, std::size_t steps) {
  const std::string label = spec + " n=" + std::to_string(s.n) +
                            " k=" + std::to_string(s.k) + " on " +
                            golden::stream_key(stream) +
                            " seed=" + std::to_string(seed);
  expect_identical(run_lockstep(spec, stream, s, seed, steps),
                   run_native(spec, stream, s, seed, steps), label);
  expect_answer_and_rng_parity(spec, stream, s, seed, steps);
}

inline void expect_matches_golden(const std::string& spec,
                                  const std::string& family, Shape s,
                                  std::uint64_t seed, std::size_t steps) {
  expect_matches_golden(spec, parse_stream_spec(family, StreamSpec{}), s, seed,
                        steps);
}

}  // namespace topkmon::harness
