// Shared differential equivalence harness for native role ports.
//
// Every native CoordinatorAlgo/NodeAlgo port of a lock-step monitor is
// proven against its MonitorBase twin with the same instruments:
//
//   * run_lockstep / run_native — twin runs of the same spec over the
//     same stream family, shape and seed, one through the legacy
//     run_monitor path (the reference oracle), one through the Scenario
//     path (the role deployment under the SimDriver);
//   * expect_identical / results_identical — the full comparison:
//     per-step message series, messages by direction and by kind,
//     algorithm event counters, and the per-step error pattern against
//     the ground truth (which pins the answers themselves);
//   * expect_twin_lockstep_parity — a manual side-by-side drive of both
//     twins that additionally compares the coordinator's *answer* after
//     every step (rank order included for the ordered port) and, at the
//     end of the run, the full state of every per-node RNG plus the
//     coordinator RNG — the coin-flip-identity proof: both runs must
//     have consumed exactly the same random draws from the same streams.
//
// The harness is deliberately spec-agnostic: the same functions verify
// the five ports this PR adds (slack, dominance, approx, multi_k,
// ordered) and re-verify the three pre-existing ones (topk_filter,
// naive, naive_chg). Its own teeth are pinned by the mutant property
// test (test_port_mutant.cpp): a deliberately off-by-one port must make
// results_identical return false on every network policy.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/driver.hpp"
#include "core/ordered_roles.hpp"
#include "core/ordered_topk_monitor.hpp"
#include "core/runner.hpp"
#include "exp/monitor_registry.hpp"
#include "exp/scenario.hpp"
#include "sim/cluster.hpp"
#include "streams/factory.hpp"

namespace topkmon::harness {

struct Shape {
  std::size_t n;
  std::size_t k;
};

inline RunResult run_lockstep(
    const std::string& spec, const StreamSpec& stream, Shape s,
    std::uint64_t seed, std::size_t steps,
    RunConfig::Validation validation = RunConfig::Validation::kWeak) {
  auto monitor = exp::make_monitor(spec, s.k);
  auto streams = make_stream_set(stream, s.n, seed);
  RunConfig cfg;
  cfg.n = s.n;
  cfg.k = s.k;
  cfg.steps = steps;
  cfg.seed = seed;
  cfg.validation = validation;
  cfg.record_series = true;
  // Divergence is recorded, not thrown: lossy configurations (and the
  // mutant property test) legitimately err, and the comparison below
  // checks that both twins err in exactly the same steps.
  return run_monitor(*monitor, streams, cfg, /*throw_on_error=*/false);
}

inline RunResult run_lockstep(
    const std::string& spec, const std::string& family, Shape s,
    std::uint64_t seed, std::size_t steps,
    RunConfig::Validation validation = RunConfig::Validation::kWeak) {
  return run_lockstep(spec, parse_stream_spec(family, StreamSpec{}), s, seed,
                      steps, validation);
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

/// Non-fatal twin comparison: true iff every compared dimension matches.
/// The mutant property test uses the boolean form to assert the harness
/// *fails* on a perturbed port; expect_identical uses gtest expectations
/// for readable per-dimension diagnostics.
inline bool results_identical(const RunResult& a, const RunResult& b) {
  if (a.monitor_name != b.monitor_name) return false;
  if (a.comm.upstream() != b.comm.upstream()) return false;
  if (a.comm.unicast() != b.comm.unicast()) return false;
  if (a.comm.broadcast() != b.comm.broadcast()) return false;
  for (std::size_t kind = 0; kind < kNumMsgKinds; ++kind) {
    if (a.comm.by_kind(static_cast<MsgKind>(kind)) !=
        b.comm.by_kind(static_cast<MsgKind>(kind))) {
      return false;
    }
  }
  if (a.comm.series() != b.comm.series()) return false;
  if (a.monitor.violation_steps != b.monitor.violation_steps) return false;
  if (a.monitor.violations != b.monitor.violations) return false;
  if (a.monitor.handler_calls != b.monitor.handler_calls) return false;
  if (a.monitor.midpoint_updates != b.monitor.midpoint_updates) return false;
  if (a.monitor.filter_resets != b.monitor.filter_resets) return false;
  if (a.monitor.protocol_runs != b.monitor.protocol_runs) return false;
  if (a.correct != b.correct) return false;
  if (a.error_steps != b.error_steps) return false;
  if (a.first_error_step != b.first_error_step) return false;
  if (a.error_step_list != b.error_step_list) return false;
  return true;
}

inline void expect_identical(const RunResult& a, const RunResult& b,
                             const std::string& label) {
  SCOPED_TRACE(label);
  EXPECT_EQ(a.monitor_name, b.monitor_name);

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

  // Algorithm event counters.
  EXPECT_EQ(a.monitor.violation_steps, b.monitor.violation_steps);
  EXPECT_EQ(a.monitor.violations, b.monitor.violations);
  EXPECT_EQ(a.monitor.handler_calls, b.monitor.handler_calls);
  EXPECT_EQ(a.monitor.midpoint_updates, b.monitor.midpoint_updates);
  EXPECT_EQ(a.monitor.filter_resets, b.monitor.filter_resets);
  EXPECT_EQ(a.monitor.protocol_runs, b.monitor.protocol_runs);

  // Per-step answer pattern against the ground truth: identical steps
  // must err (none at all for exact monitors on the instant network).
  EXPECT_EQ(a.correct, b.correct);
  EXPECT_EQ(a.error_steps, b.error_steps);
  EXPECT_EQ(a.first_error_step, b.first_error_step);
  EXPECT_EQ(a.error_step_list, b.error_step_list);
}

/// Drives both twins side by side over the same values and compares the
/// coordinator's answer after *every* step (rank order too when both
/// sides expose one), then — the coin-flip-identity proof — the final
/// state of all n node RNGs and the coordinator RNG. Identical final
/// RNG state on identical seeds means both implementations consumed
/// exactly the same draws in the same order.
inline void expect_twin_lockstep_parity(const std::string& spec,
                                        const std::string& family, Shape s,
                                        std::uint64_t seed,
                                        std::size_t steps) {
  SCOPED_TRACE("twin " + spec + " fam=" + family);
  const StreamSpec stream = parse_stream_spec(family, StreamSpec{});

  // Lock-step oracle side.
  Cluster lock_cluster(s.n, seed);
  auto monitor = exp::make_monitor(spec, s.k);
  auto lock_streams = make_stream_set(stream, s.n, seed);

  // Native role side.
  Cluster role_cluster(s.n, seed);
  exp::RolePair pair = exp::make_role_pair(role_cluster, spec, s.k);
  ASSERT_TRUE(pair.native) << spec << " did not resolve to a native port";
  SimDriver driver(role_cluster, *pair.coordinator, pair.nodes, pair.native);
  auto role_streams = make_stream_set(stream, s.n, seed);

  const auto* ordered_lockstep =
      dynamic_cast<const OrderedTopkMonitor*>(monitor.get());
  const auto* ordered_native =
      dynamic_cast<const OrderedCoordinator*>(pair.coordinator.get());

  std::vector<Value> observed(s.n);
  const auto observe = [&](Cluster& cluster, StreamSet& streams) {
    streams.advance_all(observed);
    for (NodeId id = 0; id < s.n; ++id) cluster.set_value(id, observed[id]);
  };
  const auto compare_answers = [&](TimeStep t) {
    EXPECT_EQ(monitor->topk(), pair.coordinator->topk()) << "step " << t;
    if (ordered_lockstep != nullptr && ordered_native != nullptr) {
      EXPECT_EQ(ordered_lockstep->ordered_topk(),
                ordered_native->ordered_topk())
          << "order at step " << t;
    }
  };

  lock_cluster.stats().begin_step(0);
  observe(lock_cluster, lock_streams);
  monitor->initialize(lock_cluster);
  role_cluster.stats().begin_step(0);
  observe(role_cluster, role_streams);
  driver.initialize();
  compare_answers(0);

  for (TimeStep t = 1; t <= steps; ++t) {
    lock_cluster.stats().begin_step(t);
    observe(lock_cluster, lock_streams);
    monitor->step(lock_cluster, t);
    role_cluster.stats().begin_step(t);
    observe(role_cluster, role_streams);
    driver.step(t);
    compare_answers(t);
  }

  for (NodeId id = 0; id < s.n; ++id) {
    EXPECT_TRUE(lock_cluster.node_rng(id) == role_cluster.node_rng(id))
        << "node " << id << " RNG state diverged (unequal coin draws)";
  }
  EXPECT_TRUE(lock_cluster.coordinator_rng() == role_cluster.coordinator_rng())
      << "coordinator RNG state diverged (unequal coin draws)";
  EXPECT_EQ(lock_cluster.stats().total(), role_cluster.stats().total());
}

}  // namespace topkmon::harness
