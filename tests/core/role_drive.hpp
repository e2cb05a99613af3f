// Test helpers for driving monitors through their role pairs.
//
//   * run_spec — one run_scenario over a stream family (the experiment
//     path), strict validation by default;
//   * Deployed — a hand-driven deployment (cluster, the registry's role
//     pair, a SimDriver) for tests that set every value themselves and
//     inspect the coordinator or node state between steps;
//   * run_streams — run_scenario over a caller-built stream set (e.g.
//     TraceMatrix::to_stream_set()), validated every step.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/driver.hpp"
#include "core/runner.hpp"
#include "exp/monitor_registry.hpp"
#include "exp/scenario.hpp"
#include "sim/cluster.hpp"
#include "sim/event_log.hpp"
#include "streams/factory.hpp"

namespace topkmon::testing {

inline RunResult run_spec(
    const std::string& spec, const StreamSpec& stream, std::size_t n,
    std::size_t k, std::size_t steps, std::uint64_t seed,
    RunConfig::Validation validation = RunConfig::Validation::kStrict) {
  exp::Scenario sc;
  sc.monitor = spec;
  sc.stream = stream;
  sc.n = n;
  sc.k = k;
  sc.steps = steps;
  sc.seed = seed;
  sc.validation = validation;
  return exp::run_scenario(sc);
}

/// A random-walk workload with per-step increments up to `max_step`.
inline StreamSpec walk(Value max_step) {
  StreamSpec spec;
  spec.family = StreamFamily::kRandomWalk;
  spec.walk.max_step = max_step;
  return spec;
}

/// One role-pair deployment driven step by step with explicit values.
class Deployed {
 public:
  /// Sets `v0` (one value per node) and initializes the monitor;
  /// `series` records the per-step message series, and `log`, when
  /// given, taps every message from initialization on.
  Deployed(const std::string& spec, std::size_t k, std::uint64_t seed,
           const std::vector<Value>& v0, bool series = false,
           EventLog* log = nullptr)
      : cluster_(v0.size(), seed),
        pair_(exp::make_role_pair(cluster_, spec, k)),
        driver_(cluster_, *pair_.coordinator, pair_.nodes, pair_.native),
        log_(log) {
    if (series) cluster_.stats().enable_series();
    if (log_ != nullptr) cluster_.net().set_tap(log_->tap());
    begin_step(0);
    set(v0);
    driver_.initialize();
  }

  /// Observation step t with the given values.
  void step(const std::vector<Value>& values, TimeStep t) {
    begin_step(t);
    set(values);
    driver_.step(t);
  }

  const std::vector<NodeId>& topk() const { return pair_.coordinator->topk(); }
  std::string_view name() const { return pair_.coordinator->name(); }
  const MonitorStats& stats() const {
    return pair_.coordinator->monitor_stats();
  }
  std::uint64_t messages() const { return cluster_.stats().total(); }
  Cluster& cluster() { return cluster_; }

  template <typename Coord>
  const Coord& coordinator() const {
    return dynamic_cast<const Coord&>(*pair_.coordinator);
  }
  template <typename Node>
  const Node& node(NodeId id) const {
    return dynamic_cast<const Node&>(*pair_.nodes.at(id));
  }

 private:
  void begin_step(TimeStep t) {
    cluster_.stats().begin_step(t);
    if (log_ != nullptr) log_->begin_step(t);
  }
  void set(const std::vector<Value>& values) {
    for (NodeId id = 0; id < values.size(); ++id) {
      cluster_.set_value(id, values[id]);
    }
  }

  Cluster cluster_;
  exp::RolePair pair_;
  SimDriver driver_;
  EventLog* log_;
};

/// `final_answer`, when given, receives the coordinator's last answer.
inline RunResult run_streams(const std::string& spec, StreamSet streams,
                             const RunConfig& cfg,
                             bool throw_on_error = true,
                             std::vector<NodeId>* final_answer = nullptr) {
  exp::Scenario sc;
  sc.monitor = spec;
  sc.n = cfg.n;
  sc.k = cfg.k;
  sc.steps = cfg.steps;
  sc.seed = cfg.seed;
  sc.validation = cfg.validation;
  sc.validate_order = cfg.validate_order;
  sc.record_trace = cfg.record_trace;
  sc.record_series = cfg.record_series;
  sc.throw_on_error = throw_on_error;
  if (final_answer != nullptr) {
    sc.on_step = [final_answer](TimeStep, const std::vector<Value>&,
                                const std::vector<NodeId>& topk) {
      *final_answer = topk;
    };
  }
  return exp::run_scenario(sc, std::move(streams));
}

}  // namespace topkmon::testing
