#include "core/runner.hpp"

#include <algorithm>
#include <chrono>
#include <sstream>
#include <stdexcept>

#include "core/ground_truth_tracker.hpp"
#include "core/ordered_topk_monitor.hpp"
#include "util/log.hpp"

namespace topkmon {

void check_answer_step(GroundTruthTracker& truth,
                       const std::vector<NodeId>& answer,
                       const std::vector<NodeId>* claimed_order,
                       const RunConfig& cfg, std::string_view monitor_name,
                       std::string_view detail, TimeStep t, RunResult* result,
                       bool throw_on_error) {
  if (cfg.validation == RunConfig::Validation::kOff) return;

  bool ok = true;
  if (cfg.validation == RunConfig::Validation::kStrict) {
    ok = truth.matches_strict(answer);
  } else {
    ok = truth.is_valid(answer);
  }

  if (ok && cfg.validate_order && claimed_order != nullptr) {
    ok = (*claimed_order == truth.ordered_topk());
  }

  if (!ok) {
    result->correct = false;
    ++result->error_steps;
    result->error_step_list.push_back(t);
    if (!result->first_error_step.has_value()) result->first_error_step = t;
    if (throw_on_error) {
      std::ostringstream msg;
      msg << "monitor '" << monitor_name << "' diverged from ground truth "
          << "at step " << t << detail;
      throw std::logic_error(msg.str());
    }
  }
}

namespace {

void check_step(const MonitorBase& monitor, GroundTruthTracker& truth,
                const RunConfig& cfg, TimeStep t, RunResult* result,
                bool throw_on_error) {
  const auto* ordered =
      cfg.validate_order
          ? dynamic_cast<const OrderedTopkMonitor*>(&monitor)
          : nullptr;
  check_answer_step(truth, monitor.topk(),
                    ordered != nullptr ? &ordered->ordered_topk() : nullptr,
                    cfg, monitor.name(), /*detail=*/"", t, result,
                    throw_on_error);
}

}  // namespace

RunResult run_monitor(MonitorBase& monitor, StreamSet& streams,
                      const RunConfig& cfg, bool throw_on_error) {
  if (streams.size() != cfg.n) {
    throw std::invalid_argument("run_monitor: stream count != n");
  }
  if (cfg.k == 0 || cfg.k > cfg.n) {
    throw std::invalid_argument("run_monitor: k out of range");
  }

  const auto wall_start = std::chrono::steady_clock::now();

  Cluster cluster(cfg.n, cfg.seed);
  if (cfg.record_series) cluster.stats().enable_series();

  RunResult result;
  result.monitor_name = std::string(monitor.name());
  result.config = cfg;
  if (cfg.record_trace) result.trace.emplace(cfg.n, cfg.steps + 1);

  // Incremental ground truth: fed alongside the cluster, consulted by the
  // per-step check. Untouched when validation is off.
  GroundTruthTracker truth(cfg.n, cfg.k);
  const bool track = cfg.validation != RunConfig::Validation::kOff;

  std::vector<Value> observed(cfg.n);

  const auto observe = [&](TimeStep t) {
    streams.advance_all(observed);
    for (NodeId id = 0; id < cfg.n; ++id) {
      const Value v = observed[id];
      // Unchanged values leave cluster and tracker state identical, so
      // only changed nodes pay the write + tracker update (the lock-step
      // monitor itself still scans densely inside step()).
      if (v != cluster.value(id)) {
        cluster.set_value(id, v);
        if (track) truth.set_value(id, v);
      }
      if (result.trace.has_value()) result.trace->at(t, id) = v;
    }
  };

  // Time 0: first observations + initialization.
  cluster.stats().begin_step(0);
  observe(0);
  monitor.initialize(cluster);
  check_step(monitor, truth, cfg, 0, &result, throw_on_error);
  ++result.steps_executed;
  result.init_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();

  // Steps 1..steps.
  for (TimeStep t = 1; t <= cfg.steps; ++t) {
    cluster.stats().begin_step(t);
    observe(t);
    monitor.step(cluster, t);
    check_step(monitor, truth, cfg, t, &result, throw_on_error);
    ++result.steps_executed;
  }

  result.comm = cluster.stats();
  result.monitor = monitor.monitor_stats();
  result.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();
  return result;
}

double competitive_ratio(const RunResult& result, std::size_t k) {
  if (!result.trace.has_value()) {
    throw std::invalid_argument(
        "competitive_ratio: run was executed without record_trace");
  }
  const auto opt = compute_offline_opt(*result.trace, k);
  // The paper charges OPT at least one message per filter-update epoch;
  // the initial epoch's setup is charged to both algorithms, so compare
  // against max(1, updates) to avoid division by zero on silent traces.
  const auto denom = std::max<std::size_t>(1, opt.updates());
  return static_cast<double>(result.comm.total()) /
         static_cast<double>(denom);
}

}  // namespace topkmon
