// Declarative experiment scenarios: one struct describes *everything* a
// single simulation needs — which monitor (registry spec string), which
// workload (StreamSpec, family settable by name), which network policy
// (NetworkSpec, parseable from a string), the problem size and the
// validation regime. run_scenario() is the single execution entry point.
// It builds a Deployment (core/deployment.hpp) — the monolithic one (one
// cluster, the registry's role pair, one SimDriver) or, at shards > 1,
// the two-tier ShardedDeployment — and runs one step loop over it for
// either tier: observe, write the step's values in bulk, apply the fault
// schedule's ground-truth effects, step, validate every step against the
// ground truth, and return the familiar RunResult.
//
// Every monitor is one role pair, so every monitor runs under every
// network policy and fault plan. Under the default instant network each
// reproduces, message for message and coin flip for coin flip, the
// frozen records of the lock-step implementation it replaced
// (tests/core/lockstep_golden.inc).
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "core/runner.hpp"
#include "sim/network_model.hpp"
#include "streams/factory.hpp"

namespace topkmon::exp {

struct Scenario {
  /// Monitor registry spec, e.g. "topk_filter" or "slack?alpha=0.1".
  std::string monitor = "topk_filter";

  /// Workload description; set `stream.family` directly or via
  /// with_stream_family().
  StreamSpec stream{};

  /// Delivery policy (see sim/network_model.hpp); default instant.
  NetworkSpec network{};

  std::size_t n = 16;         ///< number of nodes
  std::size_t k = 4;          ///< monitored top-k size
  std::size_t steps = 1'000;  ///< observation steps after initialization
  std::uint64_t seed = 42;    ///< cluster / stream / link randomness seed

  /// Per-step ground-truth check: kStrict (exact canonical set), kWeak
  /// (any valid set under ties), kOff (no checking; perf runs).
  RunConfig::Validation validation = RunConfig::Validation::kStrict;
  /// Additionally require the answer's rank *order* to match (only
  /// meaningful for the ordered monitor).
  bool validate_order = false;
  /// Record the full n × steps value matrix in RunResult::trace.
  bool record_trace = false;
  /// Record per-step message-count series in the CommStats.
  bool record_series = false;

  /// Propagate validation divergence as an exception (else it is recorded
  /// in RunResult::error_steps — the right mode for lossy networks).
  bool throw_on_error = true;

  /// Diagnostic / benchmark escape hatch: run the driver's legacy dense
  /// per-tick scan and dense observe loop instead of the activity-driven
  /// sparse path. Output-identical by contract (the sparse/dense
  /// equivalence tests enforce it); the e16 scale suite uses it as the
  /// before side of its speedup measurements.
  bool dense_loop = false;

  /// Must be 1: run_scenario and run_sharded_scenario throw
  /// std::invalid_argument for any other value, 0 included, before any
  /// node callback runs (SimDriver / ShardedDeployment reject it). Kept
  /// only because perfbench, the repository's fixed benchmark
  /// instrument, sets it. Parallelism lives one level up: SweepRunner
  /// runs independent scenarios concurrently.
  std::size_t workers = 1;

  /// Shard count of the two-tier hierarchical deployment
  /// (core/root_merge.hpp): 1 (default) runs the single-coordinator path,
  /// c > 1 partitions the nodes across c shard coordinators under a root
  /// coordinator and routes the run through run_sharded_scenario —
  /// RunResult::comm then counts the node<->shard tier and
  /// RunResult::root_comm the shard<->root tier. A `?shards=c` monitor
  /// parameter (e.g. "topk_filter?shards=4") overrides this field. Only
  /// the monitors with a sharded deployment (exp::parse_sharded_spec:
  /// "topk_filter", "naive", "naive_chg" — a narrower set than the
  /// registered monitors) support c > 1.
  /// record_series works at any c: the per-shard series are merged
  /// element-wise into one deployment-level per-step series (every shard
  /// begins the same steps, so the series align by index).
  std::size_t shards = 1;

  /// Fault-injection plan (sim/fault_plan.hpp spec grammar): "none"
  /// (default) runs fault-free and byte-identical to a scenario without
  /// the field; anything else schedules crash / recover / join / leave /
  /// dynamic-k events — plus the adversarial degradations lag / stale /
  /// mute / heal — against the run. Composes with any network policy
  /// (schedules derive from the run seed like link randomness, so results
  /// stay byte-reproducible). Only "topk_filter",
  /// "approx", "naive" and "naive_chg" accept the `?suspect` parameter
  /// that convicts a degraded node; the other monitors reject it and carry
  /// a degradation until its heal. "ordered" and "multi_k" re-sync a
  /// recovered or joining node with a full reset; "multi_k" rejects
  /// dynamic-k events (its k set is fixed). With join
  /// events the cluster/streams/ground truth are provisioned at the
  /// plan's total_nodes(); RunResult::recovery_ticks then reports the
  /// re-convergence window of every event (for a degradation: the error
  /// tail until the monitor quarantines the node or the heal lands).
  /// Sharded deployments (shards > 1) accept churn and dynamic-k plans —
  /// the deployment carves the schedule into per-shard plans and the
  /// root renegotiates quotas across outages — and reject degradations
  /// (lag/stale/mute/heal require shards == 1).
  std::string faults = "none";

  /// Optional per-step observer called after each validated step with the
  /// step index, the true values and the coordinator's current answer
  /// (custom metrics such as regret; not part of the declarative core).
  std::function<void(TimeStep, const std::vector<Value>&,
                     const std::vector<NodeId>&)>
      on_step;

  // -- fluent helpers --------------------------------------------------------
  /// Sets the monitor registry spec (e.g. "topk_filter?nobeacon").
  Scenario& with_monitor(std::string spec) {
    monitor = std::move(spec);
    return *this;
  }
  Scenario& with_stream_family(std::string_view family) {
    // Param-aware: bare names keep their legacy meaning, and wrapper
    // specs such as "sparse?rate=0.01,inner=random_walk" patch the
    // current StreamSpec in place.
    stream = parse_stream_spec(family, stream);
    return *this;
  }
  /// Parses and sets the delivery policy (e.g. "delay=2,jitter=3").
  Scenario& with_network(std::string_view spec) {
    network = parse_network_spec(spec);
    return *this;
  }
  /// Sets the fault plan spec (e.g. "churn?every=200,down=3,count=5,
  /// outage=80"); validated at run time against n / k / seed.
  Scenario& with_faults(std::string spec) {
    faults = std::move(spec);
    return *this;
  }

  /// The equivalent legacy RunConfig (used to key RunResult rows).
  RunConfig run_config() const {
    RunConfig cfg;
    cfg.n = n;
    cfg.k = k;
    cfg.steps = steps;
    cfg.seed = seed;
    cfg.validation = validation;
    cfg.validate_order = validate_order;
    cfg.record_trace = record_trace;
    cfg.record_series = record_series;
    return cfg;
  }
};

/// Runs the scenario end to end and returns its result: the monolithic
/// deployment when the effective shard count (a `?shards=c` monitor
/// parameter, else Scenario::shards) is 1, else run_sharded_scenario.
/// Throws std::invalid_argument, before any node callback runs, for
/// malformed scenarios (unknown monitor/family, k out of range,
/// workers != 1, a dynamic-k plan for a monitor without on_set_k —
/// multi_k)
/// and std::logic_error on validation divergence when throw_on_error is
/// set. Thread-safe: concurrent calls share no state (each scenario
/// builds its own deployment), which is what the SweepRunner's trial
/// parallelism relies on.
RunResult run_scenario(const Scenario& scenario);

/// Runs the scenario's step loop over a two-tier ShardedDeployment
/// (core/root_merge.hpp) with `scenario.shards` shard coordinators (a
/// `?shards=c` monitor parameter wins over the field). Callable directly
/// with shards == 1 too — the root tier is then inert and the output is
/// message-for-message and answer-for-answer identical to run_scenario's
/// monolithic path, churn and dynamic-k plans included (pinned by
/// tests/core/test_shard_equivalence.cpp). Exactness at c > 1 is
/// guaranteed under instant delivery with pairwise-distinct values;
/// non-instant networks run supported-but-degraded, like the monolithic
/// monitors (error steps are recorded, use kWeak +
/// throw_on_error=false). Membership churn and dynamic-k fault plans are
/// supported at any c (whole-shard outages drain the dead shard's quota
/// at the root and regrant it on recovery); adversarial degradations are
/// not. Throws std::invalid_argument for monitors without a sharded
/// deployment or with a parameter the shards would drop
/// (exp::parse_sharded_spec), plans with degradations, shards > n, or
/// workers != 1.
RunResult run_sharded_scenario(const Scenario& scenario);

}  // namespace topkmon::exp
