#include "exp/scenario.hpp"

#include <algorithm>
#include <chrono>
#include <memory>
#include <optional>
#include <stdexcept>

#include "core/deployment.hpp"
#include "core/driver.hpp"
#include "core/ground_truth_tracker.hpp"
#include "core/ordered_roles.hpp"
#include "core/root_merge.hpp"
#include "exp/monitor_registry.hpp"
#include "sim/cluster.hpp"
#include "sim/fault_plan.hpp"

namespace topkmon::exp {

namespace {

/// The single-coordinator deployment: one cluster, the registry's role
/// pair for the spec and one SimDriver. The driver fires the whole fault
/// plan itself, dynamic-k events included.
class MonolithicDeployment final : public Deployment {
 public:
  MonolithicDeployment(const Scenario& sc, const std::string& spec,
                       const FaultPlan& plan, std::size_t n)
      : cluster_(n, sc.seed, sc.network),
        pair_(make_role_pair(cluster_, spec, sc.k)),
        driver_(cluster_, *pair_.coordinator, pair_.nodes,
                /*auto_deliver=*/true, sc.workers) {
    const auto& events = plan.events();
    if (!pair_.dynamic_k &&
        std::any_of(events.begin(), events.end(), [](const FaultEvent& ev) {
          return ev.kind == FaultEvent::Kind::kSetK;
        })) {
      throw std::invalid_argument("run_scenario: monitor '" + spec +
                                  "' does not support dynamic-k events (fault "
                                  "plan '" + sc.faults + "')");
    }
    if (sc.record_series) cluster_.stats().enable_series();
    driver_.set_dense_loop(sc.dense_loop);
    if (!plan.empty()) {
      driver_.set_fault_plan(&plan);
      // Ids provisioned for a later join start down in the transport.
      for (NodeId id = static_cast<NodeId>(plan.initial_nodes()); id < n;
           ++id) {
        cluster_.net().set_node_down(id);
      }
    }
    if (const auto* ordered =
            dynamic_cast<const OrderedCoordinator*>(pair_.coordinator.get())) {
      ordered_ = &ordered->ordered_topk();
    }
  }

  std::string_view name() const override { return pair_.coordinator->name(); }
  void set_values(std::span<const NodeId> ids,
                  std::span<const Value> column) override {
    for (const NodeId id : ids) cluster_.set_value(id, column[id]);
  }
  void begin_step(TimeStep t) override { cluster_.stats().begin_step(t); }
  void initialize() override { driver_.initialize(); }
  void step(TimeStep t, std::span<const NodeId> changed) override {
    driver_.step(t, changed);
  }
  const std::vector<NodeId>& topk() const override {
    return pair_.coordinator->topk();
  }
  const std::vector<NodeId>* ordered_topk() const override { return ordered_; }
  SimTime ticks() const override { return driver_.now(); }
  void fill_result(RunResult& result) override {
    result.comm = cluster_.stats();
    result.monitor = pair_.coordinator->monitor_stats();
  }

 private:
  Cluster cluster_;
  RolePair pair_;
  SimDriver driver_;
  const std::vector<NodeId>* ordered_ = nullptr;
};

/// The one observation-step loop. `make` builds the deployment over the
/// provisioned id range once the fault plan is validated; `detail` tags
/// validation errors.
template <typename Make>
RunResult run_deployment(const Scenario& sc, const char* caller,
                         const std::string& detail, const Make& make) {
  if (sc.k == 0 || sc.k > sc.n) {
    throw std::invalid_argument(std::string(caller) + ": k out of range");
  }

  // Fault plan: validated up front so provisioning (deployment, streams,
  // ground truth) accounts for joining nodes. An empty plan ("none")
  // leaves every allocation and every RNG stream exactly as before —
  // fault-free runs stay byte-identical.
  const FaultPlan plan(sc.faults, sc.n, sc.k, sc.seed);
  const bool faulty = !plan.empty();
  const std::size_t N = faulty ? plan.total_nodes() : sc.n;

  const auto wall_start = std::chrono::steady_clock::now();
  auto streams = make_stream_set(sc.stream, N, sc.seed);
  const std::unique_ptr<Deployment> owned = make(plan, N);
  Deployment& dep = *owned;

  const RunConfig cfg = sc.run_config();
  RunResult result;
  result.config = cfg;
  result.network = sc.network.name();
  if (sc.record_trace) result.trace.emplace(N, sc.steps + 1);

  // Validation shares the legacy runner's core (incremental ground
  // truth). The tracker's k is fixed at construction, so a dynamic-k
  // event re-emplaces it (and re-feeds the value mirror).
  std::optional<GroundTruthTracker> truth(std::in_place, N, sc.k);
  const bool track = cfg.validation != RunConfig::Validation::kOff;
  const auto check = [&](TimeStep t) {
    check_answer_step(*truth, dep.topk(), dep.ordered_topk(), cfg, dep.name(),
                      detail, t, &result, sc.throw_on_error);
  };

  // Down-node bookkeeping mirroring the deployment's alive bits at step
  // granularity: ids provisioned for a later join start down (the
  // deployment keeps them off its transport; the ground truth excludes
  // them until their join event fires).
  std::vector<char> down(N, 0);
  for (NodeId id = static_cast<NodeId>(sc.n); id < N; ++id) {
    down[id] = 1;
    if (track) truth->set_value(id, kMinusInf);
  }

  // Two observation paths producing identical values and an identical
  // changed-id list: quiet-capable stream sets (the sparse wrapper
  // family) advance through the activity interface, touching only active
  // nodes; everything else generates the whole step in one stream-bank
  // call plus a flat previous-value compare. Either way the deployment
  // and the ground truth then take the step's writes in one bulk call
  // each. Down nodes keep streaming into values[] (their stream RNG stays
  // in lock-step with a fault-free run) but write neither the deployment
  // nor the ground truth until recovery syncs their latest value back
  // in; the quiet path still lists them as changed.
  const bool quiet_streams = streams.quiet_capable();
  std::vector<Value> values(N, 0);  // mirrors the (all-zero) deployment
  std::vector<Value> incoming(quiet_streams ? 0 : N);
  std::vector<NodeId> changed;
  changed.reserve(N);
  std::vector<NodeId> live;  // quiet path under faults: changed minus down

  const auto write = [&](std::span<const NodeId> ids) {
    dep.set_values(ids, values);
    if (track) truth->set_values(ids, values);
  };
  const auto observe = [&](TimeStep t) {
    if (quiet_streams) {
      streams.advance_all_active(values, changed);
      if (faulty) {
        live.clear();
        for (const NodeId id : changed) {
          if (!down[id]) live.push_back(id);
        }
        write(live);
      } else {
        write(changed);
      }
    } else {
      streams.advance_all(incoming);
      changed.clear();
      for (NodeId id = 0; id < N; ++id) {
        if (incoming[id] != values[id] && !down[id]) changed.push_back(id);
      }
      values.swap(incoming);
      write(changed);
    }
    if (result.trace.has_value()) {
      for (NodeId id = 0; id < N; ++id) result.trace->at(t, id) = values[id];
    }
  };

  // Loop-side mirror of the fault schedule: the deployment fires the
  // events inside step(t); this cursor applies their ground-truth and
  // value-sync effects at the same step, and opens a recovery window per
  // burst — each erroring step extends the window's entries in
  // result.recovery_ticks until the answer stops diverging (or the next
  // burst takes over).
  std::size_t next_event = 0;
  std::size_t win_begin = 0;
  std::size_t win_end = 0;
  std::uint64_t win_tick = 0;
  bool win_open = false;
  if (faulty) result.recovery_ticks.assign(plan.events().size(), 0);

  const auto bring_up = [&](NodeId id) {
    down[id] = 0;
    write(std::span<const NodeId>(&id, 1));
  };
  const auto apply_events = [&](TimeStep t) {
    const std::size_t first = next_event;
    const auto& events = plan.events();
    while (next_event < events.size() && events[next_event].step == t) {
      const FaultEvent& ev = events[next_event];
      switch (ev.kind) {
        case FaultEvent::Kind::kCrash:
        case FaultEvent::Kind::kLeave:
          down[ev.node] = 1;
          if (track) truth->set_value(ev.node, kMinusInf);
          break;
        case FaultEvent::Kind::kRecover:
          bring_up(ev.node);
          break;
        case FaultEvent::Kind::kJoin:
          for (std::size_t i = 0; i < ev.count; ++i) {
            bring_up(ev.node + static_cast<NodeId>(i));
          }
          break;
        case FaultEvent::Kind::kSetK:
          if (track) {
            truth.emplace(N, ev.count);
            for (NodeId id = 0; id < N; ++id) {
              truth->set_value(id, down[id] ? kMinusInf : values[id]);
            }
          }
          break;
        case FaultEvent::Kind::kLag:
        case FaultEvent::Kind::kStale:
        case FaultEvent::Kind::kMute:
        case FaultEvent::Kind::kHeal:
          // Degradations touch neither the truth nor the value mirror (the
          // node is up and observing; only its wire behaviour changes) —
          // but they do open a recovery window below, so the error tail
          // the monitor accrues until it quarantines / heals is charged to
          // the event in result.recovery_ticks.
          break;
      }
      ++next_event;
    }
    if (next_event != first) {
      win_begin = first;
      win_end = next_event;
      win_tick = dep.ticks();
      win_open = true;
    }
  };

  // Time 0: first observations + initialization.
  dep.begin_step(0);
  observe(0);
  dep.initialize();
  check(0);
  ++result.steps_executed;
  if (sc.on_step) sc.on_step(0, values, dep.topk());
  result.init_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();

  // Steps 1..steps.
  for (TimeStep t = 1; t <= sc.steps; ++t) {
    dep.begin_step(t);
    observe(t);
    if (faulty) apply_events(t);
    const std::uint64_t errors_before = result.error_steps;
    dep.step(t, changed);
    check(t);
    if (win_open && result.error_steps != errors_before) {
      const std::uint64_t w = dep.ticks() - win_tick;
      for (std::size_t i = win_begin; i < win_end; ++i) {
        result.recovery_ticks[i] = w;
      }
    }
    ++result.steps_executed;
    if (sc.on_step) sc.on_step(t, values, dep.topk());
  }

  result.monitor_name = std::string(dep.name());
  dep.fill_result(result);
  result.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();
  return result;
}

}  // namespace

RunResult run_scenario(const Scenario& sc) {
  // An explicit `?shards=c` monitor parameter wins over Scenario::shards;
  // an effective count > 1 runs the two-tier deployment. `?shards=1` is
  // stripped and runs the monolithic deployment.
  const auto [spec, shards_param] = split_shards_param(sc.monitor);
  if ((shards_param != 0 ? shards_param : sc.shards) > 1) {
    return run_sharded_scenario(sc);
  }
  return run_deployment(
      sc, "run_scenario", " (network " + sc.network.name() + ")",
      [&](const FaultPlan& plan, std::size_t n) {
        return std::make_unique<MonolithicDeployment>(sc, spec, plan, n);
      });
}

RunResult run_sharded_scenario(const Scenario& sc) {
  const auto [spec, shards_param] = split_shards_param(sc.monitor);
  const std::size_t shards = shards_param != 0 ? shards_param : sc.shards;
  if (shards == 0 || shards > sc.n) {
    throw std::invalid_argument(
        "run_sharded_scenario: need 1 <= shards <= n");
  }
  ShardedSpec dspec = parse_sharded_spec(spec);
  dspec.k = sc.k;
  dspec.shards = shards;
  dspec.seed = sc.seed;
  dspec.network = sc.network;
  dspec.workers = sc.workers;
  dspec.dense_loop = sc.dense_loop;
  return run_deployment(
      sc, "run_sharded_scenario",
      " (network " + sc.network.name() + ", shards " + std::to_string(shards) +
          ")",
      [&](const FaultPlan& plan, std::size_t n) {
        // Ids [sc.n, n) are provisioned for joins; the deployment carves
        // the plan into per-shard schedules.
        dspec.n = n;
        if (!plan.empty()) dspec.faults = &plan;
        auto dep = std::make_unique<ShardedDeployment>(dspec);
        if (sc.record_series) {
          // Every shard cluster begins the same observation steps, so the
          // per-shard series align by index and node_shard_comm's
          // accumulate merges them into one deployment-level series.
          for (std::size_t s = 0; s < dep->shards(); ++s) {
            dep->shard_cluster(s).stats().enable_series();
          }
        }
        return dep;
      });
}

}  // namespace topkmon::exp
