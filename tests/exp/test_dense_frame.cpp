// The dense-step frame must be a pure change of shape: run_scenario's
// loop, which hands a non-quiet step to the deployment and the ground
// truth as one (change mask, value column) frame, must reproduce the
// per-id loop it replaced. The reference below re-drives a scenario
// through the public per-id calls only — StreamSet::advance_all, a
// scalar previous-value compare, per-id value writes on the deployment
// and the tracker, and a step over the changed-id list — with the same
// fault bookkeeping, and the two must agree on messages by kind, error
// steps, recovery windows and every step's answer.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/driver.hpp"
#include "core/ground_truth_tracker.hpp"
#include "core/root_merge.hpp"
#include "exp/monitor_registry.hpp"
#include "exp/scenario.hpp"
#include "sim/cluster.hpp"
#include "sim/fault_plan.hpp"
#include "sim/message.hpp"

namespace topkmon {
namespace {

using exp::Scenario;

/// The monolithic deployment run_scenario builds, driven per id.
class MonolithicRef {
 public:
  MonolithicRef(const Scenario& sc, const FaultPlan& plan, std::size_t n)
      : cluster_(n, sc.seed, sc.network),
        pair_(exp::make_role_pair(cluster_, sc.monitor, sc.k)),
        driver_(cluster_, *pair_.coordinator, pair_.nodes) {
    if (!plan.empty()) {
      driver_.set_fault_plan(&plan);
      for (NodeId id = static_cast<NodeId>(plan.initial_nodes()); id < n;
           ++id) {
        cluster_.net().set_node_down(id);
      }
    }
  }

  void begin_step(TimeStep t) { cluster_.stats().begin_step(t); }
  void set_value(NodeId id, Value v) { cluster_.set_value(id, v); }
  void initialize() { driver_.initialize(); }
  void step(TimeStep t, std::span<const NodeId> changed) {
    driver_.step(t, changed);
  }
  const std::vector<NodeId>& topk() const { return pair_.coordinator->topk(); }
  std::string_view name() const { return pair_.coordinator->name(); }
  SimTime ticks() const { return driver_.now(); }
  std::uint64_t by_kind(MsgKind kind) const {
    return cluster_.stats().by_kind(kind);
  }

 private:
  Cluster cluster_;
  exp::RolePair pair_;
  SimDriver driver_;
};

/// The two-tier deployment, through its per-id entry points.
class ShardedRef {
 public:
  ShardedRef(const Scenario& sc, const FaultPlan& plan, std::size_t n)
      : dep_([&] {
          ShardedSpec d = exp::parse_sharded_spec(sc.monitor);
          d.n = n;
          d.k = sc.k;
          d.shards = sc.shards;
          d.seed = sc.seed;
          d.network = sc.network;
          if (!plan.empty()) d.faults = &plan;
          return d;
        }()) {}

  void begin_step(TimeStep t) { dep_.begin_step(t); }
  void set_value(NodeId id, Value v) { dep_.set_value(id, v); }
  void initialize() { dep_.initialize(); }
  void step(TimeStep t, std::span<const NodeId> changed) {
    dep_.step(t, changed);
  }
  const std::vector<NodeId>& topk() const { return dep_.topk(); }
  std::string_view name() const { return dep_.name(); }
  SimTime ticks() const { return dep_.ticks(); }
  std::uint64_t by_kind(MsgKind kind) {
    return dep_.node_shard_comm().by_kind(kind) +
           dep_.shard_root_comm().by_kind(kind);
  }

 private:
  ShardedDeployment dep_;
};

struct Outcome {
  std::vector<std::uint64_t> msgs_by_kind;
  std::uint64_t error_steps = 0;
  std::vector<std::uint64_t> recovery_ticks;
  std::vector<std::vector<NodeId>> answers;
};

/// run_scenario's loop for a non-quiet stream set, per id.
template <typename Ref>
Outcome reference(const Scenario& sc, Ref& dep, const FaultPlan& plan,
                  std::size_t n) {
  const bool faulty = !plan.empty();
  const RunConfig cfg = sc.run_config();
  StreamSet streams = make_stream_set(sc.stream, n, sc.seed);
  std::optional<GroundTruthTracker> truth(std::in_place, n, sc.k);
  RunResult result;
  Outcome out;
  if (faulty) result.recovery_ticks.assign(plan.events().size(), 0);

  std::vector<char> down(n, 0);
  for (NodeId id = static_cast<NodeId>(sc.n); id < n; ++id) {
    down[id] = 1;
    truth->set_value(id, kMinusInf);
  }
  std::vector<Value> values(n, 0), incoming(n);
  std::vector<NodeId> changed;
  const auto write = [&](NodeId id) {
    dep.set_value(id, values[id]);
    truth->set_value(id, values[id]);
  };
  const auto observe = [&] {
    streams.advance_all(incoming);
    changed.clear();
    for (NodeId id = 0; id < n; ++id) {
      if (incoming[id] != values[id] && !down[id]) changed.push_back(id);
    }
    values.swap(incoming);
    for (const NodeId id : changed) write(id);
  };
  const auto check = [&](TimeStep t) {
    check_answer_step(*truth, dep.topk(), nullptr, cfg, dep.name(), "", t,
                      &result, /*throw_on_error=*/false);
    out.answers.push_back(dep.topk());
  };

  std::size_t next_event = 0, win_begin = 0, win_end = 0;
  std::uint64_t win_tick = 0;
  bool win_open = false;
  const auto apply_events = [&](TimeStep t) {
    const std::size_t first = next_event;
    const auto& events = plan.events();
    for (; next_event < events.size() && events[next_event].step == t;
         ++next_event) {
      const FaultEvent& ev = events[next_event];
      switch (ev.kind) {
        case FaultEvent::Kind::kCrash:
        case FaultEvent::Kind::kLeave:
          down[ev.node] = 1;
          truth->set_value(ev.node, kMinusInf);
          break;
        case FaultEvent::Kind::kRecover:
          down[ev.node] = 0;
          write(ev.node);
          break;
        case FaultEvent::Kind::kJoin:
          for (std::size_t i = 0; i < ev.count; ++i) {
            const auto id = static_cast<NodeId>(ev.node + i);
            down[id] = 0;
            write(id);
          }
          break;
        case FaultEvent::Kind::kSetK:
          truth.emplace(n, ev.count);
          for (NodeId id = 0; id < n; ++id) {
            truth->set_value(id, down[id] ? kMinusInf : values[id]);
          }
          break;
        default:
          break;
      }
    }
    if (next_event != first) {
      win_begin = first;
      win_end = next_event;
      win_tick = dep.ticks();
      win_open = true;
    }
  };

  dep.begin_step(0);
  observe();
  dep.initialize();
  check(0);
  for (TimeStep t = 1; t <= sc.steps; ++t) {
    dep.begin_step(t);
    observe();
    if (faulty) apply_events(t);
    const std::uint64_t errors_before = result.error_steps;
    dep.step(t, changed);
    check(t);
    if (win_open && result.error_steps != errors_before) {
      for (std::size_t i = win_begin; i < win_end; ++i) {
        result.recovery_ticks[i] = dep.ticks() - win_tick;
      }
    }
  }
  for (std::size_t k = 0; k < kNumMsgKinds; ++k) {
    out.msgs_by_kind.push_back(dep.by_kind(static_cast<MsgKind>(k)));
  }
  out.error_steps = result.error_steps;
  out.recovery_ticks = result.recovery_ticks;
  return out;
}

Outcome via_run_scenario(Scenario sc) {
  Outcome out;
  sc.on_step = [&out](TimeStep, const std::vector<Value>&,
                      const std::vector<NodeId>& answer) {
    out.answers.push_back(answer);
  };
  const RunResult r = exp::run_scenario(sc);
  for (std::size_t k = 0; k < kNumMsgKinds; ++k) {
    const auto kind = static_cast<MsgKind>(k);
    out.msgs_by_kind.push_back(r.comm.by_kind(kind) + r.root_comm.by_kind(kind));
  }
  out.error_steps = r.error_steps;
  out.recovery_ticks = r.recovery_ticks;
  return out;
}

/// Runs both loops and compares them; returns the reference outcome.
Outcome expect_matches_reference(const std::string& monitor,
                                 std::size_t shards,
                                 const std::string& family,
                                 const std::string& faults) {
  SCOPED_TRACE(monitor + " / shards " + std::to_string(shards) + " / " +
               family + " / " + faults);
  Scenario sc;
  sc.monitor = monitor;
  sc.shards = shards;
  sc.with_stream_family(family);
  sc.stream.walk.max_step = 5'000;
  sc.n = 40;
  sc.k = 5;
  sc.steps = 150;
  sc.seed = 77;
  sc.faults = faults;
  sc.validation = RunConfig::Validation::kStrict;
  sc.throw_on_error = false;

  const FaultPlan plan(sc.faults, sc.n, sc.k, sc.seed);
  const std::size_t n = plan.empty() ? sc.n : plan.total_nodes();
  Outcome want;
  if (shards > 1) {
    ShardedRef dep(sc, plan, n);
    want = reference(sc, dep, plan, n);
  } else {
    MonolithicRef dep(sc, plan, n);
    want = reference(sc, dep, plan, n);
  }
  const Outcome got = via_run_scenario(sc);

  for (std::size_t k = 0; k < kNumMsgKinds; ++k) {
    EXPECT_EQ(got.msgs_by_kind[k], want.msgs_by_kind[k])
        << msg_kind_name(static_cast<MsgKind>(k));
  }
  EXPECT_EQ(got.error_steps, want.error_steps);
  EXPECT_EQ(got.recovery_ticks, want.recovery_ticks);
  EXPECT_EQ(got.answers.size(), want.answers.size());
  for (std::size_t t = 0; t < std::min(got.answers.size(),
                                       want.answers.size()); ++t) {
    EXPECT_EQ(got.answers[t], want.answers[t]) << "step " << t;
  }
  return want;
}

constexpr const char* kFamilies[] = {"random_walk", "iid_uniform"};

TEST(DenseFrame, MatchesPerIdLoopUnderChurn) {
  for (const std::size_t shards : {1, 3}) {
    for (const char* family : kFamilies) {
      expect_matches_reference("topk_filter", shards, family, "none");
      expect_matches_reference(
          "topk_filter", shards, family,
          "churn?crash=3@20,recover=3@50,join=+4@60,crash=17@90,"
          "recover=17@110");
    }
  }
}

TEST(DenseFrame, MatchesPerIdLoopUnderDegradationsWithSuspect) {
  // Sharded deployments reject degradation plans. On iid values the
  // degraded nodes cost error steps, so recovery windows are compared
  // with something in them.
  std::uint64_t errors = 0;
  for (const char* family : kFamilies) {
    errors += expect_matches_reference("topk_filter?suspect", 1, family,
                                       "churn?lag=2@20:30,stale=5@30,"
                                       "mute=7@40,heal=2@70,heal=5@80,"
                                       "heal=7@90")
                  .error_steps;
  }
  EXPECT_GT(errors, 0u);
}

TEST(DenseFrame, MatchesPerIdLoopAcrossDynamicK) {
  for (const std::size_t shards : {1, 3}) {
    for (const char* family : kFamilies) {
      expect_matches_reference("topk_filter", shards, family,
                               "churn?crash=5@40,recover=5@70,k=10@80");
    }
  }
}

TEST(DenseFrame, NaiveMatchesPerIdLoopUnderChurn) {
  // Naive nodes declare the empty quiet range: the frame's range pass
  // has nothing to learn, every live node is observed.
  for (const std::size_t shards : {1, 3}) {
    expect_matches_reference("naive", shards, "random_walk",
                             "churn?crash=3@20,recover=3@50,join=+4@60");
  }
}

}  // namespace
}  // namespace topkmon
