#include "traced.hpp"

#include <algorithm>
#include <chrono>
#include <memory>
#include <optional>
#include <stdexcept>
#include <type_traits>

#include "core/driver.hpp"
#include "core/ground_truth_tracker.hpp"
#include "core/root_merge.hpp"
#include "exp/monitor_registry.hpp"
#include "sim/cluster.hpp"
#include "streams/factory.hpp"

namespace perfbench {
namespace {

using namespace topkmon;
using Clock = std::chrono::steady_clock;

std::int64_t ns_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count();
}

/// Cost of one Clock::now() call: the median over 21 samples of 4096
/// back-to-back reads. A coordinator span's interval holds about one
/// read beyond the callback itself, and the enclosing driver step pays
/// for both; the per-layer figures subtract that cost per callback, so
/// thousands of short callbacks per step are not charged for the clock.
double clock_read_ns() {
  static const double cost = [] {
    constexpr int kReads = 4096;
    std::vector<double> samples;
    for (int s = 0; s < 21; ++s) {
      const auto start = Clock::now();
      for (int i = 0; i < kReads - 1; ++i) (void)Clock::now();
      samples.push_back(static_cast<double>(ns_between(start, Clock::now())) /
                        kReads);
    }
    std::nth_element(samples.begin(), samples.begin() + 10, samples.end());
    return samples[10];
  }();
  return cost;
}

struct NodeCallbacks {
  std::uint64_t observe = 0;
  std::uint64_t message = 0;
  std::uint64_t control = 0;
  std::uint64_t timer = 0;
};

/// Pass-through NodeAlgo that counts the driver's callbacks by kind. One
/// shared counter block per deployment: the monolithic workloads run the
/// serial tick loop, so no two nodes call back concurrently.
class CountingNode final : public NodeAlgo {
 public:
  CountingNode(NodeAlgo& inner, NodeCallbacks& counts)
      : inner_(inner), counts_(counts) {}

  void on_init(NodeCtx& ctx, Value v0) override { inner_.on_init(ctx, v0); }
  void on_observe(NodeCtx& ctx, Value v, TimeStep t) override {
    ++counts_.observe;
    inner_.on_observe(ctx, v, t);
  }
  void on_message(NodeCtx& ctx, const Message& m) override {
    ++counts_.message;
    inner_.on_message(ctx, m);
  }
  void on_control(NodeCtx& ctx, const Control& c) override {
    ++counts_.control;
    inner_.on_control(ctx, c);
  }
  void on_timer(NodeCtx& ctx) override {
    ++counts_.timer;
    inner_.on_timer(ctx);
  }
  void on_recover(NodeCtx& ctx) override { inner_.on_recover(ctx); }

 private:
  NodeAlgo& inner_;
  NodeCallbacks& counts_;
};

/// Pass-through CoordinatorAlgo that counts and times every callback.
class TimedCoordinator final : public CoordinatorAlgo {
 public:
  explicit TimedCoordinator(CoordinatorAlgo& inner) : inner_(inner) {}

  std::string_view name() const override { return inner_.name(); }
  void on_init(CoordCtx& ctx) override {
    timed([&] { inner_.on_init(ctx); });
  }
  void on_step_begin(CoordCtx& ctx, TimeStep t) override {
    timed([&] { inner_.on_step_begin(ctx, t); });
  }
  void on_message(CoordCtx& ctx, const Message& m) override {
    timed([&] { inner_.on_message(ctx, m); });
  }
  void on_timer(CoordCtx& ctx) override {
    timed([&] { inner_.on_timer(ctx); });
  }
  void on_step_end(CoordCtx& ctx, TimeStep t) override {
    timed([&] { inner_.on_step_end(ctx, t); });
  }
  void on_node_down(CoordCtx& ctx, NodeId id) override {
    timed([&] { inner_.on_node_down(ctx, id); });
  }
  void on_node_up(CoordCtx& ctx, NodeId id) override {
    timed([&] { inner_.on_node_up(ctx, id); });
  }
  void on_set_k(CoordCtx& ctx, std::size_t k) override {
    timed([&] { inner_.on_set_k(ctx, k); });
  }
  const std::vector<NodeId>& topk() const override { return inner_.topk(); }
  const MonitorStats& monitor_stats() const noexcept override {
    return inner_.monitor_stats();
  }

  std::int64_t busy_ns = 0;
  std::uint64_t callbacks = 0;

 private:
  template <typename F>
  void timed(F&& f) {
    const auto start = Clock::now();
    f();
    busy_ns += ns_between(start, Clock::now());
    ++callbacks;
  }

  CoordinatorAlgo& inner_;
};

/// Counters read at both ends of the steady window.
struct Snapshot {
  std::uint64_t upstream = 0;
  std::uint64_t unicast = 0;
  std::uint64_t broadcast = 0;
  std::uint64_t root_msgs = 0;
  std::uint64_t ticks = 0;
  std::int64_t coord_ns = 0;
  std::uint64_t coord_callbacks = 0;
  NodeCallbacks nodes;
  MonitorStats monitor;
};

/// The monolithic deployment run_scenario builds (cluster, registry role
/// pair, serial SimDriver), with every role behind a wrapper.
class MonolithicDeployment {
 public:
  explicit MonolithicDeployment(const exp::Scenario& sc)
      : cluster_(sc.n, sc.seed, sc.network),
        pair_(exp::make_role_pair(cluster_, sc.monitor, sc.k)),
        coord_(*pair_.coordinator) {
    if (sc.workers != 1) {
      throw std::invalid_argument(
          "traced run: monolithic workloads must use workers=1 (the node "
          "callback counters are not thread-safe)");
    }
    nodes_.reserve(pair_.nodes.size());
    for (const auto& node : pair_.nodes) {
      nodes_.push_back(std::make_unique<CountingNode>(*node, node_counts_));
    }
    driver_.emplace(cluster_, coord_, nodes_, pair_.native, 1);
  }

  void begin_step(TimeStep t) { cluster_.stats().begin_step(t); }
  void set_value(NodeId id, Value v) { cluster_.set_value(id, v); }
  void initialize() { driver_->initialize(); }
  void step(TimeStep t, std::span<const NodeId> changed) {
    driver_->step(t, changed);
  }
  const std::vector<NodeId>& topk() const { return coord_.topk(); }
  std::string_view name() const { return coord_.name(); }

  Snapshot snapshot() {
    Snapshot s;
    const CommStats& c = cluster_.stats();
    s.upstream = c.upstream();
    s.unicast = c.unicast();
    s.broadcast = c.broadcast();
    s.ticks = driver_->now();
    s.coord_ns = coord_.busy_ns;
    s.coord_callbacks = coord_.callbacks;
    s.nodes = node_counts_;
    s.monitor = coord_.monitor_stats();
    return s;
  }
  void msgs_by_kind(Outcome& out) {
    for (std::size_t i = 0; i < kNumMsgKinds; ++i) {
      out.msgs_by_kind[i] = cluster_.stats().by_kind(static_cast<MsgKind>(i));
    }
  }

 private:
  Cluster cluster_;
  exp::RolePair pair_;
  TimedCoordinator coord_;
  NodeCallbacks node_counts_;
  std::vector<std::unique_ptr<NodeAlgo>> nodes_;
  std::optional<SimDriver> driver_;
};

/// The two-tier deployment run_sharded_scenario builds. Its shard roles
/// are constructed inside ShardedDeployment, out of the wrappers' reach:
/// the driver and roles layers read 0 here and their time sits in
/// shard.step_us_per_step.
class TwoTierDeployment {
 public:
  explicit TwoTierDeployment(const ShardedSpec& spec) : dep_(spec) {}

  void begin_step(TimeStep t) {
    for (std::size_t s = 0; s < dep_.shards(); ++s) {
      dep_.shard_cluster(s).stats().begin_step(t);
    }
  }
  void set_value(NodeId id, Value v) { dep_.set_value(id, v); }
  void initialize() { dep_.initialize(); }
  void step(TimeStep t, std::span<const NodeId> changed) {
    dep_.step(t, changed);
  }
  const std::vector<NodeId>& topk() const { return dep_.topk(); }
  std::string_view name() const { return dep_.name(); }

  Snapshot snapshot() {
    Snapshot s;
    const CommStats c = dep_.node_shard_comm();
    s.upstream = c.upstream();
    s.unicast = c.unicast();
    s.broadcast = c.broadcast();
    s.root_msgs = dep_.shard_root_comm().total();
    s.ticks = dep_.ticks();
    s.monitor = dep_.monitor_totals();
    return s;
  }
  void msgs_by_kind(Outcome& out) {
    const CommStats c = dep_.node_shard_comm();
    const CommStats& root = dep_.shard_root_comm();
    for (std::size_t i = 0; i < kNumMsgKinds; ++i) {
      const auto kind = static_cast<MsgKind>(i);
      out.msgs_by_kind[i] = c.by_kind(kind) + root.by_kind(kind);
    }
  }

 private:
  ShardedDeployment dep_;
};

/// The observation path of run_scenario: the activity interface for
/// quiet-capable stream sets, else the batched lookahead plus a
/// previous-value compare. Produces the step's values and changed ids.
class Observer {
 public:
  Observer(StreamSet& streams, std::size_t n, std::size_t steps)
      : streams_(streams),
        quiet_(streams.quiet_capable()),
        values_(n, 0),
        incoming_(n) {
    if (!quiet_) streams_.plan_steps(steps + 1);
    changed_.reserve(n);
  }

  void advance() {
    if (quiet_) {
      streams_.advance_all_active(values_, changed_);
      return;
    }
    streams_.advance_all(incoming_);
    changed_.clear();
    for (NodeId id = 0; id < incoming_.size(); ++id) {
      if (incoming_[id] != values_[id]) changed_.push_back(id);
    }
    values_.swap(incoming_);
  }

  const std::vector<NodeId>& changed() const { return changed_; }
  Value value(NodeId id) const { return values_[id]; }

 private:
  StreamSet& streams_;
  bool quiet_;
  std::vector<Value> values_;
  std::vector<Value> incoming_;
  std::vector<NodeId> changed_;
};

double per_step(std::uint64_t before, std::uint64_t after, double steps) {
  return static_cast<double>(after - before) / steps;
}

template <typename Deployment, typename Spec>
TracedRun drive(const Workload& w, const exp::Scenario& sc, const Spec& spec) {
  constexpr bool monolithic = std::is_same_v<Deployment, MonolithicDeployment>;
  TracedRun run;
  LayerFigures& f = run.layers;

  const auto setup_start = Clock::now();
  StreamSet streams = make_stream_set(sc.stream, sc.n, sc.seed);
  const auto streams_built = Clock::now();
  Deployment dep(spec);
  const auto deployed = Clock::now();

  GroundTruthTracker truth(sc.n, sc.k);
  Observer obs(streams, sc.n, sc.steps);
  const RunConfig cfg = sc.run_config();
  RunResult result;
  const auto check = [&](TimeStep t) {
    check_answer_step(truth, dep.topk(), nullptr, cfg, dep.name(), "", t,
                      &result, /*throw_on_error=*/false);
  };

  dep.begin_step(0);
  obs.advance();
  for (const NodeId id : obs.changed()) dep.set_value(id, obs.value(id));
  for (const NodeId id : obs.changed()) truth.set_value(id, obs.value(id));
  const auto init_start = Clock::now();
  dep.initialize();
  const auto init_end = Clock::now();
  check(0);
  const auto setup_end = Clock::now();
  f.setup_streams_s = ns_between(setup_start, streams_built) * 1e-9;
  f.setup_deploy_s = ns_between(streams_built, deployed) * 1e-9;
  f.setup_initialize_s = ns_between(deployed, setup_end) * 1e-9;
  if constexpr (!monolithic) {
    f.shard_initialize_s = ns_between(init_start, init_end) * 1e-9;
  }

  std::int64_t streams_ns = 0, write_ns = 0, update_ns = 0, step_ns = 0,
               validate_ns = 0;
  std::uint64_t changed = 0;
  Snapshot warm;
  std::uint64_t warm_rebuilds = 0, warm_rescans = 0;
  Clock::time_point window_start = setup_end;
  Clock::time_point step_end = setup_end;

  for (TimeStep t = 1; t <= sc.steps; ++t) {
    if (t == w.warmup + 1) {
      warm = dep.snapshot();
      warm_rebuilds = truth.full_rebuilds();
      warm_rescans = truth.boundary_rescans();
      window_start = Clock::now();
    }
    dep.begin_step(t);
    const auto a = Clock::now();
    obs.advance();
    const auto b = Clock::now();
    for (const NodeId id : obs.changed()) dep.set_value(id, obs.value(id));
    const auto c = Clock::now();
    for (const NodeId id : obs.changed()) truth.set_value(id, obs.value(id));
    const auto d = Clock::now();
    dep.step(t, obs.changed());
    const auto e = Clock::now();
    check(t);
    step_end = Clock::now();
    if (t > w.warmup) {
      streams_ns += ns_between(a, b);
      write_ns += ns_between(b, c);
      update_ns += ns_between(c, d);
      step_ns += ns_between(d, e);
      validate_ns += ns_between(e, step_end);
      changed += obs.changed().size();
    }
  }

  const Snapshot end = dep.snapshot();
  const double steps = static_cast<double>(sc.steps - w.warmup);
  const std::int64_t wall_ns = ns_between(window_start, step_end);
  run.steps_per_s = steps / (wall_ns * 1e-9);

  const auto us = [&](std::int64_t ns) { return ns * 1e-3 / steps; };
  f.streams_advance_us = us(streams_ns);
  f.streams_changed = static_cast<double>(changed) / steps;
  f.sim_observe_write_us = us(write_ns);
  f.truth_update_us = us(update_ns);
  f.truth_validate_us = us(validate_ns);
  f.truth_full_rebuilds = per_step(warm_rebuilds, truth.full_rebuilds(), steps);
  f.truth_boundary_rescans =
      per_step(warm_rescans, truth.boundary_rescans(), steps);
  f.protocol_runs = per_step(warm.monitor.protocol_runs,
                             end.monitor.protocol_runs, steps);
  f.filter_resets = per_step(warm.monitor.filter_resets,
                             end.monitor.filter_resets, steps);
  f.violations =
      per_step(warm.monitor.violations, end.monitor.violations, steps);
  f.net_upstream = per_step(warm.upstream, end.upstream, steps);
  f.net_unicast = per_step(warm.unicast, end.unicast, steps);
  f.net_broadcast = per_step(warm.broadcast, end.broadcast, steps);
  if constexpr (monolithic) {
    f.coord_callbacks =
        per_step(warm.coord_callbacks, end.coord_callbacks, steps);
    const double read_us = clock_read_ns() * 1e-3;
    f.driver_step_us = us(step_ns) - 2 * f.coord_callbacks * read_us;
    f.coord_us = us(end.coord_ns - warm.coord_ns) - f.coord_callbacks * read_us;
    f.driver_self_us = f.driver_step_us - f.coord_us;
    f.driver_ticks = per_step(warm.ticks, end.ticks, steps);
    f.node_observe = per_step(warm.nodes.observe, end.nodes.observe, steps);
    f.node_message = per_step(warm.nodes.message, end.nodes.message, steps);
    f.node_control = per_step(warm.nodes.control, end.nodes.control, steps);
    f.node_timer = per_step(warm.nodes.timer, end.nodes.timer, steps);
  } else {
    f.shard_step_us = us(step_ns);
    f.shard_ticks = per_step(warm.ticks, end.ticks, steps);
    f.shard_root_msgs = per_step(warm.root_msgs, end.root_msgs, steps);
  }
  f.coverage = static_cast<double>(streams_ns + write_ns + update_ns +
                                   step_ns + validate_ns) /
               static_cast<double>(wall_ns);

  dep.msgs_by_kind(run.outcome);
  run.outcome.error_steps = result.error_steps;
  run.outcome.final_answer = dep.topk();
  return run;
}

}  // namespace

TracedRun run_traced(const Workload& w, std::uint64_t seed) {
  const exp::Scenario sc = make_scenario(w, seed);
  if (sc.shards <= 1) return drive<MonolithicDeployment>(w, sc, sc);

  // The two-tier deployment run_sharded_scenario builds from the same
  // scenario. Only the filter monitor, with or without "?nobeacon", is
  // rebuilt here; other specs are refused rather than traced wrongly.
  ShardedSpec spec;
  if (sc.monitor == "topk_filter?nobeacon") {
    spec.suppress_idle_broadcasts = true;
  } else if (sc.monitor != "topk_filter") {
    throw std::invalid_argument("traced run: no sharded rebuild of monitor '" +
                                sc.monitor + "'");
  }
  spec.monitor = ShardedSpec::Monitor::kFilter;
  spec.n = sc.n;
  spec.k = sc.k;
  spec.shards = sc.shards;
  spec.seed = sc.seed;
  spec.network = sc.network;
  spec.workers = sc.workers;
  spec.dense_loop = sc.dense_loop;
  return drive<TwoTierDeployment>(w, sc, spec);
}

}  // namespace perfbench
