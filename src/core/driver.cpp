#include "core/driver.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>
#include <string>

namespace topkmon {

namespace {

/// Defensive bound on delivery ticks within one observation step: a
/// correct protocol session needs O(log n) of them, so hitting this means
/// an algorithm armed its timer forever.
constexpr std::uint64_t kMaxTicksPerSettle = 1'000'000;

}  // namespace

void NodeCtx::send(Message m) { driver_.node_send(id_, m); }

void NodeCtx::signal(std::int64_t code) {
  driver_.raise_signal(Signal{id_, code});
}

void NodeCtx::arm_timer() { driver_.arm_node(id_); }

void NodeCtx::set_quiet_range(Value lo, Value hi) {
  driver_.set_quiet_range(id_, QuietRange{lo, hi});
}

void NodeCtx::set_needs_observe(bool needs) {
  driver_.set_needs_observe(id_, needs);
}

void CoordCtx::control_broadcast(const Control& c) { driver_.queue_control(c); }

const std::vector<Signal>& CoordCtx::signals() const {
  return driver_.signals();
}

void CoordCtx::arm_timer() { driver_.arm_coordinator(); }

SimDriver::SimDriver(Cluster& cluster, CoordinatorAlgo& coordinator,
                     std::span<const std::unique_ptr<NodeAlgo>> nodes,
                     bool auto_deliver, std::size_t workers)
    : cluster_(cluster),
      coord_(coordinator),
      nodes_(nodes),
      coord_ctx_(*this, cluster) {
  if (!auto_deliver) {
    throw std::invalid_argument(
        "SimDriver: auto_deliver must be true (the driver always delivers "
        "the network's mail)");
  }
  if (workers != 1) {
    throw std::invalid_argument("SimDriver: workers must be 1, got " +
                                std::to_string(workers));
  }
  if (nodes_.size() != cluster_.size()) {
    throw std::invalid_argument("SimDriver: node algo count != cluster size");
  }
  // The armed / needs-observe / quiet-range scalars live in the cluster's
  // shared NodeRuntime; reset them in case this driver replaces an
  // earlier one over the same cluster. Every range starts empty (every
  // needs-observe bit set): an algorithm must declare a quiet range
  // (NodeCtx::set_quiet_range / set_needs_observe(false)) to certify that
  // its on_observe is a no-op for values inside it.
  NodeRuntime& rt = cluster_.runtime();
  rt.armed.clear_all();
  rt.needs_observe.set_all();
  std::fill(rt.quiet.begin(), rt.quiet.end(), QuietRange{});
}

bool SimDriver::anything_scheduled() const noexcept {
  if (armed_nodes_ > 0 || coord_armed_ || !pending_controls_.empty()) {
    return true;
  }
  if (fault_due() || !held_.empty()) return true;
  return cluster_.net().pending_deliveries() > 0;
}

void SimDriver::set_fault_plan(const FaultPlan* plan) {
  set_fault_plan(plan, 0);
}

void SimDriver::set_fault_plan(const FaultPlan* plan, std::size_t cursor) {
  if (plan != nullptr && plan->total_nodes() != cluster_.size()) {
    throw std::invalid_argument(
        "SimDriver::set_fault_plan: plan provisions " +
        std::to_string(plan->total_nodes()) + " nodes but the cluster has " +
        std::to_string(cluster_.size()));
  }
  if (plan != nullptr && cursor > plan->events().size()) {
    throw std::invalid_argument(
        "SimDriver::set_fault_plan: cursor " + std::to_string(cursor) +
        " exceeds the plan's " + std::to_string(plan->events().size()) +
        " events");
  }
  faults_ = plan;
  fault_cursor_ = plan != nullptr ? cursor : 0;
  frozen_armed_ = IdBitset(cluster_.size());
  held_.clear();
  if (plan != nullptr && plan->has_degradation()) {
    degrade_.assign(cluster_.size(), NodeDegrade{});
  } else {
    degrade_.clear();
  }
}

void SimDriver::node_send(NodeId from, Message m) {
  if (degrade_.empty()) {  // no degradation events in the plan
    cluster_.net().node_send(from, m);
    return;
  }
  const NodeDegrade& d = degrade_[from];
  switch (d.mode) {
    case DegradeMode::kNone:
      break;
    case DegradeMode::kMute:
      return;  // discarded before the network: silent, never charged
    case DegradeMode::kStale:
      // Only value-bearing payloads freeze; the probe-reply flag in m.b
      // and every other kind pass through untouched.
      if (m.kind == MsgKind::kValueReport || m.kind == MsgKind::kViolation) {
        m.a = d.frozen;
      }
      break;
    case DegradeMode::kLag: {
      const HeldSend held{cluster_.net().now() + d.lag_ticks, from, m};
      auto pos = std::upper_bound(
          held_.begin(), held_.end(), held.release,
          [](SimTime r, const HeldSend& h) { return r < h.release; });
      held_.insert(pos, held);
      return;
    }
  }
  cluster_.net().node_send(from, m);
}

void SimDriver::release_due_held() {
  // Held messages re-enter the network at their release tick in queue
  // order ((release, send order) — the queue is insertion-sorted). A
  // released message is past its sender's degradation window by
  // construction, so it goes straight to node_send: no re-degradation,
  // even if the sender was re-degraded meanwhile.
  const SimTime now = cluster_.net().now();
  std::size_t released = 0;
  while (released < held_.size() && held_[released].release <= now) {
    cluster_.net().node_send(held_[released].from, held_[released].m);
    ++released;
  }
  if (released > 0) {
    held_.erase(held_.begin(),
                held_.begin() + static_cast<std::ptrdiff_t>(released));
  }
}

bool SimDriver::fault_due() const noexcept {
  return faults_ != nullptr && fault_cursor_ < faults_->events().size() &&
         faults_->events()[fault_cursor_].step <= cur_step_;
}

void SimDriver::apply_due_faults() {
  // Tick head: the alive set changes only here, so it is stable for the
  // whole tick scan.
  while (fault_due()) {
    const FaultEvent& ev = faults_->events()[fault_cursor_++];
    switch (ev.kind) {
      case FaultEvent::Kind::kCrash:
      case FaultEvent::Kind::kLeave:
        apply_node_down(ev.node);
        break;
      case FaultEvent::Kind::kRecover:
        apply_node_up(ev.node, /*first_time=*/false);
        break;
      case FaultEvent::Kind::kJoin:
        for (std::size_t i = 0; i < ev.count; ++i) {
          apply_node_up(static_cast<NodeId>(ev.node + i),
                        /*first_time=*/true);
        }
        break;
      case FaultEvent::Kind::kSetK:
        coord_.on_set_k(coord_ctx_, ev.count);
        break;
      case FaultEvent::Kind::kLag:
        degrade_[ev.node] = NodeDegrade{DegradeMode::kLag, ev.count, 0};
        break;
      case FaultEvent::Kind::kStale:
        // Snapshot the payload value at degradation time: the node keeps
        // observing (and signalling) truthfully, but every value it
        // *reports* from here until heal is this frozen one.
        degrade_[ev.node] =
            NodeDegrade{DegradeMode::kStale, 0, cluster_.value(ev.node)};
        break;
      case FaultEvent::Kind::kMute:
        degrade_[ev.node] = NodeDegrade{DegradeMode::kMute, 0, 0};
        break;
      case FaultEvent::Kind::kHeal:
        // Already-held lagged messages keep their release schedule.
        degrade_[ev.node] = NodeDegrade{};
        break;
    }
  }
}

void SimDriver::apply_node_down(NodeId id) {
  NodeRuntime& rt = cluster_.runtime();
  if (rt.armed.test(id)) {
    // Freeze the timer across the outage: recovery restores exactly the
    // pre-crash machine state, including a pending on_timer.
    rt.armed.clear(id);
    frozen_armed_.set(id);
    --armed_nodes_;
  }
  cluster_.net().set_node_down(id);  // drops queued + future mail
  // A crash ends any active degradation (the timeline validator enforces
  // the same: a recovered node starts clean and must be re-degraded).
  if (!degrade_.empty()) degrade_[id] = NodeDegrade{};
  coord_.on_node_down(coord_ctx_, id);
}

void SimDriver::apply_node_up(NodeId id, bool first_time) {
  NodeRuntime& rt = cluster_.runtime();
  cluster_.net().set_node_up(id);  // before callbacks: they may send
  if (frozen_armed_.test(id)) {
    frozen_armed_.clear(id);
    rt.armed.set(id);
    ++armed_nodes_;
  }
  // Back to the empty quiet range: whatever invariant let the node skip
  // observes may have rotted during the outage; its algorithm re-declares
  // a range once re-synced.
  rt.quiet[id] = QuietRange{};
  rt.needs_observe.set(id);
  NodeCtx ctx(*this, cluster_, id);
  if (first_time) nodes_[id]->on_init(ctx, cluster_.value(id));
  nodes_[id]->on_recover(ctx);
  coord_.on_node_up(coord_ctx_, id);
}

void SimDriver::service_node(NodeId id) {
  // Phase 1 for one node: due charged mail first, then the tick's control
  // broadcasts, then the armed timer. Messages precede controls because a
  // control queued in the same coordinator phase as a broadcast (e.g.
  // "next selection iteration starts" after a winner announcement)
  // logically follows it — the synchronous model excludes the announced
  // winner before the next iteration convenes.
  Network& net = cluster_.net();
  if (net.down_nodes() != 0 && !net.node_alive(id)) {
    // A down node runs nothing: its mail was dropped at delivery time,
    // its armed bit is frozen, and controls must not reach it either.
    return;
  }
  NodeCtx ctx(*this, cluster_, id);  // transient view; per-node scalars
                                     // live in the shared NodeRuntime
  NodeAlgo& algo = *nodes_[id];
  if (net.node_has_mail(id)) {
    if (net.node_mail_is_broadcast_only(id)) {
      // Bulk broadcast fan-out: the node's mail is exactly the shared
      // log's unread suffix, so deliver it in place — no per-node copy,
      // no merge, O(1) ack. The span stays valid across the callbacks:
      // a node algorithm can only send upstream (coordinator inbox),
      // signal, or arm its own timer — nothing grows or compacts the
      // log until the next dirty-node drain or the post-scan compaction.
      for (const Message& m : net.unread_broadcasts(id)) {
        algo.on_message(ctx, m);
      }
      net.ack_broadcasts(id);
    } else {
      net.drain_node(id, mail_scratch_);
      for (const Message& m : mail_scratch_) {
        algo.on_message(ctx, m);
      }
    }
  }
  for (const Control& c : delivering_controls_) {
    algo.on_control(ctx, c);
  }
  IdBitset& armed = cluster_.runtime().armed;
  if (armed.test(id)) {
    armed.clear(id);
    --armed_nodes_;
    algo.on_timer(ctx);
  }
}

void SimDriver::service_coordinator() {
  // Phase 2: the coordinator's due mail, in arrival order.
  cluster_.net().drain_coordinator(mail_scratch_);
  for (const Message& m : mail_scratch_) {
    coord_.on_message(coord_ctx_, m);
  }
  // Phase 3: the coordinator's armed timer.
  if (coord_armed_) {
    coord_armed_ = false;
    coord_.on_timer(coord_ctx_);
  }
}

void SimDriver::run_tick_dense() {
  for (NodeId id = 0; id < cluster_.size(); ++id) {
    service_node(id);
  }
  // Bulk acks defer log compaction so in-place suffixes stay stable for
  // the rest of the scan; settle the deferred work once per tick.
  cluster_.net().compact_broadcast_log();
  service_coordinator();
}

void SimDriver::run_tick() {
  Network& net = cluster_.net();
  net.advance_clock();
  // Fault events fire at the first tick of their scheduled step, before
  // any mail or timer is serviced. Controls/probes the fault hooks queue
  // are swapped in below, so they deliver this very tick.
  if (fault_due()) apply_due_faults();
  // Lagged messages whose hold expired this tick enter the network now,
  // before any node or coordinator phase, so they are ordinary scheduled
  // deliveries for the rest of the tick.
  if (!held_.empty()) release_due_held();

  delivering_controls_.clear();
  delivering_controls_.swap(pending_controls_);
  if (dense_ || !delivering_controls_.empty()) {
    // A Control broadcast reaches every node by definition; control ticks
    // (and the diagnostic dense mode) keep the full id scan.
    run_tick_dense();
    return;
  }

  // Sparse phase 1: only nodes with due mail or an armed timer can react
  // this tick — for everyone else all sub-phases are provably no-ops.
  // Per-word union of the two NodeRuntime bitsets, visited in ascending
  // id order. Callbacks can only mutate bits of the node being serviced
  // (drain/ack clears its mail bit, on_timer may re-arm itself), so the
  // per-word snapshot taken by the scan stays exact.
  const NodeRuntime& rt = cluster_.runtime();
  const auto mail = rt.due_mail.words();
  const auto armed = rt.armed.words();
  for (std::size_t w = 0; w < armed.size(); ++w) {
    std::uint64_t bits = armed[w] | mail[w];
    while (bits != 0) {
      const auto bit = static_cast<unsigned>(std::countr_zero(bits));
      bits &= bits - 1;
      service_node(static_cast<NodeId>(w * 64 + bit));
    }
  }
  net.compact_broadcast_log();
  service_coordinator();
}

void SimDriver::settle(bool respect_budget) {
  Network& net = cluster_.net();
  const std::uint64_t budget =
      respect_budget ? net.spec().ticks_per_step : 0;
  const SimTime step_end = net.now() + budget;

  std::uint64_t guard = 0;
  for (;;) {
    if (budget != 0 && net.now() >= step_end) break;
    if (!anything_scheduled()) {
      // Fixed observation cadence: with a budget the step always consumes
      // its full tick span, so in-flight mail ages correctly across steps.
      if (budget != 0) net.advance_clock_to(step_end);
      break;
    }
    if (armed_nodes_ == 0 && !coord_armed_ && pending_controls_.empty() &&
        !fault_due()) {
      // Nothing computes until the next delivery: fast-forward the clock
      // (bounded by the step end under a budget). A due fault pins the
      // clock — it fires at the step's first tick, not the delivery's.
      // A held (lagged) message is a pending delivery too: its release
      // tick bounds the jump exactly like the network's earliest one.
      auto due = net.earliest_pending();
      if (!held_.empty() && (!due || earliest_held_release() < *due)) {
        due = earliest_held_release();
      }
      if (due) {
        SimTime target = *due > net.now() ? *due - 1 : net.now();
        if (budget != 0 && target > step_end - 1) target = step_end - 1;
        net.advance_clock_to(target);
      }
    }
    run_tick();
    if (++guard > kMaxTicksPerSettle) {
      throw std::logic_error(
          "SimDriver: step did not quiesce (runaway timer loop?)");
    }
  }
}

void SimDriver::initialize() {
  signals_.clear();
  cur_step_ = 0;
  const std::span<const Value> values = cluster_.values();
  const Network& net = cluster_.net();
  const bool any_down = net.down_nodes() != 0;
  for (NodeId id = 0; id < cluster_.size(); ++id) {
    // Nodes provisioned for a later join event start down: their on_init
    // is deferred to the join tick (apply_node_up with first_time).
    if (any_down && !net.node_alive(id)) continue;
    NodeCtx ctx(*this, cluster_, id);
    nodes_[id]->on_init(ctx, values[id]);
  }
  coord_.on_init(coord_ctx_);
  settle(/*respect_budget=*/false);
  coord_.on_step_end(coord_ctx_, 0);
}

void SimDriver::step(TimeStep t) {
  signals_.clear();
  cur_step_ = t;
  // Dense observe: stream the flat NodeRuntime value array (8-byte
  // stride). Down nodes are skipped: their observations are lost for the
  // outage.
  const std::span<const Value> values = cluster_.values();
  const NodeRuntime& rt = cluster_.runtime();
  const bool any_down = cluster_.net().down_nodes() != 0;
  for (NodeId id = 0; id < cluster_.size(); ++id) {
    if (any_down && !rt.alive.test(id)) continue;
    NodeCtx ctx(*this, cluster_, id);
    nodes_[id]->on_observe(ctx, values[id], t);
  }
  coord_.on_step_begin(coord_ctx_, t);
  settle(/*respect_budget=*/true);
  coord_.on_step_end(coord_ctx_, t);
}

void SimDriver::step(TimeStep t, std::span<const NodeId> changed) {
  // Range pass: serial, before any node callback. A changed id whose bit
  // is clear gets it set iff its new value left its quiet range; a set
  // bit already forces the observe. Runs under the dense loop too, so
  // the bits stay exact whichever loop observes.
  NodeRuntime& rt = cluster_.runtime();
  for (const NodeId id : changed) {
    if (id >= rt.size()) {
      throw std::out_of_range("SimDriver::step: changed id " +
                              std::to_string(id) + " >= node count " +
                              std::to_string(rt.size()));
    }
    if (!rt.needs_observe.test(id) && !rt.quiet[id].contains(rt.values[id])) {
      rt.needs_observe.set(id);
    }
  }
  if (dense_) {
    step(t);
    return;
  }
  signals_.clear();
  cur_step_ = t;
  // Observe set = needs-observe ∩ alive, ascending id. A skipped node's
  // value lies inside the range its algorithm certified on_observe to be
  // a no-op for, so the outcome (messages, signals, coin flips, counters)
  // is identical to the dense loop's. Down nodes are masked out: their
  // observations are lost for the outage. Each word is snapshotted before
  // its bits are visited; on_observe may rewrite only its own node's bit.
  const bool any_down = cluster_.net().down_nodes() != 0;
  const auto need = rt.needs_observe.words();
  const auto alive = rt.alive.words();
  for (std::size_t w = 0; w < need.size(); ++w) {
    std::uint64_t bits = need[w];
    if (any_down) bits &= alive[w];
    while (bits != 0) {
      const auto bit = static_cast<unsigned>(std::countr_zero(bits));
      bits &= bits - 1;
      const auto id = static_cast<NodeId>(w * 64 + bit);
      NodeCtx ctx(*this, cluster_, id);
      nodes_[id]->on_observe(ctx, rt.values[id], t);
    }
  }
  coord_.on_step_begin(coord_ctx_, t);
  settle(/*respect_budget=*/true);
  coord_.on_step_end(coord_ctx_, t);
}

void SimDriver::pump() { settle(/*respect_budget=*/true); }

}  // namespace topkmon
