#include "core/dominance_roles.hpp"

#include <algorithm>
#include <stdexcept>

namespace topkmon {

// ---------------------------------------------------------------------------
// DominanceNode
// ---------------------------------------------------------------------------

Value DominanceNode::to_w(const NodeCtx& ctx, Value v) const noexcept {
  // Order-preserving, tie-breaking toward smaller ids; injective per node.
  const auto n = static_cast<Value>(ctx.n());
  return v * n + (n - 1 - static_cast<Value>(ctx.id()));
}

void DominanceNode::on_init(NodeCtx& ctx, Value) {
  // No slot yet: nothing to check until the first assignment arrives.
  ctx.set_needs_observe(false);
}

void DominanceNode::on_observe(NodeCtx& ctx, Value v, TimeStep) {
  if (!has_filter_) {
    ctx.set_needs_observe(false);
    return;
  }
  const Value w = to_w(ctx, v);
  if (filter_.contains(w)) {
    ctx.set_needs_observe(false);
    return;
  }
  // Re-raised every violating step, so a placement lost to the network
  // restarts; the fresh w rides in the report.
  ctx.set_needs_observe(true);
  Message report;
  report.kind = MsgKind::kViolation;
  report.a = w;
  ctx.send(report);
  ctx.signal(0);
}

void DominanceNode::on_message(NodeCtx& ctx, const Message& m) {
  switch (m.kind) {
    case MsgKind::kProtocolStart: {
      // The init shout: report (id, w).
      Message reply;
      reply.kind = MsgKind::kValueReport;
      reply.a = to_w(ctx, ctx.value());
      ctx.send(reply);
      break;
    }
    case MsgKind::kProbe: {
      // Split probe or re-sync: report the fresh w (b = 1 marks a reply).
      Message reply;
      reply.kind = MsgKind::kValueReport;
      reply.a = to_w(ctx, ctx.value());
      reply.b = 1;
      ctx.send(reply);
      break;
    }
    case MsgKind::kFilterAssign: {
      has_filter_ = true;
      filter_ = Filter{m.a, m.b};
      ctx.set_needs_observe(!filter_.contains(to_w(ctx, ctx.value())));
      break;
    }
    default:
      break;
  }
}

void DominanceNode::on_recover(NodeCtx& ctx) {
  // The slot order moved on without this node; its surviving interval may
  // be stale. Stay in the observe set until the re-sync probe's placement
  // re-anchors it (the fresh kFilterAssign re-certifies via contains).
  ctx.set_needs_observe(true);
}

// ---------------------------------------------------------------------------
// DominanceCoordinator
// ---------------------------------------------------------------------------

DominanceCoordinator::DominanceCoordinator(std::size_t k) : k_(k) {
  if (k == 0) {
    throw std::invalid_argument("DominanceCoordinator: k must be >= 1");
  }
}

void DominanceCoordinator::on_init(CoordCtx& ctx) {
  n_ = ctx.n();
  if (k_ > n_) throw std::invalid_argument("DominanceCoordinator: k > n");
  // One shout-echo cycle: every node reports (id, w); the replies land
  // within the network's round trip and the timer below assigns the
  // initial midpoint slots by unicast.
  Message shout;
  shout.kind = MsgKind::kProtocolStart;
  ctx.broadcast(shout);
  init_reports_.clear();
  phase_ = Phase::kInitWait;
  wait_ = 2 * ctx.flush_ticks();
  ctx.arm_timer();
}

void DominanceCoordinator::on_step_begin(CoordCtx& ctx, TimeStep) {
  const auto& signals = ctx.signals();
  if (!signals.empty()) {
    ++mstats_.violation_steps;
    mstats_.violations += signals.size();
  }
  if (phase_ != Phase::kIdle || collect_) return;
  if (!signals.empty() || !viol_new_.empty()) {
    // The violators' fresh w reports are this tick's coordinator mail
    // (instant) or at most a flush away; drain them on the timer.
    collect_ = true;
    ctx.arm_timer();
  }
}

void DominanceCoordinator::on_message(CoordCtx& ctx, const Message& m) {
  switch (m.kind) {
    case MsgKind::kViolation: {
      viol_new_.emplace_back(m.a, m.from);
      break;
    }
    case MsgKind::kValueReport: {
      if (phase_ == Phase::kInitWait && m.b == 0) {
        init_reports_.emplace_back(m.a, m.from);
        break;
      }
      if (m.b != 1) break;
      if (phase_ == Phase::kProbeWait && m.from == probe_owner_) {
        probe_reply_ = m.a;
        break;
      }
      // A re-sync reply: place the recovered node like a violator (its
      // old slot, if any, was vacated when it went down).
      if (guard_.complete(m.from)) {
        viol_new_.emplace_back(m.a, m.from);
        if (phase_ == Phase::kIdle && !collect_) {
          collect_ = true;
          ctx.arm_timer();
        }
      }
      break;
    }
    default:
      break;
  }
}

void DominanceCoordinator::on_timer(CoordCtx& ctx) {
  guard_.tick_resyncs(ctx, mstats_);
  switch (phase_) {
    case Phase::kInitWait: {
      if (wait_ > 0) {
        --wait_;
        ctx.arm_timer();
        return;
      }
      build_slots(ctx);
      return;
    }
    case Phase::kProbeWait: {
      if (probe_reply_.has_value()) {
        split_slot(ctx, *probe_reply_);
        phase_ = Phase::kPlace;
        drain_queue(ctx);
        return;
      }
      if (wait_ > 0) {
        --wait_;
        ctx.arm_timer();
        return;
      }
      // Probe or reply lost: split on the incumbent's last known w — the
      // incumbent's own next violation repairs any staleness.
      split_slot(ctx, slots_[probe_slot_].known_w);
      phase_ = Phase::kPlace;
      drain_queue(ctx);
      return;
    }
    case Phase::kPlace:
      return;  // re-entered via drain_queue only
    case Phase::kIdle: {
      if (!collect_) return;
      collect_ = false;
      if (viol_new_.empty()) return;
      // Vacate all violators' slots first so violators can land in each
      // other's former positions, then place in descending w order.
      queue_ = std::move(viol_new_);
      viol_new_.clear();
      queue_at_ = 0;
      for (const auto& [w, id] : queue_) vacate(id);
      std::sort(queue_.begin(), queue_.end(),
                [](const auto& x, const auto& y) { return x.first > y.first; });
      phase_ = Phase::kPlace;
      drain_queue(ctx);
      return;
    }
  }
}

void DominanceCoordinator::drain_queue(CoordCtx& ctx) {
  while (queue_at_ < queue_.size()) {
    const auto [w, id] = queue_[queue_at_];
    const auto at = find_slot(w);
    if (!at.has_value()) {
      ++queue_at_;  // tiling desynced by loss; the next violation retries
      continue;
    }
    Slot& slot = slots_[*at];
    if (!slot.owner.has_value()) {
      // Vacated gap: occupy it wholesale.
      slot.owner = id;
      slot.known_w = w;
      assign_filter(ctx, id, slot.lo, slot.hi);
      ++queue_at_;
      continue;
    }
    // Occupied: probe the incumbent for its fresh w, then split.
    probe_slot_ = *at;
    probe_owner_ = *slot.owner;
    probe_w_ = w;
    probe_violator_ = id;
    probe_reply_.reset();
    Message probe;
    probe.kind = MsgKind::kProbe;
    ctx.unicast(probe_owner_, probe);
    ++mstats_.polls;
    phase_ = Phase::kProbeWait;
    wait_ = 2 * ctx.flush_ticks();
    ctx.arm_timer();
    return;
  }
  queue_.clear();
  queue_at_ = 0;
  compact_slots();
  refresh_topk();
  phase_ = Phase::kIdle;
}

void DominanceCoordinator::split_slot(CoordCtx& ctx, Value other_w) {
  // w-space values are injective per node, and two distinct nodes cannot
  // share a w (the id term differs), so strict comparison is total.
  const Value w = probe_w_;
  const NodeId id = probe_violator_;
  const NodeId other = probe_owner_;
  const bool violator_above = w > other_w;
  const Value upper_w = violator_above ? w : other_w;
  const Value lower_w = violator_above ? other_w : w;
  const NodeId upper_id = violator_above ? id : other;
  const NodeId lower_id = violator_above ? other : id;
  const Value split = midpoint(lower_w, upper_w);  // lower_w <= split < upper_w

  const Slot original = slots_[probe_slot_];
  const Slot upper{upper_id, split, original.hi, upper_w};
  const Slot lower{lower_id, original.lo, split, lower_w};
  slots_[probe_slot_] = upper;
  slots_.insert(slots_.begin() + static_cast<std::ptrdiff_t>(probe_slot_) + 1,
                lower);
  assign_filter(ctx, upper_id, upper.lo, upper.hi);
  assign_filter(ctx, lower_id, lower.lo, lower.hi);
  ++queue_at_;
}

void DominanceCoordinator::build_slots(CoordCtx& ctx) {
  auto& order = init_reports_;
  std::sort(order.begin(), order.end(),
            [](const auto& x, const auto& y) { return x.first > y.first; });
  slots_.clear();
  slots_.reserve(order.size());
  for (std::size_t j = 0; j < order.size(); ++j) {
    Slot s;
    s.owner = order[j].second;
    s.known_w = order[j].first;
    s.hi = (j == 0) ? kPlusInf : midpoint(order[j].first, order[j - 1].first);
    s.lo = (j + 1 == order.size())
               ? kMinusInf
               : midpoint(order[j + 1].first, order[j].first);
    slots_.push_back(s);
    assign_filter(ctx, *s.owner, s.lo, s.hi);
  }
  refresh_topk();
  phase_ = Phase::kIdle;
  // Replies lost to the network (never on instant): probe the missing
  // nodes through the re-sync path so everyone ends up ranked.
  if (order.size() < n_) {
    std::vector<char> seen(n_, 0);
    for (const auto& [w, id] : order) seen[id] = 1;
    for (NodeId id = 0; id < n_; ++id) {
      if (seen[id] == 0 && ctx.node_alive(id)) on_node_up(ctx, id);
    }
  }
  init_reports_.clear();
}

void DominanceCoordinator::assign_filter(CoordCtx& ctx, NodeId id, Value lo_w,
                                         Value hi_w) {
  Message assign;
  assign.kind = MsgKind::kFilterAssign;
  assign.a = lo_w;
  assign.b = hi_w;
  ctx.unicast(id, assign);
}

std::optional<std::size_t> DominanceCoordinator::find_slot(Value w) const {
  // Slots are descending and tile the axis; find the first (highest) slot
  // whose lower bound is <= w.
  std::size_t lo = 0;
  std::size_t hi = slots_.size();  // search in [lo, hi)
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (slots_[mid].lo <= w) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  if (lo == slots_.size()) return std::nullopt;
  return lo;
}

void DominanceCoordinator::compact_slots() {
  // Merge runs of adjacent vacated slots (coordinator-local; no messages).
  std::vector<Slot> merged;
  merged.reserve(slots_.size());
  for (const auto& s : slots_) {
    if (!merged.empty() && !merged.back().owner.has_value() &&
        !s.owner.has_value()) {
      merged.back().lo = s.lo;  // extend the empty run downward
      continue;
    }
    merged.push_back(s);
  }
  slots_ = std::move(merged);
}

void DominanceCoordinator::refresh_topk() {
  topk_ids_.clear();
  for (const auto& s : slots_) {
    if (!s.owner.has_value()) continue;
    topk_ids_.push_back(*s.owner);
    if (topk_ids_.size() == k_) break;
  }
  std::sort(topk_ids_.begin(), topk_ids_.end());
}

std::vector<NodeId> DominanceCoordinator::full_order() const {
  std::vector<NodeId> order;
  for (const auto& s : slots_) {
    if (s.owner.has_value()) order.push_back(*s.owner);
  }
  return order;
}

void DominanceCoordinator::vacate(NodeId id) {
  for (auto& s : slots_) {
    if (s.owner == id) {
      s.owner.reset();
      break;
    }
  }
}

// ---------------------------------------------------------------------------
// Fault hooks
// ---------------------------------------------------------------------------

void DominanceCoordinator::on_node_down(CoordCtx&, NodeId id) {
  guard_.drop(id);
  vacate(id);
  if (phase_ == Phase::kIdle) {
    compact_slots();
    refresh_topk();
  }
}

void DominanceCoordinator::on_node_up(CoordCtx& ctx, NodeId id) {
  guard_.begin_resync(ctx, mstats_, id);
}

void DominanceCoordinator::on_set_k(CoordCtx&, std::size_t k) {
  k_ = k;
  refresh_topk();
}

}  // namespace topkmon
