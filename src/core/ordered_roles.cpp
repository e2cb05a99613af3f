#include "core/ordered_roles.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace topkmon {

// ---------------------------------------------------------------------------
// OrderedNode
// ---------------------------------------------------------------------------

Value OrderedNode::to_w(const NodeCtx& ctx, Value v) const noexcept {
  const auto n = static_cast<Value>(ctx.n());
  return v * n + (n - 1 - static_cast<Value>(ctx.id()));
}

void OrderedNode::on_init(NodeCtx& ctx, Value) {
  // The initial guard interval is [-inf, +inf]; the coordinator's init
  // reset assigns real slots through the announce order.
  ctx.set_needs_observe(false);
}

void OrderedNode::on_observe(NodeCtx& ctx, Value v, TimeStep) {
  const Value w = to_w(ctx, v);
  if (filter_.contains(w)) {
    ctx.set_needs_observe(false);
    return;
  }
  ctx.set_needs_observe(true);
  // The violation classes of OrderedCoordinator's cycle, evaluated on the
  // node's own beliefs (synchronized by updates and announces): outsiders
  // raise a boundary-side violation, members below the shared boundary a
  // below-fall, everything else is internal churn that only re-ranks the
  // members.
  if (!member_) {
    pending_ = Pending::kOut;
    ctx.signal(0);
  } else if (boundary_active(ctx) && w < mid_w_) {
    pending_ = Pending::kBelow;
    ctx.signal(1);
  } else {
    pending_ = Pending::kNone;
    ctx.signal(2);
  }
}

void OrderedNode::on_message(NodeCtx& ctx, const Message& m) {
  switch (m.kind) {
    case MsgKind::kRoundBeacon:
      sess_.handle_beacon(m);
      break;
    case MsgKind::kWinnerAnnounce:
      // Each node derives its own rank, membership and slot interval from
      // the announce order (NodeSelection).
      if (sel_.fold(ctx, m)) finish_selection(ctx);
      break;
    case MsgKind::kFilterUpdate: {
      // Boundary move: only the outsiders' upper bound and the lowest
      // member's lower bound depend on the shared boundary.
      sel_.selecting = false;
      mid_w_ = m.a;
      if (!member_) {
        filter_ = Filter{kMinusInf, mid_w_};
      } else if (rank_ + 1 == k_) {
        filter_ = Filter{mid_w_, slot_hi_};
      }
      ctx.set_needs_observe(!filter_.contains(to_w(ctx, ctx.value())));
      break;
    }
    default:
      break;  // kProtocolStart is informational for nodes
  }
}

void OrderedNode::on_control(NodeCtx& ctx, const Control& c) {
  switch (static_cast<OrderedControlOp>(c.op)) {
    case OrderedControlOp::kStartSelection: {
      sel_.begin(static_cast<std::size_t>(c.a));
      sel_type_ = c.b == 1 ? SelType::kInternal : SelType::kFull;
      k_ = static_cast<std::size_t>(c.c);
      // The selection supersedes any unconsumed violation (reachable
      // only when a reset begins without the usual violator sessions:
      // recovery, dynamic k, or the defensive rebuild).
      pending_ = Pending::kNone;
      // A full reset re-derives membership from scratch; a member
      // re-rank keeps it (only members participate).
      if (sel_type_ == SelType::kFull) member_ = false;
      break;
    }
    case OrderedControlOp::kStartSession: {
      const auto group = static_cast<OrderedSessionGroup>(c.b);
      bool join = false;
      switch (group) {
        case OrderedSessionGroup::kViolBelow:
          join = (pending_ == Pending::kBelow);
          if (join) pending_ = Pending::kNone;
          break;
        case OrderedSessionGroup::kViolOut:
          join = (pending_ == Pending::kOut);
          if (join) pending_ = Pending::kNone;
          break;
        case OrderedSessionGroup::kAllMembers:
          join = member_;
          break;
        case OrderedSessionGroup::kAllOutsiders:
          join = !member_;
          break;
        case OrderedSessionGroup::kSelectAll:
          join = sel_.candidate();
          break;
        case OrderedSessionGroup::kSelectMembers:
          join = sel_.candidate() && member_;
          break;
      }
      if (join) {
        sess_.join(ctx, unpack_session_start(c));
      } else {
        sess_.skip(ctx);
      }
      break;
    }
  }
}

void OrderedNode::on_timer(NodeCtx& ctx) { sess_.run_round(ctx, ctx.value()); }

void OrderedNode::on_recover(NodeCtx& ctx) {
  // Machine state (filter_, member_, rank_, the RNG) survives the
  // outage; session- and selection-scoped state must not. The filter may
  // predate slots renegotiated during the outage — stay in the observe
  // set until the coordinator's recovery reset re-ranks everyone.
  sess_.reset(ctx);
  sel_.reset();
  pending_ = Pending::kNone;
  ctx.set_needs_observe(true);
}

void OrderedNode::finish_selection(NodeCtx& ctx) {
  const auto& own = sel_.own_rank;
  if (sel_type_ == SelType::kFull) {
    member_ = own.has_value() && *own < k_;
    if (member_) rank_ = *own;
    // boundary_active: T- is the (k+1)-st announce, T+ the k-th.
    mid_w_ = boundary_active(ctx) ? midpoint(sel_.w[k_], sel_.w[k_ - 1])
                                  : kMinusInf;
  } else if (own.has_value()) {
    member_ = true;
    rank_ = *own;
  }
  rebuild_slot(ctx);
}

void OrderedNode::rebuild_slot(NodeCtx& ctx) {
  const std::vector<Value>& sel_w = sel_.w;
  if (member_ && rank_ >= sel_w.size()) {
    // Stale membership belief (possible only under message loss): the
    // announce order did not cover this rank. Keep the old filter; the
    // node's next violation or the coordinator's next reset repairs it.
    return;
  }
  if (member_) {
    slot_hi_ = rank_ == 0 ? kPlusInf : midpoint(sel_w[rank_], sel_w[rank_ - 1]);
    const Value lo = rank_ + 1 == k_ ? mid_w_
                                     : midpoint(sel_w[rank_ + 1], sel_w[rank_]);
    filter_ = Filter{lo, slot_hi_};
  } else {
    filter_ = Filter{kMinusInf, mid_w_};
  }
  ctx.set_needs_observe(!filter_.contains(to_w(ctx, ctx.value())));
}

// ---------------------------------------------------------------------------
// OrderedCoordinator
// ---------------------------------------------------------------------------

OrderedCoordinator::OrderedCoordinator(std::size_t k, Options opts) : k_(k) {
  if (k == 0) {
    throw std::invalid_argument("OrderedCoordinator: k must be >= 1");
  }
  cycle_.session.suppress_idle = opts.suppress_idle_broadcasts;
}

Value OrderedCoordinator::to_w(NodeId id, Value v) const noexcept {
  return v * static_cast<Value>(n_) +
         (static_cast<Value>(n_) - 1 - static_cast<Value>(id));
}

void OrderedCoordinator::on_init(CoordCtx& ctx) {
  n_ = ctx.n();
  if (k_ > n_) {
    throw std::invalid_argument("OrderedCoordinator: k > n");
  }
  boundary_active_ = k_ < n_;
  in_topk_.assign(n_, 0);
  // Unlike the unordered monitors there is no degenerate k == n shortcut:
  // the order itself must be established and maintained.
  begin_full_reset(ctx);
}

void OrderedCoordinator::on_step_begin(CoordCtx& ctx, TimeStep) {
  const auto& signals = ctx.signals();
  if (!signals.empty()) {
    ++mstats_.violation_steps;
    mstats_.violations += signals.size();
    for (const Signal& s : signals) {
      if (s.code == 0) {
        pending_out_ = true;
      } else if (s.code == 1) {
        pending_below_ = true;
      } else {
        pending_internal_ = true;
      }
    }
  }
  if (cycle_.phase != ViolationCycle::Phase::kIdle) return;
  if (order_.size() != k_) {
    // The order was never established — a reset selection aborted under
    // message loss. Defensively re-run it; no filter violation can
    // convene repair while the nodes hold no real slots.
    ++mstats_.full_rebuilds;
    begin_full_reset(ctx);
    return;
  }
  if (pending_below_ || pending_out_ || pending_internal_) start_cycle(ctx);
}

void OrderedCoordinator::on_message(CoordCtx&, const Message& m) {
  if (m.kind != MsgKind::kValueReport) return;
  cycle_.session.fold(m);
}

void OrderedCoordinator::on_timer(CoordCtx& ctx) {
  switch (cycle_.on_timer(ctx, mstats_, *this)) {
    case CycleEvent::kViolated:
      // Obtain the side extremum the violations did not deliver;
      // violating outsiders force a fresh minimum over every member,
      // which re-certifies T+ after the boundary side grew.
      ++mstats_.handler_calls;
      cycle_.fetch_side(ctx, mstats_, *this);
      break;
    case CycleEvent::kSides:
      decide(ctx);
      break;
    case CycleEvent::kSelected:
      finish_selection(ctx);
      break;
    case CycleEvent::kNone:
    case CycleEvent::kSilent:
      break;
  }
}

SessionSpec OrderedCoordinator::cycle_session(CycleSession s) const noexcept {
  const auto group = [](OrderedSessionGroup g) {
    return static_cast<std::int64_t>(g);
  };
  switch (s) {
    case CycleSession::kViolMin:
      return {group(OrderedSessionGroup::kViolBelow), k_};
    case CycleSession::kViolMax:
      return {group(OrderedSessionGroup::kViolOut), n_ - k_};
    case CycleSession::kSideMin:
      return {group(OrderedSessionGroup::kAllMembers), k_, 1};  // side: top-k
    case CycleSession::kSideMax:
      return {group(OrderedSessionGroup::kAllOutsiders), n_ - k_, 0};
    case CycleSession::kSelect:
      if (sel_type_ == SelType::kFull) {
        return {group(OrderedSessionGroup::kSelectAll), n_};
      }
      return {group(OrderedSessionGroup::kSelectMembers), k_};
  }
  return {};
}

void OrderedCoordinator::start_cycle(CoordCtx& ctx) {
  const bool below = std::exchange(pending_below_, false);
  const bool out = std::exchange(pending_out_, false);
  cycle_internal_ = std::exchange(pending_internal_, false);
  if (below || out) {
    cycle_.open(ctx, mstats_, *this, below, out);
  } else {
    // Pure internal churn: the boundary holds, only the order above it
    // may have changed.
    begin_selection(ctx, SelType::kInternal);
  }
}

void OrderedCoordinator::decide(CoordCtx& ctx) {
  tplus_w_ = std::min(tplus_w_, *cycle_.min);
  tminus_w_ = std::max(tminus_w_, *cycle_.max);
  if (tplus_w_ < tminus_w_) {
    // The membership may have changed; recompute from scratch.
    begin_full_reset(ctx);
    return;
  }
  ++mstats_.midpoint_updates;
  mid_w_ = midpoint(tminus_w_, tplus_w_);
  Message update;
  update.kind = MsgKind::kFilterUpdate;
  update.a = mid_w_;
  ctx.broadcast(update);
  if (cycle_.low || cycle_internal_) {
    // Members moved (below-fall repaired, or internal churn rode along):
    // re-rank the k members.
    begin_selection(ctx, SelType::kInternal);
  } else {
    cycle_done(ctx);
  }
}

void OrderedCoordinator::begin_full_reset(CoordCtx& ctx) {
  ++mstats_.filter_resets;
  begin_selection(ctx, SelType::kFull);
}

void OrderedCoordinator::begin_selection(CoordCtx& ctx, SelType type) {
  sel_type_ = type;
  Control sel;
  sel.op = static_cast<std::int64_t>(OrderedControlOp::kStartSelection);
  sel.a = static_cast<std::int64_t>(selection_target());
  sel.b = type == SelType::kInternal ? 1 : 0;
  sel.c = static_cast<std::int64_t>(k_);
  ctx.control_broadcast(sel);
  cycle_.select(ctx, mstats_, *this);
}

void OrderedCoordinator::finish_selection(CoordCtx& ctx) {
  const auto& winners = cycle_.winners;
  order_.clear();
  known_w_.clear();
  if (sel_type_ == SelType::kFull) {
    std::fill(in_topk_.begin(), in_topk_.end(), char{0});
    for (std::size_t r = 0; r < k_; ++r) {
      order_.push_back(winners[r].id);
      known_w_.push_back(to_w(winners[r].id, winners[r].value));
      in_topk_[winners[r].id] = 1;
    }
    rebuild_id_lists();
    if (boundary_active_) {
      tplus_w_ = known_w_[k_ - 1];
      tminus_w_ = to_w(winners[k_].id, winners[k_].value);
      mid_w_ = midpoint(tminus_w_, tplus_w_);
    } else {
      mid_w_ = kMinusInf;
    }
  } else {
    for (const auto& win : winners) {
      order_.push_back(win.id);
      known_w_.push_back(to_w(win.id, win.value));
    }
  }
  cycle_done(ctx);
}

void OrderedCoordinator::cycle_done(CoordCtx& ctx) {
  if (cycle_.done()) {
    begin_full_reset(ctx);  // a recovery's re-sync waited for this cycle
    return;
  }
  // Violations that arrived while the cycle ran (possible only under a
  // tick budget or delay) convene the next cycle immediately.
  if (pending_below_ || pending_out_ || pending_internal_) start_cycle(ctx);
}

void OrderedCoordinator::rebuild_id_lists() {
  topk_ids_.clear();
  for (NodeId id = 0; id < n_; ++id) {
    if (in_topk_[id]) topk_ids_.push_back(id);
  }
}

// ---------------------------------------------------------------------------
// Fault hooks: crash, recovery, dynamic k
// ---------------------------------------------------------------------------

void OrderedCoordinator::on_node_down(CoordCtx& ctx, NodeId id) {
  const bool structural = in_topk_[id] != 0 || cycle_.holds_winner(id);
  if (in_topk_[id]) {
    in_topk_[id] = 0;
    for (std::size_t r = 0; r < order_.size(); ++r) {
      if (order_[r] == id) {
        order_.erase(order_.begin() + static_cast<std::ptrdiff_t>(r));
        known_w_.erase(known_w_.begin() + static_cast<std::ptrdiff_t>(r));
        break;
      }
    }
    rebuild_id_lists();
  }
  if (structural) {
    // A member (or in-flight selection winner) took its rank with it:
    // re-establish the whole order over the remaining live nodes.
    cycle_.abort();
    begin_full_reset(ctx);
  }
  // A crashed non-member mid-session is just a lost report, which the
  // session machinery already tolerates.
}

void OrderedCoordinator::on_node_up(CoordCtx& ctx, NodeId) {
  // The returning node's rank is unknowable without fresh values and its
  // outage may have shifted every slot: re-rank everyone. The reset's
  // announce order doubles as the re-sync assignment, so no probe
  // round-trip machinery is needed.
  if (cycle_.recover(mstats_)) begin_full_reset(ctx);
}

void OrderedCoordinator::on_set_k(CoordCtx& ctx, std::size_t k) {
  if (k == 0 || k > n_) {
    throw std::invalid_argument("OrderedCoordinator: set_k out of range");
  }
  k_ = k;
  boundary_active_ = k_ < n_;
  cycle_.abort();
  begin_full_reset(ctx);
}

}  // namespace topkmon
