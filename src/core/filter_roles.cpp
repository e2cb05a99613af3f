#include "core/filter_roles.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "protocols/beacon.hpp"

namespace topkmon {

namespace {

// Suspicion thresholds (Options::suspect). A healthy violating node's
// report lands within the step that convened the repair (instant /
// flushed-delay policies), so three consecutive signalled-but-silent
// steps clear honest latency while catching mute and heavily lagging
// nodes quickly. Two contradicting reports confirm staleness against
// boundary races. Release probes back off to at most 16 steps: a healed
// node should not sit excluded for most of a run because its quarantine
// happened to be old.
constexpr std::uint32_t kSilenceStrikes = 3;
constexpr std::uint8_t kStaleStrikes = 2;
constexpr std::uint32_t kReleaseCap = 4;

}  // namespace

// ---------------------------------------------------------------------------
// FilterNode
// ---------------------------------------------------------------------------

void FilterNode::on_init(NodeCtx& ctx, Value) {
  // The initial filter is [-inf, +inf]: every value is contained, so no
  // value needs an observe until a boundary arrives.
  ctx.set_quiet_range(filter_.lo, filter_.hi);
}

void FilterNode::on_observe(NodeCtx& ctx, Value v, TimeStep) {
  // Algorithm 1, lines 2-9 (node side): check the filter locally; a
  // violation is free knowledge in the model, raised as a control signal.
  // Quiet-range contract: a contained value makes on_observe a no-op, so
  // the filter is the node's quiet range. While the value violates the
  // filter the node re-raises its signal every step (the coordinator
  // counts every one, and under message loss a re-raise is what restarts
  // an aborted repair), so it stays observed even when the value is
  // unchanged.
  if (filter_.contains(v)) {
    ctx.set_quiet_range(filter_.lo, filter_.hi);
    return;
  }
  ctx.set_needs_observe(true);
  pending_ = member_ ? Pending::kTop : Pending::kBot;
  ctx.signal(member_ ? 1 : 0);
}

void FilterNode::on_message(NodeCtx& ctx, const Message& m) {
  switch (m.kind) {
    case MsgKind::kRoundBeacon:
      session_.handle_beacon(m);
      break;
    case MsgKind::kWinnerAnnounce: {
      // During FILTERRESET the announce order is common knowledge: the
      // first k winners are the new top-k, the (k+1)-st is the best
      // outsider. Each node derives its own membership locally.
      if (!selecting_) break;
      ++announces_seen_;
      if (unpack_beacon_b(m.b).holder == ctx.id()) {
        excluded_ = true;
        member_ = (announces_seen_ <= k_);
      }
      break;
    }
    case MsgKind::kFilterUpdate: {
      // Node-side effect of the boundary broadcast: rebuild the filter
      // from (M, own membership belief). Ends any selection phase. The
      // new boundary may exclude the current value — the next step's
      // observe must then run (and signal) even if the value is static,
      // which declaring the filter as the quiet range guarantees.
      selecting_ = false;
      filter_ = boundary_filter(m.a, member_);
      ctx.set_quiet_range(filter_.lo, filter_.hi);
      break;
    }
    case MsgKind::kProbe: {
      // Crash-recovery re-sync, node side: report the current value.
      // b = 1 distinguishes the reply from protocol-session reports.
      Message reply;
      reply.kind = MsgKind::kValueReport;
      reply.a = ctx.value();
      reply.b = 1;
      ctx.send(reply);
      break;
    }
    case MsgKind::kFilterAssign: {
      // Re-sync completion: an explicit per-node (membership, boundary)
      // assignment — unlike kFilterUpdate it overrides the local
      // membership belief, which may be stale after an outage. Delivered
      // as a unicast, it re-anchors only this node; everyone else's
      // filter is untouched. A violating value primes pending_, so the
      // kStartSession control the coordinator convenes for it (delivered
      // the same tick, after this message) finds the node ready to join.
      member_ = m.a != 0;
      filter_ = boundary_filter(m.b, member_);
      selecting_ = false;
      session_.skip(ctx);
      ctx.set_quiet_range(filter_.lo, filter_.hi);
      if (filter_.contains(ctx.value())) {
        pending_ = Pending::kNone;
      } else {
        pending_ = member_ ? Pending::kTop : Pending::kBot;
      }
      break;
    }
    default:
      break;  // kProtocolStart etc. are informational for nodes
  }
}

void FilterNode::on_control(NodeCtx& ctx, const Control& c) {
  switch (static_cast<FilterControlOp>(c.op)) {
    case FilterControlOp::kStartSelection: {
      selecting_ = true;
      excluded_ = false;
      announces_seen_ = 0;
      member_ = false;
      k_ = static_cast<std::size_t>(c.a);
      break;
    }
    case FilterControlOp::kStartSession: {
      const auto group = static_cast<FilterSessionGroup>(c.b);
      bool join = false;
      switch (group) {
        case FilterSessionGroup::kViolTop:
          join = (pending_ == Pending::kTop);
          if (join) pending_ = Pending::kNone;
          break;
        case FilterSessionGroup::kViolBot:
          join = (pending_ == Pending::kBot);
          if (join) pending_ = Pending::kNone;
          break;
        case FilterSessionGroup::kAllTop:
          join = member_;
          break;
        case FilterSessionGroup::kAllBot:
          join = !member_;
          break;
        case FilterSessionGroup::kSelectRest:
          join = selecting_ && !excluded_;
          break;
      }
      if (join) {
        session_.join(ctx, unpack_session_start(c));
      } else {
        session_.skip(ctx);
      }
      break;
    }
  }
}

void FilterNode::on_timer(NodeCtx& ctx) {
  // One protocol round (Algorithm 2, node side).
  session_.run_round(ctx, ctx.value());
}

void FilterNode::on_recover(NodeCtx& ctx) {
  // Machine state (filter_, member_, the RNG) survives the outage; the
  // session-scoped state must not — any protocol execution convened
  // while this node was down proceeded without it, so replaying a stale
  // round counter, beacon view or selection role would corrupt the run.
  session_.reset(ctx);
  selecting_ = false;
  excluded_ = false;
  announces_seen_ = 0;
  pending_ = Pending::kNone;
  // The surviving filter may predate boundaries renegotiated during the
  // outage: stay observed until an observe or the re-sync handshake's
  // kFilterAssign declares the filter again.
  ctx.set_needs_observe(true);
}

// ---------------------------------------------------------------------------
// FilterCoordinator
// ---------------------------------------------------------------------------

FilterCoordinator::FilterCoordinator(std::size_t k, Options opts)
    : k_(k), opts_(opts), rank_quota_(opts.rank_quota) {
  // A zero quota is meaningful only for a shard of a hierarchical
  // deployment: every node is an outsider whose filter watches the root
  // boundary from below.
  if (k == 0 && opts_.pinned_boundary == nullptr) {
    throw std::invalid_argument("FilterCoordinator: k must be >= 1");
  }
  if (opts_.epsilon < 0) {
    throw std::invalid_argument("FilterCoordinator: epsilon must be >= 0");
  }
  cycle_.session.suppress_idle = opts_.suppress_idle_broadcasts;
}

void FilterCoordinator::on_init(CoordCtx& ctx) {
  n_ = ctx.n();
  n_live_ = ctx.live_count();
  if (k_ > n_) {
    throw std::invalid_argument("FilterCoordinator: k > n");
  }
  in_topk_.assign(n_, 0);
  if (opts_.suspect) {
    guard_.init_suspicion(n_);
    silent_steps_.assign(n_, 0);
    sig_side_.assign(n_, 0);
    sig_step_.assign(n_, 0);
    stale_strikes_.assign(n_, 0);
  }
  // A sharded full-quota coordinator cannot take the degenerate shortcut:
  // its minimum must keep watching the root boundary from above.
  degenerate_ = (k_ == n_) && opts_.pinned_boundary == nullptr;
  if (degenerate_) {
    // All nodes are the answer forever; unbounded filters, zero messages.
    std::fill(in_topk_.begin(), in_topk_.end(), char{1});
    topk_ids_.clear();
    for (NodeId id = 0; id < n_; ++id) topk_ids_.push_back(id);
    return;
  }
  begin_reset(ctx);
}

void FilterCoordinator::on_step_begin(CoordCtx& ctx, TimeStep t) {
  end_ranking();
  if (degenerate_) return;
  cur_step_ = t;
  const auto& signals = ctx.signals();
  if (!signals.empty()) {
    if (opts_.suspect) {
      // Quarantined nodes' signals are ignored: their violation cannot
      // be repaired through reports the coordinator distrusts, and
      // convening sessions for them would thrash aborts every step.
      std::uint64_t counted = 0;
      for (const Signal& s : signals) {
        if (guard_.is_quarantined(s.from)) continue;
        ++counted;
        (s.code == 1 ? pending_top_ : pending_bot_) = true;
        sig_side_[s.from] = s.code == 1 ? 1 : 2;
        sig_step_[s.from] = t;
        // A node that keeps signalling without any charged message
        // landing is mute or lagging past the repair window.
        if (++silent_steps_[s.from] >= kSilenceStrikes) {
          guard_.suspect(ctx, mstats_, s.from);
        }
      }
      if (counted > 0) {
        ++mstats_.violation_steps;
        mstats_.violations += counted;
      }
    } else {
      ++mstats_.violation_steps;
      mstats_.violations += signals.size();
      for (const Signal& s : signals) {
        (s.code == 1 ? pending_top_ : pending_bot_) = true;
      }
    }
  }
  guard_.tick_release_probes(ctx, kReleaseCap);
  if (cycle_.phase != ViolationCycle::Phase::kIdle) return;
  if (topk_ids_.size() != k_) {
    // The answer was never established — a FILTERRESET aborted under
    // message loss before any boundary reached the nodes, so no filter
    // violation can ever convene repair. Defensively re-run the
    // selection — every step by default; under Options::reset_backoff
    // the retry waits an exponentially growing, RNG-jittered number of
    // steps, so heavy loss cannot thrash a full selection's traffic per
    // step (each skip is counted in reset_backoffs).
    if (opts_.reset_backoff && backoff_wait_ > 0) {
      --backoff_wait_;
      ++mstats_.reset_backoffs;
      return;
    }
    ++mstats_.full_rebuilds;
    if (opts_.reset_backoff) {
      const auto window = std::uint32_t{1} << std::min(backoff_attempt_, 6u);
      const auto jitter = ctx.rng().uniform_below(window);
      backoff_wait_ = window - 1 + static_cast<std::uint32_t>(jitter);
      ++backoff_attempt_;
    }
    begin_reset(ctx);
    return;
  }
  backoff_wait_ = 0;
  backoff_attempt_ = 0;
  admit_parked(ctx);
  if (pending_top_ || pending_bot_) start_pending_cycle(ctx);
}

void FilterCoordinator::on_message(CoordCtx& ctx, const Message& m) {
  if (opts_.suspect && guard_.is_quarantined(m.from)) {
    // The only message the coordinator trusts from a quarantined node is
    // a probe reply — it proves the node answers again and releases the
    // quarantine; session reports are exactly what quarantine distrusts.
    if (m.kind == MsgKind::kValueReport && m.b == 1) {
      handle_release_reply(ctx, m.from, m.a);
    }
    return;
  }
  if (opts_.suspect && m.kind == MsgKind::kValueReport) {
    // A charged report clears the silence streak and any pending
    // pre-quarantine suspicion — but only when it is *useful*: it lands
    // while a session or selection is still collecting, or it is an
    // explicit liveness reply (b == 1, re-sync / probe). A node lagging
    // beyond the session window keeps producing stragglers that arrive
    // after the repair already aborted; those must not launder its
    // silence, or a laggard is never convicted.
    if (cycle_.busy() || m.b == 1) {
      silent_steps_[m.from] = 0;
      guard_.clear_suspicion(m.from);
    }
    check_stale_report(ctx, m.from, m.a);
    if (guard_.is_quarantined(m.from)) return;  // the check just escalated
  }
  if (m.kind == MsgKind::kValueReport && m.b == 1) {
    // Re-sync reply (session reports leave b at 0).
    handle_resync_reply(ctx, m.from, m.a);
    return;
  }
  if (m.kind == MsgKind::kValueReport) cycle_.session.fold(m);
}

void FilterCoordinator::on_timer(CoordCtx& ctx) {
  guard_.tick_resyncs(ctx, mstats_);
  guard_.tick_suspects(ctx, mstats_,
                       [&](NodeId id) { remove_node(ctx, id); });
  if (cycle_.phase == ViolationCycle::Phase::kIdle) {
    if (pending_top_ || pending_bot_) {
      if (admit_wait_ > 0) --admit_wait_;
      start_pending_cycle(ctx);  // a re-admitted node's violation (admit)
    }
    return;
  }
  // End of a round (Algorithm 2, coordinator side): the round's reports
  // have been folded in via on_message. Under lossless delivery every
  // still-active participant reported, so a concluded extremum is exact.
  switch (cycle_.on_timer(ctx, mstats_, *this)) {
    case CycleEvent::kViolated:
      handler_transition(ctx);
      break;
    case CycleEvent::kSides:
      decide(ctx);
      break;
    case CycleEvent::kSelected:
      finish_reset(ctx);
      break;
    case CycleEvent::kNone:
    case CycleEvent::kSilent:
      break;
  }
}

SessionSpec FilterCoordinator::cycle_session(CycleSession s) const noexcept {
  const auto group = [](FilterSessionGroup g) {
    return static_cast<std::int64_t>(g);
  };
  switch (s) {
    case CycleSession::kViolMin:  // line 5: MINIMUMPROTOCOL(k)
      return {group(FilterSessionGroup::kViolTop), k_};
    case CycleSession::kViolMax:  // line 7: MAXIMUMPROTOCOL(n-k)
      return {group(FilterSessionGroup::kViolBot), n_ - k_};
    case CycleSession::kSideMin:
      return {group(FilterSessionGroup::kAllTop), k_, 1};  // side: top-k
    case CycleSession::kSideMax:
      return {group(FilterSessionGroup::kAllBot), n_ - k_, 0};  // non-top-k
    case CycleSession::kSelect:
      return {group(FilterSessionGroup::kSelectRest), n_};
  }
  return {};
}

void FilterCoordinator::start_cycle(CoordCtx& ctx) {
  const bool top = std::exchange(pending_top_, false);
  const bool bot = std::exchange(pending_bot_, false);
  cycle_.open(ctx, mstats_, *this, top, bot);
}

void FilterCoordinator::handler_transition(CoordCtx& ctx) {
  // FILTERVIOLATIONHANDLER, lines 22-26: obtain the side extremum the
  // violations did not deliver (announced by a charged kProtocolStart).
  ++mstats_.handler_calls;
  // Sharded edge quotas: the missing side can be empty (k == n leaves no
  // outsiders, k == 0 leaves no members). Its extremum is the identity of
  // the empty max/min — running a session over zero participants would
  // only abort the cycle. Unreachable monolithically (1 <= k <= n-1 once
  // the degenerate k == n shortcut is taken).
  if (!cycle_.max && k_ == n_) {
    cycle_.max = kMinusInf;
    decide(ctx);
    return;
  }
  if (cycle_.max && k_ == 0) {
    cycle_.min = kPlusInf;
    decide(ctx);
    return;
  }
  cycle_.fetch_side(ctx, mstats_, *this);
}

void FilterCoordinator::decide(CoordCtx& ctx) {
  // Lines 27-28: accumulate T+ and T- since the last reset.
  tplus_ = std::min(tplus_, *cycle_.min);
  tminus_ = std::max(tminus_, *cycle_.max);
  // Approx mode tolerates an inversion of up to 2·⌊ε/2⌋ before resetting
  // (core/approx_monitor.cpp explains the even rounding); ε = 0 exact.
  const Value slack = 2 * (opts_.epsilon / 2);
  if (tplus_ < tminus_ - slack) {
    // Line 30: the top-k set may have changed; recompute from scratch.
    begin_reset(ctx);
  } else {
    // Lines 32-33: halve the gap; at most log Δ times between resets.
    ++mstats_.midpoint_updates;
    apply_boundary(ctx, choose_boundary());
    cycle_done(ctx);
  }
}

void FilterCoordinator::begin_reset(CoordCtx& ctx) {
  // FILTERRESET, lines 37-39: k+1 repeated MAXIMUMPROTOCOL(n) runs; each
  // winner announcement doubles as the membership notification.
  ++mstats_.filter_resets;
  Control sel;
  sel.op = static_cast<std::int64_t>(FilterControlOp::kStartSelection);
  sel.a = static_cast<std::int64_t>(k_);
  ctx.control_broadcast(sel);
  cycle_.select(ctx, mstats_, *this);
}

void FilterCoordinator::finish_reset(CoordCtx& ctx) {
  // Under churn or quarantine the selection can finish with fewer than k
  // winners (selection_target() capped below k+1): install the partial
  // answer — topk_ids_.size() != k_ then keeps the defensive rebuild
  // retrying — instead of indexing past the winner list.
  const auto& winners = cycle_.winners;
  const std::size_t members = std::min(k_, winners.size());
  std::fill(in_topk_.begin(), in_topk_.end(), char{0});
  for (std::size_t i = 0; i < members; ++i) in_topk_[winners[i].id] = 1;
  topk_ids_.clear();
  for (NodeId id = 0; id < n_; ++id) {
    if (in_topk_[id]) topk_ids_.push_back(id);
  }
  // Restart the T+/T- accumulation epoch at the fresh k-th/(k+1)-st values.
  // Sharded edge quotas substitute the identity of the empty side: k == 0
  // has no k-th member (T+ = +inf), k == n no (k+1)-st outsider
  // (T- = -inf). Monolithically both indices exist (the selection drew
  // k+1 <= n winners).
  tplus_ = members > 0 ? winners[members - 1].value : kPlusInf;
  tminus_ = k_ < winners.size() ? winners[k_].value : kMinusInf;
  // Lines 40-41.
  apply_boundary(ctx, choose_boundary());
  cycle_done(ctx);
}

Value FilterCoordinator::choose_boundary() const {
  // Algorithm 1 admits any boundary inside [T-, T+] (every member's value
  // is >= T+, every outsider's <= T-). Monolithic deployments halve the
  // gap; a shard adopts the root's shared boundary whenever the gap
  // contains it, so that in steady state every shard is anchored on one
  // global threshold and "boundary() != pin" detects exactly the shards
  // whose local top-k boundary crossed the root filter.
  if (opts_.pinned_boundary != nullptr && opts_.pinned_boundary->has_value()) {
    const Value r = **opts_.pinned_boundary;
    if (tminus_ <= r && r <= tplus_) return r;
  }
  return midpoint(tminus_, tplus_);
}

void FilterCoordinator::reanchor(CoordCtx& ctx) {
  if (degenerate_ || cycle_.busy()) return;
  if (opts_.pinned_boundary == nullptr ||
      !opts_.pinned_boundary->has_value()) {
    return;
  }
  const Value r = **opts_.pinned_boundary;
  if (mid_ == r && !split_anchor_) return;
  if (topk_ids_.size() == k_ && tminus_ <= r && r <= tplus_) {
    // The new root boundary lies inside the accumulated gap: re-anchor the
    // node filters on it without touching membership.
    ++mstats_.midpoint_updates;
    apply_boundary(ctx, r);
  } else {
    // The pin fell outside [T-, T+] (the root moved the boundary right
    // after this shard resolved a cycle on its own, or the answer was
    // never established): a fresh selection re-establishes the gap around
    // current values and re-evaluates the pin.
    begin_reset(ctx);
  }
}

bool FilterCoordinator::requota(CoordCtx& ctx, std::size_t k) {
  if (!ranks(k)) return false;
  k_ = k;
  const auto& winners = cycle_.winners;
  tplus_ = k > 0 ? winners[k - 1].value : kPlusInf;
  tminus_ = k < winners.size() ? winners[k].value : kMinusInf;
  mid_ = choose_boundary();
  split_anchor_ = true;
  // Only ranked nodes can flip: every unranked node was and stays an
  // outsider.
  Message assign;
  assign.kind = MsgKind::kFilterAssign;
  assign.b = mid_;
  topk_ids_.clear();
  for (std::size_t r = 0; r < winners.size(); ++r) {
    const NodeId id = winners[r].id;
    const char member = r < k ? 1 : 0;
    if (member != 0) topk_ids_.push_back(id);
    if (in_topk_[id] == member) continue;
    in_topk_[id] = member;
    assign.a = member;
    ctx.unicast(id, assign);
  }
  std::sort(topk_ids_.begin(), topk_ids_.end());
  return true;
}

void FilterCoordinator::apply_boundary(CoordCtx& ctx, Value m) {
  mid_ = m;
  split_anchor_ = false;
  Message update;
  update.kind = MsgKind::kFilterUpdate;
  update.a = m;
  update.b = opts_.epsilon;
  ctx.broadcast(update);
}

void FilterCoordinator::cycle_done(CoordCtx& ctx) {
  cycle_.done();
  // Re-sync replies parked while the cycle ran are admitted now, and
  // violations that arrived meanwhile (possible only under a tick budget)
  // convene the next cycle immediately.
  admit_parked(ctx);
  if (pending_top_ || pending_bot_) start_pending_cycle(ctx);
}

// ---------------------------------------------------------------------------
// Fault hooks: crash, recovery re-sync, dynamic k
// ---------------------------------------------------------------------------

void FilterCoordinator::on_node_down(CoordCtx& ctx, NodeId id) {
  end_ranking();
  if (degenerate_) return;  // a crash under k == n is rejected by the plan
  n_live_ = ctx.live_count();
  guard_.drop(id);
  if (opts_.suspect) forget_signals(id);
  // A crashed non-member mid-session is just a lost report, which the
  // session machinery already tolerates.
  remove_node(ctx, id);
}

void FilterCoordinator::remove_node(CoordCtx& ctx, NodeId id) {
  // Structural loss: a member of the answer (or a winner of the in-flight
  // FILTERRESET selection, which would otherwise be installed dead or
  // pin a distrusted value) takes the k-th position with it — re-find it
  // over the nodes that remain. The reset's fresh boundary is the
  // defensive widen that covers the vacated slot.
  const bool structural = in_topk_[id] != 0 || cycle_.holds_winner(id);
  if (in_topk_[id]) {
    in_topk_[id] = 0;
    topk_ids_.erase(std::remove(topk_ids_.begin(), topk_ids_.end(), id),
                    topk_ids_.end());
  }
  if (structural) {
    cycle_.abort();
    begin_reset(ctx);
  }
}

void FilterCoordinator::on_node_up(CoordCtx& ctx, NodeId id) {
  end_ranking();
  if (degenerate_) return;
  n_live_ = ctx.live_count();
  // Already pending (defensive; cleared on down).
  if (guard_.resyncing(id)) return;
  if (opts_.replay && !cycle_.busy() && topk_ids_.size() == k_) {
    // Warm-standby recovery: the coordinator's own state is the collapsed
    // assignment log — the node's membership (an outage always cleared
    // it) and the established boundary — so replay it in one message
    // instead of the probe/reply/assign round trip. The node's contains
    // check on the assignment primes a violation signal if its returning
    // value belongs above the boundary, which convenes repair exactly
    // like a signalled violation; no re-sync entry, no retry storm.
    ++mstats_.assign_replays;
    Message assign;
    assign.kind = MsgKind::kFilterAssign;
    assign.a = in_topk_[id];
    assign.b = mid_;
    ctx.unicast(id, assign);
    return;
  }
  guard_.begin_resync(ctx, mstats_, id);
}

void FilterCoordinator::on_set_k(CoordCtx& ctx, std::size_t k) {
  end_ranking();
  if (k == k_) return;
  k_ = k;
  backoff_wait_ = 0;
  backoff_attempt_ = 0;
  cycle_.abort();
  // Violations signalled against the old k's filters are stale: the
  // selection below re-evaluates every node anyway.
  pending_top_ = pending_bot_ = false;
  if (k_ == n_ && opts_.pinned_boundary == nullptr) {
    // Growing into the degenerate configuration: all nodes are the answer
    // forever (the plan guarantees they are all live at this point).
    degenerate_ = true;
    std::fill(in_topk_.begin(), in_topk_.end(), char{1});
    topk_ids_.clear();
    for (NodeId id = 0; id < n_; ++id) topk_ids_.push_back(id);
    return;
  }
  degenerate_ = false;
  begin_reset(ctx);
}

void FilterCoordinator::handle_resync_reply(CoordCtx& ctx, NodeId from,
                                            Value v) {
  if (cycle_.busy()) {
    // Re-admitting mid-cycle would corrupt the running session's quorum:
    // park the reply and admit the node when the cycle ends
    // (admit_parked).
    guard_.park(from, v);
    return;
  }
  // A late duplicate of a completed re-sync is ignored.
  if (!guard_.complete(from)) return;
  if (topk_ids_.size() != k_) {
    // No established answer to re-admit into: the next selection
    // re-integrates the node along with everyone else.
    begin_reset(ctx);
    return;
  }
  if (admit(ctx, from, v)) {
    // Convene the repair from the coordinator timer of this tick, not
    // from here: a session started inside on_message would run its
    // coordinator rounds one tick ahead of the nodes and conclude before
    // their final-round reports land. Replies drained in the same tick
    // join the same cycle.
    pending_bot_ = true;
    ctx.arm_timer();
  }
}

void FilterCoordinator::admit_parked(CoordCtx& ctx) {
  // Without an established answer the pending selection re-integrates
  // every live node; its cycle_done admits the parked replies after.
  if (topk_ids_.size() != k_) return;
  guard_.admit_parked([&](NodeId id, Value v) {
    if (admit(ctx, id, v)) pending_bot_ = true;
  });
}

void FilterCoordinator::start_pending_cycle(CoordCtx& ctx) {
  if (admit_wait_ > 0) {
    ctx.arm_timer();
    return;
  }
  start_cycle(ctx);
}

bool FilterCoordinator::admit(CoordCtx& ctx, NodeId id, Value v) {
  // Anchor the node on the established boundary with its membership (an
  // outage clears it, but a selection that ran while the reply was
  // parked may have re-admitted the node as a member). The repair
  // session a violation convenes starts only after this unicast has
  // landed (admit_wait_; under instant delivery it lands first because
  // messages precede controls within a node phase), so a violating node
  // is primed to join it.
  Message assign;
  assign.kind = MsgKind::kFilterAssign;
  assign.a = in_topk_[id];
  assign.b = mid_;
  ctx.unicast(id, assign);
  // An outsider whose value belongs above the (ε/2-widened) boundary is
  // handled exactly like a signalled bottom-side filter violation, once
  // the assignment that primes it has landed.
  if (in_topk_[id] != 0 || v <= mid_ + opts_.epsilon / 2) return false;
  ++mstats_.violations;
  admit_wait_ = ctx.flush_ticks();
  return true;
}

// ---------------------------------------------------------------------------
// Suspicion / quarantine (Options::suspect)
// ---------------------------------------------------------------------------

void FilterCoordinator::handle_release_reply(CoordCtx& ctx, NodeId from,
                                             Value v) {
  if (cycle_.busy()) {
    // Re-admitting mid-cycle would corrupt the running session's quorum;
    // the next release probe finds the coordinator idle later.
    guard_.defer_release(from);
    return;
  }
  guard_.release(from);
  forget_signals(from);
  if (topk_ids_.size() != k_) {
    begin_reset(ctx);  // the selection re-integrates it with everyone else
    return;
  }
  // Re-admit as an outsider anchored on the established boundary, exactly
  // like a crash-recovery re-sync completion. A stale node that answered
  // with its frozen value simply earns its next quarantine through the
  // contradiction strikes; a healed one converges here.
  Message assign;
  assign.kind = MsgKind::kFilterAssign;
  assign.a = 0;
  assign.b = mid_;
  ctx.unicast(from, assign);
  if (v > mid_ + opts_.epsilon / 2) {
    ++mstats_.violations;
    pending_bot_ = true;
    start_cycle(ctx);
  }
}

void FilterCoordinator::check_stale_report(CoordCtx& ctx, NodeId from,
                                           Value v) {
  // A signal pins which side of the boundary the node's *true* value is
  // on (signals come from the uncharged control plane — the degradations
  // cannot forge them): side 1 means a member fell below the boundary,
  // side 2 an outsider rose above it. A report landing on the
  // contradicted side is a strike; consistency clears the record
  // (boundary races can produce isolated contradictions). The anchor
  // must be from the *current* step: a persistent violator re-raises
  // its signal every step (the needs-observe contract), so a truly
  // stale node always has a same-step anchor — while an honest node
  // whose value hovers across the boundary stops signalling the moment
  // its violation clears, and its in-flight reports are never judged
  // against the outdated side.
  if (sig_side_[from] == 0 || sig_step_[from] != cur_step_) {
    return;
  }
  const Value half = opts_.epsilon / 2;
  const bool contradicts = (sig_side_[from] == 1 && v >= mid_ - half) ||
                           (sig_side_[from] == 2 && v <= mid_ + half);
  if (!contradicts) {
    stale_strikes_[from] = 0;
    return;
  }
  if (++stale_strikes_[from] >= kStaleStrikes &&
      guard_.quarantine(mstats_, from)) {
    ++mstats_.stale_detections;
    remove_node(ctx, from);
  }
}

void FilterCoordinator::forget_signals(NodeId id) {
  silent_steps_[id] = 0;
  sig_side_[id] = 0;
  sig_step_[id] = 0;
  stale_strikes_[id] = 0;
}

}  // namespace topkmon
