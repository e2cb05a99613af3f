#include "core/multik_roles.hpp"

#include <algorithm>
#include <stdexcept>

namespace topkmon {

namespace {

// Signal encoding: 0 escalates to the shared reset (multi-band jump);
// otherwise 1 + 2*boundary + (up ? 1 : 0) names the single crossed
// boundary and the direction.
constexpr std::int64_t kEscalateSignal = 0;

constexpr std::int64_t encode_cross(std::size_t boundary, bool up) noexcept {
  return 1 + 2 * static_cast<std::int64_t>(boundary) + (up ? 1 : 0);
}

}  // namespace

// ---------------------------------------------------------------------------
// MultiKNode
// ---------------------------------------------------------------------------

Value MultiKNode::to_w(const NodeCtx& ctx, Value v) const noexcept {
  const auto n = static_cast<Value>(ctx.n());
  return v * n + (n - 1 - static_cast<Value>(ctx.id()));
}

void MultiKNode::on_init(NodeCtx& ctx, Value) {
  bks_.clear();
  for (const std::size_t k : ks_) {
    if (k < ctx.n()) bks_.push_back(k);
  }
  band_ = bks_.size();
  mids_.assign(bks_.size(), 0);
  // Unbounded until the first reset's announce order assigns a band (a
  // k == n only deployment never bounds it — the answer is static).
  ctx.set_needs_observe(false);
}

void MultiKNode::on_observe(NodeCtx& ctx, Value v, TimeStep) {
  const Value w = to_w(ctx, v);
  const int side = filter_.violation_side(w);
  if (side == 0) {
    ctx.set_needs_observe(false);
    return;
  }
  ctx.set_needs_observe(true);
  // Mirror of MultiKMonitor::step()'s classification: count how many
  // boundary midpoints the value crossed; a multi-band jump escalates to
  // the shared reset, a single crossing names its boundary.
  const std::size_t m = bks_.size();
  std::size_t crossed = 0;
  if (side > 0) {
    for (std::size_t j = band_; j-- > 0;) {
      if (w > mids_[j]) {
        ++crossed;
      } else {
        break;
      }
    }
    if (crossed != 1) {
      pending_.reset();
      ctx.signal(kEscalateSignal);
      return;
    }
    pending_ = PendingCross{band_ - 1, true};
    ctx.signal(encode_cross(band_ - 1, true));
  } else {
    for (std::size_t j = band_; j < m; ++j) {
      if (w < mids_[j]) {
        ++crossed;
      } else {
        break;
      }
    }
    if (crossed != 1) {
      pending_.reset();
      ctx.signal(kEscalateSignal);
      return;
    }
    pending_ = PendingCross{band_, false};
    ctx.signal(encode_cross(band_, false));
  }
}

void MultiKNode::on_message(NodeCtx& ctx, const Message& m) {
  switch (m.kind) {
    case MsgKind::kRoundBeacon:
      sess_.handle_beacon(m);
      break;
    case MsgKind::kWinnerAnnounce: {
      if (!selecting_) break;
      const auto beacon = unpack_beacon_b(m.b);
      const auto n = static_cast<Value>(ctx.n());
      sel_w_.push_back(m.a * n + (n - 1 - static_cast<Value>(beacon.holder)));
      if (beacon.holder == ctx.id()) {
        excluded_ = true;
        sel_own_rank_ = announces_seen_;
      }
      ++announces_seen_;
      if (announces_seen_ == sel_want_) finish_selection(ctx);
      break;
    }
    case MsgKind::kFilterUpdate: {
      selecting_ = false;
      const auto j = static_cast<std::size_t>(m.b);
      if (j < mids_.size()) {
        mids_[j] = m.a;
        rebuild_filter(ctx);
      }
      break;
    }
    default:
      break;  // kProtocolStart is informational for nodes
  }
}

void MultiKNode::on_control(NodeCtx& ctx, const Control& c) {
  switch (static_cast<MultiKControlOp>(c.op)) {
    case MultiKControlOp::kStartSelection: {
      selecting_ = true;
      excluded_ = false;
      announces_seen_ = 0;
      sel_w_.clear();
      sel_own_rank_.reset();
      sel_want_ = static_cast<std::size_t>(c.a);
      // The reset supersedes any unconsumed crossing.
      pending_.reset();
      break;
    }
    case MultiKControlOp::kStartSession: {
      const auto kind = static_cast<MultiKSessionGroup>(c.b & 7);
      const auto j = static_cast<std::size_t>(c.b >> 3);
      bool join = false;
      switch (kind) {
        case MultiKSessionGroup::kViolDown:
          join = pending_.has_value() && !pending_->up &&
                 pending_->boundary == j;
          if (join) pending_.reset();
          break;
        case MultiKSessionGroup::kViolUp:
          join = pending_.has_value() && pending_->up &&
                 pending_->boundary == j;
          if (join) pending_.reset();
          break;
        case MultiKSessionGroup::kSideAbove:
          join = band_ <= j;
          break;
        case MultiKSessionGroup::kSideBelow:
          join = band_ > j;
          break;
        case MultiKSessionGroup::kSelectAll:
          join = selecting_ && !excluded_;
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

void MultiKNode::on_timer(NodeCtx& ctx) { sess_.run_round(ctx, ctx.value()); }

void MultiKNode::on_recover(NodeCtx& ctx) {
  sess_.reset(ctx);
  selecting_ = false;
  excluded_ = false;
  announces_seen_ = 0;
  pending_.reset();
  // The surviving band/filter may predate boundaries renegotiated during
  // the outage; the coordinator's recovery reset re-bands everyone.
  ctx.set_needs_observe(true);
}

void MultiKNode::finish_selection(NodeCtx& ctx) {
  selecting_ = false;
  const std::size_t m = bks_.size();
  if (sel_own_rank_.has_value()) {
    // Band of rank r (1-based): number of boundaries with k < r.
    std::size_t bd = 0;
    for (const std::size_t k : bks_) {
      if (k < *sel_own_rank_ + 1) ++bd;
    }
    band_ = bd;
  } else {
    band_ = m;  // non-winners sit below every boundary
  }
  for (std::size_t j = 0; j < m; ++j) {
    mids_[j] = midpoint(sel_w_[bks_[j]], sel_w_[bks_[j] - 1]);
  }
  rebuild_filter(ctx);
}

void MultiKNode::rebuild_filter(NodeCtx& ctx) {
  const std::size_t m = bks_.size();
  const Value lo = band_ == m ? kMinusInf : mids_[band_];
  const Value hi = band_ == 0 ? kPlusInf : mids_[band_ - 1];
  filter_ = Filter{lo, hi};
  ctx.set_needs_observe(!filter_.contains(to_w(ctx, ctx.value())));
}

// ---------------------------------------------------------------------------
// MultiKCoordinator
// ---------------------------------------------------------------------------

MultiKCoordinator::MultiKCoordinator(std::vector<std::size_t> ks, Options opts)
    : ks_(std::move(ks)) {
  sess_.suppress_idle = opts.suppress_idle_broadcasts;
  if (ks_.empty()) {
    throw std::invalid_argument("MultiKCoordinator: need at least one k");
  }
  if (ks_.size() > 200) {
    throw std::invalid_argument("MultiKCoordinator: too many boundaries");
  }
  for (std::size_t i = 0; i < ks_.size(); ++i) {
    if (ks_[i] == 0 || (i > 0 && ks_[i] <= ks_[i - 1])) {
      throw std::invalid_argument(
          "MultiKCoordinator: ks must be positive and strictly increasing");
    }
  }
}

Value MultiKCoordinator::to_w(NodeId id, Value v) const noexcept {
  return v * static_cast<Value>(n_) +
         (static_cast<Value>(n_) - 1 - static_cast<Value>(id));
}

void MultiKCoordinator::on_init(CoordCtx& ctx) {
  n_ = ctx.n();
  if (ks_.back() > n_) {
    throw std::invalid_argument("MultiKCoordinator: largest k > n");
  }
  boundaries_.clear();
  for (const std::size_t k : ks_) {
    if (k < n_) boundaries_.push_back(Boundary{k, 0, 0, 0});
  }
  band_.assign(n_, static_cast<std::uint8_t>(boundaries_.size()));
  pending_down_.assign(boundaries_.size(), 0);
  pending_up_.assign(boundaries_.size(), 0);
  cycle_down_.assign(boundaries_.size(), 0);
  cycle_up_.assign(boundaries_.size(), 0);
  if (boundaries_.empty()) {
    // Only k == n was requested: the answer is static.
    topk_smallest_.clear();
    for (NodeId id = 0; id < n_; ++id) topk_smallest_.push_back(id);
    installed_ = true;
    return;
  }
  begin_full_reset(ctx);
}

void MultiKCoordinator::on_step_begin(CoordCtx& ctx, TimeStep) {
  if (boundaries_.empty()) return;
  const auto& signals = ctx.signals();
  if (!signals.empty()) {
    ++mstats_.violation_steps;
    mstats_.violations += signals.size();
    for (const Signal& s : signals) {
      if (s.code == kEscalateSignal) {
        pending_escalate_ = true;
      } else {
        const auto j = static_cast<std::size_t>((s.code - 1) / 2);
        const bool up = ((s.code - 1) % 2) == 1;
        if (j < boundaries_.size()) (up ? pending_up_ : pending_down_)[j] = 1;
      }
    }
  }
  if (phase_ != Phase::kIdle) return;
  if (!installed_) {
    // The bands were never established — a reset selection aborted under
    // message loss. Defensively re-run it.
    ++mstats_.full_rebuilds;
    begin_full_reset(ctx);
    return;
  }
  if (pending_escalate_) {
    begin_full_reset(ctx);
    return;
  }
  const bool any =
      std::any_of(pending_down_.begin(), pending_down_.end(),
                  [](char f) { return f != 0; }) ||
      std::any_of(pending_up_.begin(), pending_up_.end(),
                  [](char f) { return f != 0; });
  if (any) start_cycle(ctx);
}

void MultiKCoordinator::on_message(CoordCtx&, const Message& m) {
  if (m.kind != MsgKind::kValueReport) return;
  sess_.fold(m);
}

void MultiKCoordinator::on_timer(CoordCtx& ctx) {
  if (!sess_.active) {
    if (pending_select_) {
      if (select_gap_ > 0) {
        --select_gap_;
        ctx.arm_timer();
        return;
      }
      pending_select_ = false;
      start_session(ctx, Direction::kMax, MultiKSessionGroup::kSelectAll, 0,
                    n_);
    }
    return;
  }
  if (!sess_.advance(ctx)) return;
  conclude_session(ctx);
}

void MultiKCoordinator::start_cycle(CoordCtx& ctx) {
  cycle_down_ = pending_down_;
  cycle_up_ = pending_up_;
  std::fill(pending_down_.begin(), pending_down_.end(), char{0});
  std::fill(pending_up_.begin(), pending_up_.end(), char{0});
  cur_boundary_ = 0;
  advance_boundary(ctx);
}

void MultiKCoordinator::start_session(CoordCtx& ctx, Direction dir,
                                      MultiKSessionGroup kind,
                                      std::size_t boundary,
                                      std::uint64_t n_upper) {
  ++mstats_.protocol_runs;
  const std::int64_t group = (static_cast<std::int64_t>(boundary) << 3) |
                             static_cast<std::int64_t>(kind);
  sess_.begin(ctx, static_cast<std::int64_t>(MultiKControlOp::kStartSession),
              dir, group, n_upper);
}

void MultiKCoordinator::advance_boundary(CoordCtx& ctx) {
  const std::size_t m = boundaries_.size();
  while (cur_boundary_ < m && cycle_down_[cur_boundary_] == 0 &&
         cycle_up_[cur_boundary_] == 0) {
    ++cur_boundary_;
  }
  if (cur_boundary_ >= m) {
    cycle_done(ctx);
    return;
  }
  // Per-boundary Algorithm 1 handler: single-band crossings keep each
  // boundary's violators disjoint from other boundaries' sides' extrema,
  // so the boundaries are repaired independently, in ascending order.
  ++mstats_.handler_calls;
  min_w_.reset();
  max_w_.reset();
  const Boundary& b = boundaries_[cur_boundary_];
  if (cycle_down_[cur_boundary_] != 0) {
    phase_ = Phase::kViolDown;
    start_session(ctx, Direction::kMin, MultiKSessionGroup::kViolDown,
                  cur_boundary_, b.k);
  } else {
    phase_ = Phase::kViolUp;
    start_session(ctx, Direction::kMax, MultiKSessionGroup::kViolUp,
                  cur_boundary_, n_ - b.k);
  }
}

void MultiKCoordinator::conclude_session(CoordCtx& ctx) {
  if (phase_ == Phase::kSelect) sess_.announce(ctx);
  if (!sess_.have_best) {
    abort_cycle();
    return;
  }
  const Boundary* b =
      cur_boundary_ < boundaries_.size() ? &boundaries_[cur_boundary_] : nullptr;
  switch (phase_) {
    case Phase::kViolDown:
      min_w_ = to_w(sess_.best_holder, sess_.best_value);
      if (cycle_up_[cur_boundary_] != 0) {
        phase_ = Phase::kViolUp;
        start_session(ctx, Direction::kMax, MultiKSessionGroup::kViolUp,
                      cur_boundary_, n_ - b->k);
      } else {
        handler_transition(ctx);
      }
      break;
    case Phase::kViolUp:
      max_w_ = to_w(sess_.best_holder, sess_.best_value);
      handler_transition(ctx);
      break;
    case Phase::kFullSide:
      if (sess_.dir == Direction::kMax) {
        max_w_ = to_w(sess_.best_holder, sess_.best_value);
      } else {
        min_w_ = to_w(sess_.best_holder, sess_.best_value);
      }
      decide_boundary(ctx);
      break;
    case Phase::kSelect: {
      for (const auto& w : sel_winners_) {
        if (w.second == sess_.best_holder) {
          // Repeat winner (lost announce, drops only): abandon the
          // reset; the defensive rebuild retries next step.
          abort_cycle();
          return;
        }
      }
      sel_winners_.emplace_back(sess_.best_value, sess_.best_holder);
      if (sel_winners_.size() < sel_want_) {
        const std::uint64_t gap = ctx.flush_ticks();
        if (gap == 0) {
          start_session(ctx, Direction::kMax, MultiKSessionGroup::kSelectAll,
                        0, n_);
        } else {
          pending_select_ = true;
          select_gap_ = gap;
          ctx.arm_timer();
        }
      } else {
        finish_selection(ctx);
      }
      break;
    }
    case Phase::kIdle:
      break;  // unreachable
  }
}

void MultiKCoordinator::handler_transition(CoordCtx& ctx) {
  // Obtain the side extremum the crossings did not deliver, announced by
  // a charged kProtocolStart tagged with the boundary index.
  phase_ = Phase::kFullSide;
  const Boundary& b = boundaries_[cur_boundary_];
  Message start;
  start.kind = MsgKind::kProtocolStart;
  start.a = static_cast<std::int64_t>(cur_boundary_);
  ctx.broadcast(start);
  if (!max_w_.has_value()) {
    start_session(ctx, Direction::kMax, MultiKSessionGroup::kSideBelow,
                  cur_boundary_, n_ - b.k);
  } else {
    start_session(ctx, Direction::kMin, MultiKSessionGroup::kSideAbove,
                  cur_boundary_, b.k);
  }
}

void MultiKCoordinator::decide_boundary(CoordCtx& ctx) {
  Boundary& b = boundaries_[cur_boundary_];
  b.tplus_w = std::min(b.tplus_w, *min_w_);
  b.tminus_w = std::max(b.tminus_w, *max_w_);
  if (b.tplus_w < b.tminus_w) {
    // Shared reset: rebuilds every boundary at once, abandoning the
    // remaining repairs of this cycle.
    begin_full_reset(ctx);
    return;
  }
  ++mstats_.midpoint_updates;
  b.mid_w = midpoint(b.tminus_w, b.tplus_w);
  Message update;
  update.kind = MsgKind::kFilterUpdate;
  update.a = b.mid_w;
  update.b = static_cast<std::int64_t>(cur_boundary_);
  ctx.broadcast(update);
  ++cur_boundary_;
  advance_boundary(ctx);
}

void MultiKCoordinator::begin_full_reset(CoordCtx& ctx) {
  ++mstats_.filter_resets;
  installed_ = false;
  pending_escalate_ = false;
  std::fill(pending_down_.begin(), pending_down_.end(), char{0});
  std::fill(pending_up_.begin(), pending_up_.end(), char{0});
  phase_ = Phase::kSelect;
  sel_want_ = boundaries_.back().k + 1;
  sel_winners_.clear();
  Control sel;
  sel.op = static_cast<std::int64_t>(MultiKControlOp::kStartSelection);
  sel.a = static_cast<std::int64_t>(sel_want_);
  ctx.control_broadcast(sel);
  start_session(ctx, Direction::kMax, MultiKSessionGroup::kSelectAll, 0, n_);
}

void MultiKCoordinator::finish_selection(CoordCtx& ctx) {
  const std::size_t m = boundaries_.size();
  band_.assign(n_, static_cast<std::uint8_t>(m));
  std::vector<Value> rank_w(sel_winners_.size());
  for (std::size_t r = 0; r < sel_winners_.size(); ++r) {
    const auto& win = sel_winners_[r];
    rank_w[r] = to_w(win.second, win.first);
    std::uint8_t bd = 0;
    for (const auto& b : boundaries_) {
      if (b.k < r + 1) ++bd;
    }
    band_[win.second] = bd;
  }
  for (auto& b : boundaries_) {
    b.tplus_w = rank_w[b.k - 1];
    b.tminus_w = rank_w[b.k];
    b.mid_w = midpoint(b.tminus_w, b.tplus_w);
  }
  refresh_answer();
  installed_ = true;
  cycle_done(ctx);
}

void MultiKCoordinator::refresh_answer() {
  topk_smallest_.clear();
  for (NodeId id = 0; id < n_; ++id) {
    if (band_[id] == 0) topk_smallest_.push_back(id);
  }
}

void MultiKCoordinator::cycle_done(CoordCtx& ctx) {
  phase_ = Phase::kIdle;
  min_w_.reset();
  max_w_.reset();
  std::fill(cycle_down_.begin(), cycle_down_.end(), char{0});
  std::fill(cycle_up_.begin(), cycle_up_.end(), char{0});
  if (resync_pending_) {
    resync_pending_ = false;
    begin_full_reset(ctx);
    return;
  }
  if (pending_escalate_) {
    begin_full_reset(ctx);
    return;
  }
  const bool any =
      std::any_of(pending_down_.begin(), pending_down_.end(),
                  [](char f) { return f != 0; }) ||
      std::any_of(pending_up_.begin(), pending_up_.end(),
                  [](char f) { return f != 0; });
  if (any) start_cycle(ctx);
}

void MultiKCoordinator::abort_cycle() {
  phase_ = Phase::kIdle;
  sess_.active = false;
  pending_select_ = false;
  select_gap_ = 0;
  min_w_.reset();
  max_w_.reset();
  std::fill(cycle_down_.begin(), cycle_down_.end(), char{0});
  std::fill(cycle_up_.begin(), cycle_up_.end(), char{0});
}

std::vector<NodeId> MultiKCoordinator::topk_for(std::size_t k) const {
  if (k == n_) {
    std::vector<NodeId> all(n_);
    for (NodeId id = 0; id < n_; ++id) all[id] = id;
    return all;
  }
  std::size_t j = boundaries_.size();
  for (std::size_t i = 0; i < boundaries_.size(); ++i) {
    if (boundaries_[i].k == k) {
      j = i;
      break;
    }
  }
  if (j == boundaries_.size()) {
    throw std::invalid_argument("MultiKCoordinator: k is not monitored");
  }
  std::vector<NodeId> out;
  for (NodeId id = 0; id < n_; ++id) {
    if (band_[id] <= j) out.push_back(id);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Fault hooks: crash and recovery
// ---------------------------------------------------------------------------

void MultiKCoordinator::on_node_down(CoordCtx& ctx, NodeId id) {
  const std::size_t m = boundaries_.size();
  if (m == 0) return;
  bool structural = band_[id] < m;
  if (phase_ == Phase::kSelect) {
    for (const auto& w : sel_winners_) {
      structural = structural || w.second == id;
    }
  }
  if (band_[id] < m) {
    band_[id] = static_cast<std::uint8_t>(m);
    refresh_answer();
  }
  if (structural) {
    // The node sat above some boundary (or was an in-flight reset
    // winner): every boundary it anchored must be re-found.
    abort_cycle();
    begin_full_reset(ctx);
  }
}

void MultiKCoordinator::on_node_up(CoordCtx& ctx, NodeId) {
  if (boundaries_.empty()) return;
  // The returning node's band is unknowable without fresh values; the
  // shared reset's announce order doubles as the re-sync assignment.
  ++mstats_.resyncs;
  if (phase_ == Phase::kIdle && !sess_.active) {
    begin_full_reset(ctx);
  } else {
    resync_pending_ = true;
  }
}

}  // namespace topkmon
