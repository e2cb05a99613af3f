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
  // The crossing classes of MultiKCoordinator's repair: count how many
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
    case MsgKind::kWinnerAnnounce:
      if (sel_.fold(ctx, m)) finish_selection(ctx);
      break;
    case MsgKind::kFilterUpdate: {
      sel_.selecting = false;
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
      sel_.begin(static_cast<std::size_t>(c.a));
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
          join = sel_.candidate();
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
  sel_.reset();
  pending_.reset();
  // The surviving band/filter may predate boundaries renegotiated during
  // the outage; the coordinator's recovery reset re-bands everyone.
  ctx.set_needs_observe(true);
}

void MultiKNode::finish_selection(NodeCtx& ctx) {
  const std::size_t m = bks_.size();
  if (sel_.own_rank.has_value()) {
    // Band of rank r (1-based): number of boundaries with k < r.
    std::size_t bd = 0;
    for (const std::size_t k : bks_) {
      if (k < *sel_.own_rank + 1) ++bd;
    }
    band_ = bd;
  } else {
    band_ = m;  // non-winners sit below every boundary
  }
  for (std::size_t j = 0; j < m; ++j) {
    mids_[j] = midpoint(sel_.w[bks_[j]], sel_.w[bks_[j] - 1]);
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
  cycle_.session.suppress_idle = opts.suppress_idle_broadcasts;
  if (ks_.empty()) {
    throw std::invalid_argument("MultiKCoordinator: need at least one k");
  }
  if (ks_.size() > kMaxBoundaries) {
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
  if (cycle_.phase != ViolationCycle::Phase::kIdle) return;
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
  cycle_.session.fold(m);
}

void MultiKCoordinator::on_timer(CoordCtx& ctx) {
  switch (cycle_.on_timer(ctx, mstats_, *this)) {
    case CycleEvent::kViolated:
      // The side extremum the crossings did not deliver, announced by a
      // charged kProtocolStart tagged with the boundary index.
      cycle_.fetch_side(ctx, mstats_, *this);
      break;
    case CycleEvent::kSides:
      decide_boundary(ctx);
      break;
    case CycleEvent::kSelected:
      finish_selection(ctx);
      break;
    case CycleEvent::kNone:
    case CycleEvent::kSilent:
      break;
  }
}

SessionSpec MultiKCoordinator::cycle_session(CycleSession s) const noexcept {
  const auto group = [](MultiKSessionGroup kind, std::size_t boundary) {
    return (static_cast<std::int64_t>(boundary) << 3) |
           static_cast<std::int64_t>(kind);
  };
  if (s == CycleSession::kSelect) {
    return {group(MultiKSessionGroup::kSelectAll, 0), n_};
  }
  const std::size_t j = cur_boundary_;
  const std::size_t k = boundaries_[j].k;
  const auto tag = static_cast<std::int64_t>(j);
  switch (s) {
    case CycleSession::kViolMin:
      return {group(MultiKSessionGroup::kViolDown, j), k};
    case CycleSession::kViolMax:
      return {group(MultiKSessionGroup::kViolUp, j), n_ - k};
    case CycleSession::kSideMin:
      return {group(MultiKSessionGroup::kSideAbove, j), k, tag};
    case CycleSession::kSideMax:
      return {group(MultiKSessionGroup::kSideBelow, j), n_ - k, tag};
    case CycleSession::kSelect:
      break;
  }
  return {};
}

void MultiKCoordinator::start_cycle(CoordCtx& ctx) {
  cycle_down_ = pending_down_;
  cycle_up_ = pending_up_;
  std::fill(pending_down_.begin(), pending_down_.end(), char{0});
  std::fill(pending_up_.begin(), pending_up_.end(), char{0});
  cur_boundary_ = 0;
  advance_boundary(ctx);
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
  cycle_.open(ctx, mstats_, *this, cycle_down_[cur_boundary_] != 0,
              cycle_up_[cur_boundary_] != 0);
}

void MultiKCoordinator::decide_boundary(CoordCtx& ctx) {
  Boundary& b = boundaries_[cur_boundary_];
  b.tplus_w = std::min(b.tplus_w, *cycle_.min);
  b.tminus_w = std::max(b.tminus_w, *cycle_.max);
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
  Control sel;
  sel.op = static_cast<std::int64_t>(MultiKControlOp::kStartSelection);
  sel.a = static_cast<std::int64_t>(selection_target());
  ctx.control_broadcast(sel);
  cycle_.select(ctx, mstats_, *this);
}

void MultiKCoordinator::finish_selection(CoordCtx& ctx) {
  const auto& winners = cycle_.winners;
  const std::size_t m = boundaries_.size();
  band_.assign(n_, static_cast<std::uint8_t>(m));
  std::vector<Value> rank_w(winners.size());
  for (std::size_t r = 0; r < winners.size(); ++r) {
    rank_w[r] = to_w(winners[r].id, winners[r].value);
    std::uint8_t bd = 0;
    for (const auto& b : boundaries_) {
      if (b.k < r + 1) ++bd;
    }
    band_[winners[r].id] = bd;
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
  // A recovery's re-sync that waited for this cycle, or an escalation,
  // resets every boundary.
  if (cycle_.done() || pending_escalate_) {
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
  const bool structural = band_[id] < m || cycle_.holds_winner(id);
  if (band_[id] < m) {
    band_[id] = static_cast<std::uint8_t>(m);
    refresh_answer();
  }
  if (structural) {
    // The node sat above some boundary (or was an in-flight reset
    // winner): every boundary it anchored must be re-found.
    cycle_.abort();
    begin_full_reset(ctx);
  }
}

void MultiKCoordinator::on_node_up(CoordCtx& ctx, NodeId) {
  if (boundaries_.empty()) return;
  // The returning node's band is unknowable without fresh values; the
  // shared reset's announce order doubles as the re-sync assignment.
  if (cycle_.recover(mstats_)) begin_full_reset(ctx);
}

}  // namespace topkmon
