#include "core/slack_roles.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace topkmon {

namespace {

constexpr std::int64_t kBitsPerWord = 64;
constexpr std::int64_t kIdsPerControl = 128;

}  // namespace

// ---------------------------------------------------------------------------
// SlackNode
// ---------------------------------------------------------------------------

void SlackNode::on_init(NodeCtx& ctx, Value) {
  // [-inf, +inf] until the first boundary arrives: nothing to watch.
  ctx.set_quiet_range(filter_.lo, filter_.hi);
}

void SlackNode::rebuild_filter(NodeCtx& ctx) {
  if (!has_bound_) {
    filter_ = Filter{};
  } else {
    filter_ = member_ ? Filter{bound_, kPlusInf} : Filter{kMinusInf, bound_};
  }
  // The filter is on the raw value, so it is the node's quiet range.
  ctx.set_quiet_range(filter_.lo, filter_.hi);
}

void SlackNode::on_observe(NodeCtx& ctx, Value v, TimeStep) {
  if (filter_.contains(v)) {
    ctx.set_quiet_range(filter_.lo, filter_.hi);
    return;
  }
  // B&O-style: the violator reports its fresh value directly (one charged
  // upstream message), re-raised every violating step so a repair aborted
  // by message loss restarts.
  ctx.set_needs_observe(true);
  Message report;
  report.kind = MsgKind::kViolation;
  report.a = v;
  report.b = member_ ? -1 : +1;
  ctx.send(report);
  ctx.signal(member_ ? 1 : 0);
}

void SlackNode::on_message(NodeCtx& ctx, const Message& m) {
  switch (m.kind) {
    case MsgKind::kProtocolStart: {
      // A poll shout; payload a selects the addressed side.
      const auto side = static_cast<SlackPollSide>(m.a);
      const bool mine = side == SlackPollSide::kAll ||
                        (side == SlackPollSide::kTop && member_) ||
                        (side == SlackPollSide::kRest && !member_);
      if (!mine) break;
      Message reply;
      reply.kind = MsgKind::kValueReport;
      reply.a = ctx.value();
      ctx.send(reply);
      break;
    }
    case MsgKind::kFilterUpdate: {
      has_bound_ = true;
      bound_ = m.a;
      rebuild_filter(ctx);
      break;
    }
    case MsgKind::kFilterAssign: {
      // Crash-recovery re-anchor: explicit (membership, boundary).
      member_ = m.a != 0;
      has_bound_ = true;
      bound_ = m.b;
      rebuild_filter(ctx);
      break;
    }
    default:
      break;
  }
}

void SlackNode::on_control(NodeCtx& ctx, const Control& c) {
  if (static_cast<SlackControlOp>(c.op) != SlackControlOp::kMembership) return;
  const auto id = static_cast<std::int64_t>(ctx.id());
  if (id / kIdsPerControl != c.a) return;  // another word's window
  const std::int64_t local = id % kIdsPerControl;
  const std::uint64_t word = static_cast<std::uint64_t>(
      local < kBitsPerWord ? c.b : c.c);
  const std::int64_t bit = local % kBitsPerWord;
  member_ = ((word >> bit) & 1) != 0;
  // The boundary broadcast of the same reset may have landed just before
  // this control (messages precede controls within a node phase): rebuild
  // the filter so both orderings converge within the tick.
  rebuild_filter(ctx);
}

void SlackNode::on_recover(NodeCtx& ctx) {
  // member_/bound_ survive but may predate renegotiations during the
  // outage: stay in the observe set until the re-anchor assignment lands.
  ctx.set_needs_observe(true);
}

// ---------------------------------------------------------------------------
// SlackCoordinator
// ---------------------------------------------------------------------------

SlackCoordinator::SlackCoordinator(std::size_t k, Options opts)
    : k_(k), opts_(opts) {
  if (k == 0) throw std::invalid_argument("SlackCoordinator: k must be >= 1");
  if (!(opts.alpha > 0.0 && opts.alpha < 1.0)) {
    throw std::invalid_argument("SlackCoordinator: alpha must be in (0, 1)");
  }
}

void SlackCoordinator::on_init(CoordCtx& ctx) {
  n_ = ctx.n();
  if (k_ > n_) throw std::invalid_argument("SlackCoordinator: k > n");
  in_topk_.assign(n_, 0);
  degenerate_ = (k_ == n_);
  if (degenerate_) {
    std::fill(in_topk_.begin(), in_topk_.end(), char{1});
    rebuild_id_lists();
    established_ = true;
    return;
  }
  begin_reset(ctx);
}

void SlackCoordinator::on_step_begin(CoordCtx& ctx, TimeStep) {
  if (degenerate_) return;
  const auto& signals = ctx.signals();
  bool top = false;
  bool bot = false;
  if (!signals.empty()) {
    ++mstats_.violation_steps;
    mstats_.violations += signals.size();
    for (const Signal& s : signals) {
      if (s.code == 1) {
        ++top_violations_;
        top = true;
      } else {
        ++bot_violations_;
        bot = true;
      }
    }
  }
  if (phase_ != Phase::kIdle || collect_) return;
  if (!established_) {
    // The answer was never installed (the reset poll lost too many
    // replies, or a member crashed): no filter can convene repair, so
    // defensively re-run the reset poll.
    ++mstats_.full_rebuilds;
    begin_reset(ctx);
    return;
  }
  if (!top && !bot) return;
  // This step's violation mix fixes the handler's poll side; the
  // violators' fresh values arrive as kViolation mail before the first
  // timer firing of this tick.
  collect_ = true;
  has_top_ = top;
  has_bot_ = bot;
  viol_min_ = kPlusInf;
  viol_max_ = kMinusInf;
  ctx.arm_timer();
}

void SlackCoordinator::on_message(CoordCtx&, const Message& m) {
  switch (m.kind) {
    case MsgKind::kViolation: {
      if (m.b < 0) {
        viol_min_ = std::min(viol_min_, m.a);
      } else {
        viol_max_ = std::max(viol_max_, m.a);
      }
      break;
    }
    case MsgKind::kValueReport: {
      if (phase_ == Phase::kPollSide) {
        poll_best_ = side_ == SlackPollSide::kRest
                         ? std::max(poll_best_, m.a)
                         : std::min(poll_best_, m.a);
      } else if (phase_ == Phase::kPollAll) {
        reset_reports_.emplace_back(m.a, m.from);
      }
      break;
    }
    default:
      break;
  }
}

void SlackCoordinator::on_timer(CoordCtx& ctx) {
  if (collect_) {
    // All of this step's violation reports are in (instant: same tick;
    // delayed: the poll window below absorbs the lag). Resolve by polling
    // the side whose extremum the violations did not deliver.
    collect_ = false;
    ++mstats_.handler_calls;
    start_poll(ctx, has_bot_ ? SlackPollSide::kTop : SlackPollSide::kRest);
    return;
  }
  if (phase_ == Phase::kIdle) return;
  if (wait_ > 0) {
    --wait_;
    ctx.arm_timer();
    return;
  }
  if (phase_ == Phase::kPollSide) {
    conclude_side_poll(ctx);
  } else {
    conclude_reset_poll(ctx);
  }
}

void SlackCoordinator::start_poll(CoordCtx& ctx, SlackPollSide side) {
  side_ = side;
  Message shout;
  shout.kind = MsgKind::kProtocolStart;
  shout.a = static_cast<std::int64_t>(side);
  ctx.broadcast(shout);
  switch (side) {
    case SlackPollSide::kRest:
      mstats_.polls += live_side_size(ctx, rest_list_);
      poll_best_ = kMinusInf;
      phase_ = Phase::kPollSide;
      break;
    case SlackPollSide::kTop:
      mstats_.polls += live_side_size(ctx, topk_list_);
      poll_best_ = kPlusInf;
      phase_ = Phase::kPollSide;
      break;
    case SlackPollSide::kAll:
      mstats_.polls += ctx.live_count();
      reset_reports_.clear();
      phase_ = Phase::kPollAll;
      break;
  }
  // Shout + replies: one network round trip, zero extra ticks on instant.
  wait_ = 2 * ctx.flush_ticks();
  ctx.arm_timer();
}

void SlackCoordinator::conclude_side_poll(CoordCtx& ctx) {
  phase_ = Phase::kIdle;
  std::optional<Value> min_v;
  std::optional<Value> max_v;
  if (has_top_) min_v = viol_min_;
  if (has_bot_) max_v = viol_max_;
  // The full-side poll result replaces the violators-only extremum on the
  // polled side (a side poll covers its violators too).
  if (side_ == SlackPollSide::kRest) {
    max_v = poll_best_;
  } else {
    min_v = poll_best_;
  }
  tplus_ = std::min(tplus_, *min_v);
  tminus_ = std::max(tminus_, *max_v);
  if (tplus_ < tminus_) {
    begin_reset(ctx);
  } else {
    ++mstats_.midpoint_updates;
    apply_boundary(ctx, choose_boundary());
  }
}

void SlackCoordinator::begin_reset(CoordCtx& ctx) {
  ++mstats_.filter_resets;
  established_ = false;
  start_poll(ctx, SlackPollSide::kAll);
}

void SlackCoordinator::conclude_reset_poll(CoordCtx& ctx) {
  phase_ = Phase::kIdle;
  auto& order = reset_reports_;
  if (order.size() <= k_) {
    // Message loss or churn ate the quorum: abandon — the defensive
    // rebuild in on_step_begin retries until an answer installs.
    return;
  }
  std::sort(order.begin(), order.end(), [](const auto& x, const auto& y) {
    if (x.first != y.first) return x.first > y.first;
    return x.second < y.second;
  });
  std::fill(in_topk_.begin(), in_topk_.end(), char{0});
  for (std::size_t i = 0; i < k_; ++i) in_topk_[order[i].second] = 1;
  rebuild_id_lists();
  tplus_ = order[k_ - 1].first;
  tminus_ = order[k_].first;
  top_violations_ = 0;
  bot_violations_ = 0;
  established_ = true;
  broadcast_membership(ctx);
  apply_boundary(ctx, choose_boundary());
}

double SlackCoordinator::effective_alpha() const noexcept {
  if (!opts_.adaptive) return opts_.alpha;
  // Give more head-room to the side violating more often: frequent
  // outsider (rising) violations push the boundary up, and vice versa.
  const double bot = static_cast<double>(bot_violations_) + 1.0;
  const double top = static_cast<double>(top_violations_) + 1.0;
  return bot / (bot + top);
}

Value SlackCoordinator::choose_boundary() const {
  const double a = effective_alpha();
  const auto gap = static_cast<double>(tplus_ - tminus_);
  Value b = tminus_ + static_cast<Value>(std::floor(a * gap));
  b = std::clamp(b, tminus_, tplus_);
  return b + opts_.debug_boundary_nudge;
}

void SlackCoordinator::apply_boundary(CoordCtx& ctx, Value b) {
  bound_ = b;
  Message update;
  update.kind = MsgKind::kFilterUpdate;
  update.a = b;
  ctx.broadcast(update);
}

void SlackCoordinator::broadcast_membership(CoordCtx& ctx) {
  // Membership changes only at a reset; it is common knowledge in the
  // lock-step model, so distribute it over the uncharged control plane.
  const std::size_t words =
      (n_ + static_cast<std::size_t>(kIdsPerControl) - 1) /
      static_cast<std::size_t>(kIdsPerControl);
  for (std::size_t w = 0; w < words; ++w) {
    Control c;
    c.op = static_cast<std::int64_t>(SlackControlOp::kMembership);
    c.a = static_cast<std::int64_t>(w);
    std::uint64_t lo = 0;
    std::uint64_t hi = 0;
    const std::size_t base = w * static_cast<std::size_t>(kIdsPerControl);
    for (std::size_t i = 0; i < static_cast<std::size_t>(kIdsPerControl); ++i) {
      const std::size_t id = base + i;
      if (id >= n_ || in_topk_[id] == 0) continue;
      if (i < static_cast<std::size_t>(kBitsPerWord)) {
        lo |= std::uint64_t{1} << i;
      } else {
        hi |= std::uint64_t{1}
              << (i - static_cast<std::size_t>(kBitsPerWord));
      }
    }
    c.b = static_cast<std::int64_t>(lo);
    c.c = static_cast<std::int64_t>(hi);
    ctx.control_broadcast(c);
  }
}

void SlackCoordinator::rebuild_id_lists() {
  topk_ids_.clear();
  topk_list_.clear();
  rest_list_.clear();
  for (NodeId id = 0; id < in_topk_.size(); ++id) {
    if (in_topk_[id]) {
      topk_ids_.push_back(id);
      topk_list_.push_back(id);
    } else {
      rest_list_.push_back(id);
    }
  }
}

std::size_t SlackCoordinator::live_side_size(
    CoordCtx& ctx, const std::vector<NodeId>& side) const {
  std::size_t out = 0;
  for (const NodeId id : side) out += ctx.node_alive(id) ? 1 : 0;
  return out;
}

// ---------------------------------------------------------------------------
// Fault hooks
// ---------------------------------------------------------------------------

void SlackCoordinator::on_node_down(CoordCtx& ctx, NodeId id) {
  if (degenerate_) return;
  const bool structural = in_topk_[id] != 0;
  if (structural) {
    in_topk_[id] = 0;
    rebuild_id_lists();
    // A member took the k-th position with it: abandon any in-flight
    // repair and re-find the answer over the remaining live nodes.
    phase_ = Phase::kIdle;
    collect_ = false;
    begin_reset(ctx);
  }
}

void SlackCoordinator::on_node_up(CoordCtx& ctx, NodeId id) {
  if (degenerate_) return;
  // Re-admit as an outsider anchored on the current boundary. The slack
  // monitor never needs the returning value up front: the re-anchor's
  // contains check primes the node's own violation report, which convenes
  // repair exactly like any signalled violation.
  ++mstats_.resyncs;
  Message assign;
  assign.kind = MsgKind::kFilterAssign;
  assign.a = in_topk_[id];
  assign.b = bound_;
  ctx.unicast(id, assign);
}

void SlackCoordinator::on_set_k(CoordCtx& ctx, std::size_t k) {
  if (k == k_) return;
  k_ = k;
  phase_ = Phase::kIdle;
  collect_ = false;
  if (k_ == n_) {
    // Degenerate growth: everyone is the answer forever; unbounded member
    // filters stop all future violations.
    degenerate_ = true;
    std::fill(in_topk_.begin(), in_topk_.end(), char{1});
    rebuild_id_lists();
    established_ = true;
    broadcast_membership(ctx);
    apply_boundary(ctx, kMinusInf);
    return;
  }
  degenerate_ = false;
  begin_reset(ctx);
}

}  // namespace topkmon
