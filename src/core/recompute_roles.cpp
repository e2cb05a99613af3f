#include "core/recompute_roles.hpp"

#include <algorithm>
#include <stdexcept>

namespace topkmon {

// ---------------------------------------------------------------------------
// RecomputeNode
// ---------------------------------------------------------------------------

void RecomputeNode::on_init(NodeCtx& ctx, Value) {
  // Observations trigger nothing: the node acts only when convened.
  ctx.set_quiet_range(kMinusInf, kPlusInf);
}

void RecomputeNode::on_message(NodeCtx& ctx, const Message& m) {
  if (m.kind == MsgKind::kRoundBeacon) {
    sess_.handle_beacon(m);
  } else if (m.kind == MsgKind::kWinnerAnnounce) {
    // Announcements of an earlier selection (late under delay) do not
    // exclude the node from this one.
    const auto beacon = unpack_beacon_b(m.b);
    if (beacon.holder == ctx.id() && beacon.epoch >= sel_epoch_) {
      excluded_ = true;
    }
  }
}

void RecomputeNode::on_control(NodeCtx& ctx, const Control& c) {
  // The one control: a session of the running selection starts (a =
  // direction, b = iteration index, c = (epoch << 8) | log_n).
  if (c.op != kStartSessionOp) return;
  const SessionStart s = unpack_session_start(c);
  if (c.b == 0) {
    excluded_ = false;
    sel_epoch_ = s.epoch;
  }
  if (excluded_) {
    sess_.skip(ctx);
  } else {
    sess_.join(ctx, s);
  }
}

void RecomputeNode::on_recover(NodeCtx& ctx) {
  // The node missed every session convened during the outage; it joins
  // the next one as a fresh candidate.
  sess_.reset(ctx);
  excluded_ = false;
  ctx.set_quiet_range(kMinusInf, kPlusInf);
}

// ---------------------------------------------------------------------------
// RecomputeCoordinator
// ---------------------------------------------------------------------------

RecomputeCoordinator::RecomputeCoordinator(std::size_t k, Options opts)
    : k_(k) {
  if (k == 0) {
    throw std::invalid_argument("RecomputeCoordinator: k must be >= 1");
  }
  cycle_.session.suppress_idle = opts.suppress_idle_broadcasts;
}

void RecomputeCoordinator::on_init(CoordCtx& ctx) {
  n_ = ctx.n();
  if (k_ > n_) throw std::invalid_argument("RecomputeCoordinator: k > n");
  cycle_.select(ctx, mstats_, *this);
}

void RecomputeCoordinator::on_step_begin(CoordCtx& ctx, TimeStep) {
  // A selection still running (tick budget) finishes first.
  if (!cycle_.busy()) cycle_.select(ctx, mstats_, *this);
}

void RecomputeCoordinator::on_message(CoordCtx&, const Message& m) {
  if (m.kind == MsgKind::kValueReport) cycle_.session.fold(m);
}

void RecomputeCoordinator::on_timer(CoordCtx& ctx) {
  switch (cycle_.select_timer(ctx, mstats_, *this)) {
    case CycleEvent::kSelected:
      finish_selection();
      break;
    case CycleEvent::kSilent:
      // No report arrived: every candidate is down or excluded (fewer live
      // nodes than k), or loss swallowed the reports. The first keeps the
      // winners as the answer; the second the previous answer.
      if (cycle_.winners.size() >= ctx.live_count()) finish_selection();
      break;
    default:
      break;  // still running, or a repeat winner (its announcement was
              // lost) aborted it: the previous answer stands
  }
}

void RecomputeCoordinator::finish_selection() {
  topk_ids_.clear();
  for (const ViolationCycle::Winner& w : cycle_.winners) {
    topk_ids_.push_back(w.id);
  }
  std::sort(topk_ids_.begin(), topk_ids_.end());
  cycle_.done();
}

void RecomputeCoordinator::on_node_down(CoordCtx&, NodeId id) {
  // A crashed node leaves the answer (and a running selection's winners)
  // at once; later sessions run over the live nodes only, since a down
  // node receives no control.
  std::erase(topk_ids_, id);
  std::erase_if(cycle_.winners,
                [id](const ViolationCycle::Winner& w) { return w.id == id; });
}

void RecomputeCoordinator::on_set_k(CoordCtx& ctx, std::size_t k) {
  if (k == 0 || k > n_) {
    throw std::invalid_argument("RecomputeCoordinator: set_k out of range");
  }
  k_ = k;
  cycle_.abort();
  cycle_.select(ctx, mstats_, *this);
}

}  // namespace topkmon
