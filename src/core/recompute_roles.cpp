#include "core/recompute_roles.hpp"

#include <algorithm>
#include <stdexcept>

namespace topkmon {

namespace {

/// The one control opcode: a session of the running selection starts
/// (a = direction, b = iteration index, c = (epoch << 8) | log_n).
constexpr std::int64_t kStartSession = 1;

}  // namespace

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
  if (c.op != kStartSession) return;
  const SessionStart s = unpack_session_start(c);
  if (c.b == 0) {
    excluded_ = false;
    sel_epoch_ = s.epoch;
  }
  if (excluded_) {
    sess_.skip();
  } else {
    sess_.join(ctx, s);
  }
}

void RecomputeNode::on_recover(NodeCtx& ctx) {
  // The node missed every session convened during the outage; it joins
  // the next one as a fresh candidate.
  sess_.reset();
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
  sess_.suppress_idle = opts.suppress_idle_broadcasts;
}

void RecomputeCoordinator::on_init(CoordCtx& ctx) {
  n_ = ctx.n();
  if (k_ > n_) throw std::invalid_argument("RecomputeCoordinator: k > n");
  begin_selection(ctx);
}

void RecomputeCoordinator::on_step_begin(CoordCtx& ctx, TimeStep) {
  // A selection still running (tick budget) finishes first.
  if (!selecting_) begin_selection(ctx);
}

void RecomputeCoordinator::on_message(CoordCtx&, const Message& m) {
  if (m.kind == MsgKind::kValueReport) sess_.fold(m);
}

void RecomputeCoordinator::on_timer(CoordCtx& ctx) {
  if (sess_.active) {
    if (sess_.advance(ctx)) conclude_session(ctx);
    return;
  }
  // Inter-iteration gap: the previous winner's announcement is in
  // flight; convening the next session before it lands would let the
  // winner re-join. Zero ticks under instant delivery.
  if (!pending_iteration_) return;
  if (gap_ > 0) {
    --gap_;
    ctx.arm_timer();
    return;
  }
  pending_iteration_ = false;
  start_iteration(ctx);
}

void RecomputeCoordinator::begin_selection(CoordCtx& ctx) {
  selecting_ = true;
  winners_.clear();
  iterations_ = 0;
  start_iteration(ctx);
}

void RecomputeCoordinator::start_iteration(CoordCtx& ctx) {
  ++mstats_.protocol_runs;
  sess_.begin(ctx, kStartSession, Direction::kMax,
              static_cast<std::int64_t>(iterations_++), n_);
}

void RecomputeCoordinator::conclude_session(CoordCtx& ctx) {
  sess_.announce(ctx);
  if (!sess_.have_best) {
    // No report arrived: every candidate is down or excluded (fewer live
    // nodes than k), or loss swallowed the reports.
    if (winners_.size() >= ctx.live_count()) {
      finish_selection();
    } else {
      abort_selection();
    }
    return;
  }
  if (std::find(winners_.begin(), winners_.end(), sess_.best_holder) !=
      winners_.end()) {
    // A repeat winner (its announcement was lost): the selection cannot
    // be repaired locally; keep the previous answer until the next step.
    abort_selection();
    return;
  }
  winners_.push_back(sess_.best_holder);
  if (winners_.size() == k_) {
    finish_selection();
    return;
  }
  gap_ = ctx.flush_ticks();
  if (gap_ == 0) {
    start_iteration(ctx);
  } else {
    pending_iteration_ = true;
    ctx.arm_timer();
  }
}

void RecomputeCoordinator::finish_selection() {
  topk_ids_ = winners_;
  std::sort(topk_ids_.begin(), topk_ids_.end());
  selecting_ = false;
}

void RecomputeCoordinator::abort_selection() {
  selecting_ = false;
  sess_.active = false;
  pending_iteration_ = false;
  gap_ = 0;
}

void RecomputeCoordinator::on_node_down(CoordCtx&, NodeId id) {
  // A crashed node leaves the answer (and a running selection's winners)
  // at once; later sessions run over the live nodes only, since a down
  // node receives no control.
  const auto drop = [id](std::vector<NodeId>& ids) {
    ids.erase(std::remove(ids.begin(), ids.end(), id), ids.end());
  };
  drop(topk_ids_);
  drop(winners_);
}

void RecomputeCoordinator::on_set_k(CoordCtx& ctx, std::size_t k) {
  if (k == 0 || k > n_) {
    throw std::invalid_argument("RecomputeCoordinator: set_k out of range");
  }
  k_ = k;
  abort_selection();
  begin_selection(ctx);
}

}  // namespace topkmon
