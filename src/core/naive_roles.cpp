#include "core/naive_roles.hpp"

#include <algorithm>
#include <stdexcept>

namespace topkmon {

namespace {

// Suspicion policy (see the filter monitor's for rationale): a plain
// naive node reports every step, so three unheard steps flag it. Release
// probes back off to at most 64 steps.
constexpr TimeStep kNaiveSilenceSteps = 3;
constexpr std::uint32_t kNaiveReleaseCap = 6;

}  // namespace

NaiveCoordinator::NaiveCoordinator(std::size_t k, bool send_on_change_only)
    : NaiveCoordinator(k, send_on_change_only, /*sharded=*/false) {}

NaiveCoordinator::NaiveCoordinator(std::size_t k, bool send_on_change_only,
                                   bool sharded, bool suspect)
    : k_(k),
      send_on_change_only_(send_on_change_only),
      sharded_(sharded),
      suspect_(suspect) {
  if (k == 0 && !sharded) {
    throw std::invalid_argument("NaiveCoordinator: k must be >= 1");
  }
}

void NaiveCoordinator::on_init(CoordCtx& ctx) {
  if (k_ > ctx.n()) {
    throw std::invalid_argument("NaiveCoordinator: k > n");
  }
  known_values_.assign(ctx.n(), 0);
  reported_.clear();
  reported_.reserve(ctx.n());
  if (suspect_) {
    guard_.init_suspicion(ctx.n());
    last_heard_.assign(ctx.n(), 0);
    audit_cursor_ = 0;
  }
  truth_.emplace(ctx.n(), std::max<std::size_t>(k_, 1));
  if (ctx.live_count() < ctx.n()) {
    // Nodes provisioned for a later join start down: keep them out of
    // the answer until their post-join report arrives.
    for (NodeId id = 0; id < ctx.n(); ++id) {
      if (ctx.node_alive(id)) continue;
      known_values_[id] = kMinusInf;
      truth_->set_value(id, kMinusInf);
    }
  }
}

void NaiveCoordinator::on_step_begin(CoordCtx& ctx, TimeStep t) {
  cur_step_ = t;
  if (!suspect_) return;
  const std::size_t n = known_values_.size();
  if (!send_on_change_only_) {
    // Plain naive: every live node reports every step, so silence IS the
    // anomaly — a node unheard for kNaiveSilenceSteps steps is suspected.
    for (NodeId id = 0; id < n; ++id) {
      if (guard_.is_quarantined(id) || !ctx.node_alive(id)) continue;
      if (last_heard_[id] + kNaiveSilenceSteps <= t) {
        guard_.suspect(ctx, mstats_, id);
      }
    }
  } else if (n > 0) {
    // naive_chg: silence is legitimate, so audit — one round-robin probe
    // per step, watched with the suspicion deadlines.
    for (std::size_t scanned = 0; scanned < n; ++scanned) {
      const NodeId id = audit_cursor_;
      audit_cursor_ = static_cast<NodeId>((audit_cursor_ + 1) % n);
      if (guard_.is_quarantined(id) || !ctx.node_alive(id)) continue;
      if (guard_.suspected(id) || guard_.resyncing(id)) continue;
      ++mstats_.polls;
      guard_.watch(ctx, id);
      break;
    }
  }
  // A probed node replies unconditionally, and any report releases it.
  guard_.tick_release_probes(ctx, kNaiveReleaseCap);
}

void NaiveCoordinator::on_mail(CoordCtx&, std::span<const Message> mail) {
  for (const Message& m : mail) {
    if (m.kind != MsgKind::kValueReport) continue;
    if (suspect_) {
      // Any report clears a suspicion and releases a quarantine: the node
      // demonstrably answers.
      last_heard_[m.from] = cur_step_;
      guard_.release(m.from);
    }
    known_values_[m.from] = m.a;
    if (reported_.size() == known_values_.size()) flush_reports();
    reported_.push_back(m.from);
    // Any report from a node with a pending re-sync completes it: the
    // replica entry is current again.
    guard_.complete(m.from);
  }
}

void NaiveCoordinator::on_timer(CoordCtx& ctx) {
  guard_.tick_resyncs(ctx, mstats_);
  guard_.tick_suspects(ctx, mstats_, [this](NodeId id) { drop_value(id); });
}

void NaiveCoordinator::on_step_end(CoordCtx&, TimeStep) { refresh_answer(); }

void NaiveCoordinator::on_node_down(CoordCtx&, NodeId id) {
  guard_.drop(id);
  drop_value(id);
}

void NaiveCoordinator::on_node_up(CoordCtx& ctx, NodeId id) {
  // Grace period for the returning node: the re-sync handshake below owns
  // its re-integration; silence detection restarts from here.
  if (suspect_) last_heard_[id] = cur_step_;
  guard_.begin_resync(ctx, mstats_, id);
}

void NaiveCoordinator::drop_value(NodeId id) {
  // The replica entry is the coordinator's only belief about the node; a
  // crash or a quarantine drops the node out of the answer until it
  // reports again.
  flush_reports();
  known_values_[id] = kMinusInf;
  truth_->set_value(id, kMinusInf);
  refresh_answer();
}

void NaiveCoordinator::flush_reports() {
  truth_->set_values(reported_, known_values_);
  reported_.clear();
}

void NaiveCoordinator::refresh_answer() {
  flush_reports();
  if (k_ == 0) {
    topk_ids_.clear();
    return;
  }
  topk_ids_ = truth_->topk_set();
}

void NaiveCoordinator::rekey(std::size_t k) {
  if (k > known_values_.size()) {
    throw std::invalid_argument("NaiveCoordinator::rekey: k > n");
  }
  k_ = k;
  // The tracker's k is fixed at construction; rebuild it from the whole
  // replica, pending reports included.
  reported_.clear();
  truth_.emplace(known_values_.size(), std::max<std::size_t>(k_, 1));
  for (NodeId id = 0; id < known_values_.size(); ++id) {
    truth_->set_value(id, known_values_[id]);
  }
  refresh_answer();
}

Value NaiveCoordinator::weakest_member_value() {
  flush_reports();
  return k_ == 0 ? kPlusInf : truth_->member_min_value();
}

Value NaiveCoordinator::strongest_outsider_value() {
  // At quota 0 the k' = 1 shadow tracker's single member IS the strongest
  // outsider (the shard maximum).
  flush_reports();
  if (k_ == 0) return truth_->member_min_value();
  return truth_->nonmember_max_value();
}

}  // namespace topkmon
