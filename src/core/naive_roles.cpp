#include "core/naive_roles.hpp"

#include <algorithm>
#include <stdexcept>

namespace topkmon {

namespace {

// Suspicion thresholds (see the filter monitor's for rationale): a plain
// naive node reports every step, so three unheard steps flag it; two
// missed probe deadlines escalate to quarantine.
constexpr TimeStep kNaiveSilenceSteps = 3;
constexpr std::uint32_t kNaiveSuspectAttempts = 2;

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
    suspects_.clear();
    quarantined_.assign(ctx.n(), 0);
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
      if (quarantined_[id] != 0 || !ctx.node_alive(id)) continue;
      if (last_heard_[id] + kNaiveSilenceSteps <= t) suspect_node(ctx, id);
    }
  } else if (n > 0) {
    // naive_chg: silence is legitimate, so audit — one round-robin probe
    // per step arms the deadline machinery for the audited node.
    for (std::size_t scanned = 0; scanned < n; ++scanned) {
      const NodeId id = audit_cursor_;
      audit_cursor_ = static_cast<NodeId>((audit_cursor_ + 1) % n);
      if (quarantined_[id] != 0 || !ctx.node_alive(id)) continue;
      const bool busy =
          std::any_of(suspects_.begin(), suspects_.end(),
                      [id](const Suspect& s) { return s.id == id; }) ||
          std::any_of(resync_.begin(), resync_.end(),
                      [id](const Resync& r) { return r.id == id; });
      if (busy) continue;
      ++mstats_.polls;
      suspects_.push_back(Suspect{id, 2 * ctx.flush_ticks() + 2, 0, false, 0,
                                  0, /*audit=*/true});
      send_probe(ctx, id);
      ctx.arm_timer();
      break;
    }
  }
  // Step-driven release probes of quarantined nodes (capped backoff): a
  // probed node replies unconditionally, and any report releases it.
  for (Suspect& s : suspects_) {
    if (!s.quarantined) continue;
    if (s.release_wait > 0) {
      --s.release_wait;
      continue;
    }
    s.release_wait = std::uint32_t{1} << std::min(++s.release_attempt, 6u);
    send_probe(ctx, s.id);
  }
}

void NaiveCoordinator::on_message(CoordCtx&, const Message& m) {
  if (m.kind != MsgKind::kValueReport) return;
  if (suspect_) note_report(m.from);
  known_values_[m.from] = m.a;
  if (reported_.size() == known_values_.size()) flush_reports();
  reported_.push_back(m.from);
  // Any report from a node with a pending re-sync completes it: the
  // replica entry is current again.
  if (!resync_.empty()) {
    std::erase_if(resync_, [&m](const Resync& r) { return r.id == m.from; });
  }
}

void NaiveCoordinator::on_timer(CoordCtx& ctx) {
  // Re-sync retry clock: resend timed-out probes with capped exponential
  // backoff, and keep ticking while any re-sync is pending.
  for (Resync& r : resync_) {
    if (r.countdown > 0) {
      --r.countdown;
      continue;
    }
    ++mstats_.resync_retries;
    r.countdown = (2 * ctx.flush_ticks() + 2)
                  << std::min<std::uint32_t>(++r.attempt, 6);
    Message probe;
    probe.kind = MsgKind::kProbe;
    ctx.unicast(r.id, probe);
  }
  if (!resync_.empty()) ctx.arm_timer();
  if (!suspect_ || suspects_.empty()) return;
  // Suspicion probe deadlines (quarantined entries are step-driven — a
  // tick-driven deadline for a mute node would never quiesce).
  bool ticking = false;
  for (Suspect& s : suspects_) {
    if (s.quarantined) continue;
    if (s.countdown > 0) {
      --s.countdown;
      ticking = true;
      continue;
    }
    if (s.audit) {
      // The audited node missed its deadline: that is the suspicion.
      s.audit = false;
      ++mstats_.suspicions;
    }
    if (++s.attempt >= kNaiveSuspectAttempts) {
      quarantine_node(s.id);
      continue;
    }
    s.countdown = (2 * ctx.flush_ticks() + 2) << std::min(s.attempt, 6u);
    send_probe(ctx, s.id);
    ticking = true;
  }
  if (ticking) ctx.arm_timer();
}

void NaiveCoordinator::on_step_end(CoordCtx&, TimeStep) { refresh_answer(); }

void NaiveCoordinator::on_node_down(CoordCtx&, NodeId id) {
  std::erase_if(resync_, [id](const Resync& r) { return r.id == id; });
  if (suspect_) {
    std::erase_if(suspects_, [id](const Suspect& s) { return s.id == id; });
    quarantined_[id] = 0;
  }
  flush_reports();
  known_values_[id] = kMinusInf;
  truth_->set_value(id, kMinusInf);
  refresh_answer();
}

void NaiveCoordinator::on_node_up(CoordCtx& ctx, NodeId id) {
  // Grace period for the returning node: the re-sync handshake below owns
  // its re-integration; silence detection restarts from here.
  if (suspect_) last_heard_[id] = cur_step_;
  for (const Resync& r : resync_) {
    if (r.id == id) return;  // defensive; cleared on down
  }
  ++mstats_.resyncs;
  resync_.push_back(Resync{id, 2 * ctx.flush_ticks() + 2, 0});
  Message probe;
  probe.kind = MsgKind::kProbe;
  ctx.unicast(id, probe);
  ctx.arm_timer();
}

void NaiveCoordinator::send_probe(CoordCtx& ctx, NodeId id) {
  Message probe;
  probe.kind = MsgKind::kProbe;
  ctx.unicast(id, probe);
}

void NaiveCoordinator::suspect_node(CoordCtx& ctx, NodeId id) {
  for (const Suspect& s : suspects_) {
    if (s.id == id) return;  // already suspected, audited or quarantined
  }
  ++mstats_.suspicions;
  suspects_.push_back(
      Suspect{id, 2 * ctx.flush_ticks() + 2, 0, false, 0, 0, false});
  send_probe(ctx, id);
  ctx.arm_timer();  // drive the probe deadline
}

void NaiveCoordinator::quarantine_node(NodeId id) {
  for (Suspect& s : suspects_) {
    if (s.id != id || s.quarantined) continue;
    s.quarantined = true;
    s.release_wait = 1;
    s.release_attempt = 0;
  }
  quarantined_[id] = 1;
  ++mstats_.quarantines;
  // The replica entry is the coordinator's only belief about the node;
  // distrusting it means dropping the node out of the answer until it
  // demonstrably answers again.
  flush_reports();
  known_values_[id] = kMinusInf;
  truth_->set_value(id, kMinusInf);
  refresh_answer();
}

void NaiveCoordinator::note_report(NodeId id) {
  last_heard_[id] = cur_step_;
  if (quarantined_[id] != 0) quarantined_[id] = 0;  // released: it answers
  std::erase_if(suspects_, [id](const Suspect& s) { return s.id == id; });
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
