// Role-separated implementation of the naive baseline of §2.1: every
// node forwards its observations to the coordinator, which computes the
// top-k from its value replica. Identical to the frozen records of the
// lock-step implementation it replaced under the instant NetworkSpec
// (asserted by the role-equivalence tests);
// under delay/drop policies the replica goes stale and the validation
// layer records the resulting error steps — the natural "how robust is
// brute force?" baseline for the latency/loss experiment suites.
#pragma once

#include <optional>
#include <vector>

#include "core/ground_truth_tracker.hpp"
#include "core/roles.hpp"

namespace topkmon {

class NaiveNode final : public NodeAlgo {
 public:
  explicit NaiveNode(bool send_on_change_only)
      : send_on_change_only_(send_on_change_only) {}

  void on_init(NodeCtx& ctx, Value v0) override {
    // Change-only reporting makes on_observe a no-op on an unchanged
    // value (last_sent_ always equals the last observed value), so the
    // node can leave the sparse driver's needs-observe set; the plain
    // naive baseline sends every step and must stay in it.
    if (send_on_change_only_) ctx.set_needs_observe(false);
    report(ctx, v0);
  }
  void on_observe(NodeCtx& ctx, Value v, TimeStep) override {
    report(ctx, v);
    // A recovery puts the node back in the needs-observe set until its
    // first report lands in last_sent_; after that an unchanged value is
    // a no-op again (idempotent bit write, free on the steady path).
    if (send_on_change_only_) ctx.set_needs_observe(false);
  }

  void on_message(NodeCtx& ctx, const Message& m) override {
    // Crash-recovery re-sync: answer the coordinator's probe with the
    // current value, unconditionally — the coordinator's replica holds
    // -inf for this node, so "unchanged since last_sent_" is irrelevant.
    if (m.kind != MsgKind::kProbe) return;
    Message reply;
    reply.kind = MsgKind::kValueReport;
    reply.a = ctx.value();
    ctx.send(reply);
    last_sent_ = ctx.value();
  }

  void on_recover(NodeCtx& ctx) override {
    // The coordinator zeroed this node out of its replica; whatever was
    // last sent no longer matches it. Report on the next observation
    // even if the value is unchanged (and re-enter the observe set so
    // that observation actually happens).
    last_sent_.reset();
    ctx.set_needs_observe(true);
  }

 private:
  void report(NodeCtx& ctx, Value v) {
    if (send_on_change_only_ && last_sent_ == v) return;
    Message m;
    m.kind = MsgKind::kValueReport;
    m.a = v;
    ctx.send(m);
    last_sent_ = v;
  }

  bool send_on_change_only_;
  std::optional<Value> last_sent_;
};

class NaiveCoordinator final : public CoordinatorAlgo {
 public:
  NaiveCoordinator(std::size_t k, bool send_on_change_only);
  /// Sharded-deployment ctor (core/shard_coordinator.hpp): lifts the
  /// k >= 1 requirement so a shard's quota can be renegotiated to 0.
  /// `suspect` enables the adversarial-degradation suspicion machinery
  /// (see sim/fault_plan.hpp lag/stale/mute):
  ///  * plain naive — every live node reports every step, so silence IS
  ///    the anomaly: a node unheard for kNaiveSilenceSteps observation
  ///    steps is suspected (MonitorStats::suspicions) and probed with
  ///    capped-backoff deadlines; exhausted deadlines quarantine it
  ///    (MonitorStats::quarantines) — its replica entry drops to -inf so
  ///    the distrusted value leaves the answer;
  ///  * naive_chg — silence is legitimate, so the coordinator audits:
  ///    one round-robin probe per step (MonitorStats::polls) arms the
  ///    same deadline machinery for the audited node.
  /// Quarantined nodes get step-driven capped-backoff release probes;
  /// any report from the node releases the quarantine (it demonstrably
  /// answers again — a laggard oscillates, a healed node stays). Stale
  /// responders are undetectable for the naive family: nodes raise no
  /// violation signals, so there is no truth to contradict a frozen
  /// report (stale_detections stays 0 by design; see the filter
  /// monitor's contradiction detector). Off by default: no trace
  /// changes until enabled.
  NaiveCoordinator(std::size_t k, bool send_on_change_only, bool sharded,
                   bool suspect = false);

  std::string_view name() const override {
    return send_on_change_only_ ? "naive_on_change" : "naive";
  }
  void on_init(CoordCtx& ctx) override;
  void on_step_begin(CoordCtx& ctx, TimeStep t) override;
  void on_message(CoordCtx& ctx, const Message& m) override;
  void on_timer(CoordCtx& ctx) override;
  void on_step_end(CoordCtx& ctx, TimeStep t) override;
  const std::vector<NodeId>& topk() const override { return topk_ids_; }

  // -- fault hooks (sim/fault_plan.hpp) -------------------------------------
  // Crash: the replica entry drops to -inf, so the node falls out of the
  // answer at once. Recovery: the coordinator probes for the current
  // value (the change-only variant would otherwise stay silent until the
  // value happens to move); any report from the node completes the
  // re-sync, and lost probes are resent with capped exponential backoff.
  void on_node_down(CoordCtx& ctx, NodeId id) override;
  void on_node_up(CoordCtx& ctx, NodeId id) override;
  /// Dynamic k: a coordinator-local recompute over the replica (rekey).
  void on_set_k(CoordCtx& ctx, std::size_t k) override { (void)ctx; rekey(k); }

  // -- sharded-deployment hooks ---------------------------------------------
  // The replica already holds every node's last report, so a quota change
  // is a coordinator-local recompute: no node traffic, unlike the filter
  // monitor's rebuild. Valid after on_init.

  /// Changes the quota to `k` (0 <= k <= n) and recomputes the answer.
  void rekey(std::size_t k);
  /// U_s: the weakest member's value per the replica; +inf when k == 0.
  Value weakest_member_value();
  /// L_s: the strongest outsider's value per the replica; -inf when
  /// k == n.
  Value strongest_outsider_value();

 private:
  void refresh_answer();
  /// Applies the replica entries named in reported_ to truth_ in one
  /// set_values batch. Runs before every read or direct write of truth_.
  void flush_reports();
  // -- suspicion machinery (active only with suspect_) ----------------------
  void send_probe(CoordCtx& ctx, NodeId id);
  void suspect_node(CoordCtx& ctx, NodeId id);
  void quarantine_node(NodeId id);
  /// Any report from `id`: refresh the heard stamp, clear pending
  /// suspicion, release an active quarantine.
  void note_report(NodeId id);

  std::size_t k_;
  bool send_on_change_only_;
  bool sharded_ = false;
  bool suspect_ = false;

  // Pending crash-recovery re-syncs, in recovery order (see filter_roles
  // for the same pattern with a handshake reply).
  struct Resync {
    NodeId id;
    std::uint64_t countdown;
    std::uint32_t attempt;
  };
  std::vector<Resync> resync_;

  // Suspicion / quarantine state (allocated only with suspect_).
  struct Suspect {
    NodeId id;
    std::uint64_t countdown;  ///< ticks until the probe is declared lost
    std::uint32_t attempt;    ///< probe deadlines missed so far
    bool quarantined;
    std::uint32_t release_wait;     ///< steps until the next release probe
    std::uint32_t release_attempt;  ///< failed release probes (caps backoff)
    /// naive_chg audit probe: not yet a suspicion — the first missed
    /// deadline converts it into one (MonitorStats::suspicions).
    bool audit;
  };
  std::vector<Suspect> suspects_;
  std::vector<char> quarantined_;
  std::vector<TimeStep> last_heard_;  ///< step of the last report per node
  NodeId audit_cursor_ = 0;           ///< naive_chg round-robin audit probe
  TimeStep cur_step_ = 0;

  std::vector<Value> known_values_;  ///< coordinator's replica
  /// Ids whose replica entry was reported since the last flush_reports
  /// (repeats allowed; capacity n, flushed early when full).
  std::vector<NodeId> reported_;
  std::vector<NodeId> topk_ids_;
  /// Incremental top-k over the replica: O(received reports) per step
  /// instead of a fresh partial sort (identical answers by construction).
  /// Tracks max(k, 1) ids — at quota 0 its single "member" is the shard
  /// maximum, which the sharded hooks report as the strongest outsider.
  std::optional<GroundTruthTracker> truth_;
};

}  // namespace topkmon
