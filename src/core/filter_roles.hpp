// Role-separated implementation of the paper's Algorithm 1 (the
// randomized filter-based Top-k-Position monitor) with Algorithm 2 (the
// randomized extremum protocol) embedded as event-driven sessions.
//
// The algorithm runs in the coordinator/node split of core/roles.hpp, so
// it runs on *any* NetworkSpec: under the instant policy it is
// message-for-message and coin-flip-for-coin-flip identical to the frozen
// records of the synchronous implementation it replaced (asserted by
// tests/core/test_role_equivalence.cpp); under delay, jitter,
// drop or tick-budget policies it degrades gracefully — stale beacons
// weaken round pruning (more reports), lost filter updates or winner
// announcements desynchronize node state until the next violation repairs
// it, and the validation layer records the resulting error steps.
//
// Division of state, mirroring a real deployment:
//  * FilterNode owns the node's filter interval, its top-k membership
//    belief, and its per-session protocol state (a NodeProtoSession of
//    core/role_session.hpp). All of it is updated exclusively from local
//    observations and received (control) broadcasts.
//  * FilterCoordinator drives the violation cycle (violation sessions ->
//    missing-side session -> midpoint/reset) on a ViolationCycle of
//    core/role_session.hpp and owns what is the filter's own: the
//    midpoint rule with its sharded pin and ε slack, the T+/T-
//    accumulators, the answer set a reset installs. Its recovery — the
//    crash re-sync table and the ?suspect suspicion table — runs on a
//    RecoveryGuard; the policy the guard runs (re-admission, useful
//    reports, stale contradiction, removal on quarantine) stays here.
//
// The uncharged control plane carries exactly the synchronization the
// lock-step model grants for free: "your side's protocol execution starts
// now, epoch e, bound log N" and "a reset selection for k begins".
// Everything that the paper charges — reports, beacons, winner
// announcements, filter updates, protocol-start broadcasts — flows
// through the Network.
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <vector>

#include "core/filter.hpp"
#include "core/role_session.hpp"
#include "core/roles.hpp"

namespace topkmon {

/// Control opcodes of the filter monitor's control plane.
enum class FilterControlOp : std::int64_t {
  /// a = direction (0 = max, 1 = min), b = participant group
  /// (FilterSessionGroup), c = (epoch << 8) | log_n.
  kStartSession = kStartSessionOp,
  /// A FILTERRESET selection begins: clear membership/exclusion state.
  /// a = the coordinator's current k — each node derives membership from
  /// the announce order (the first k winners are the members), so a
  /// dynamic-k reset re-keys the nodes with it.
  kStartSelection = 2,
};

/// Who participates in a protocol session (each node decides locally).
enum class FilterSessionGroup : std::int64_t {
  kViolTop = 0,    ///< nodes holding an unconsumed top-side violation
  kViolBot = 1,    ///< nodes holding an unconsumed bottom-side violation
  kAllTop = 2,     ///< nodes believing they are top-k members
  kAllBot = 3,     ///< nodes believing they are outsiders
  kSelectRest = 4, ///< selection participants not yet announced as winners
};

/// Node-side half of Algorithm 1. With a non-zero epsilon the node runs
/// the ε-approximate variant ("approx?eps="): every boundary it
/// installs is widened by ε/2 on its own side, so values within ε/2 of
/// the boundary never violate. ε is a deployment constant — every node
/// and the coordinator are configured with the same value.
class FilterNode final : public NodeAlgo {
 public:
  explicit FilterNode(Value epsilon = 0) : half_(epsilon / 2) {}

  void on_init(NodeCtx& ctx, Value v0) override;
  void on_observe(NodeCtx& ctx, Value v, TimeStep t) override;
  void on_message(NodeCtx& ctx, const Message& m) override;
  void on_control(NodeCtx& ctx, const Control& c) override;
  void on_timer(NodeCtx& ctx) override;
  void on_recover(NodeCtx& ctx) override;

  // -- introspection for tests ---------------------------------------------
  const Filter& filter() const noexcept { return filter_; }
  bool member() const noexcept { return member_; }

 private:
  /// Filter for boundary m under the node's membership belief: members
  /// watch [m - ε/2, +inf], outsiders (-inf, m + ε/2] (ε = 0 exact).
  Filter boundary_filter(Value m, bool member) const noexcept {
    return member ? Filter{m - half_, kPlusInf} : Filter{kMinusInf, m + half_};
  }

  Value half_;  ///< ε/2 (0 in the exact deployment)
  std::size_t k_ = 0;  ///< k of the latest selection (kStartSelection)

  // Persistent node state (what a deployed node stores).
  Filter filter_{};       ///< [-inf, +inf] until the first boundary arrives
  bool member_ = false;   ///< top-k membership belief

  // Violation pending consumption by the next matching session.
  enum class Pending : std::uint8_t { kNone, kTop, kBot };
  Pending pending_ = Pending::kNone;

  // Reset-selection bookkeeping.
  bool selecting_ = false;
  bool excluded_ = false;
  std::uint32_t announces_seen_ = 0;

  NodeProtoSession session_;  ///< the current protocol session
};

/// Coordinator-side half of Algorithm 1.
class FilterCoordinator final : public CoordinatorAlgo {
 public:
  struct Options {
    /// Forwarded to every protocol session (beacon-suppression ablation).
    bool suppress_idle_broadcasts = false;
    /// Sharded-deployment mode (core/shard_coordinator.hpp). When set, the
    /// coordinator runs one shard of a hierarchical deployment: whenever
    /// the accumulated [T-, T+] gap contains the root's shared boundary
    /// (*pinned_boundary, once engaged), the coordinator anchors the node
    /// filters on it instead of halving the gap — Algorithm 1 admits any
    /// boundary inside the gap — so "boundary() != pin" becomes the exact
    /// shard-crossed-the-root-filter predicate. Sharded mode also lifts
    /// the k >= 1 requirement (a shard's quota may be renegotiated to 0)
    /// and runs the full machinery at k == n (a full shard must still
    /// watch its minimum against the root boundary). The pointee may be
    /// updated between steps; nullptr selects the monolithic behaviour,
    /// which is message-for-message identical to pre-sharding builds.
    const std::optional<Value>* pinned_boundary = nullptr;
    /// Exponential backoff for the defensive full rebuild in
    /// on_step_begin. Without it, a FILTERRESET that keeps aborting under
    /// heavy loss (drop > 0.5) is re-attempted every observation step —
    /// each attempt a full k+1-selection's worth of traffic. With backoff
    /// the retry waits 0, 1, 3, 7, ... steps (capped at 63) plus a small
    /// deterministic jitter drawn from the coordinator's seeded RNG, and
    /// the wait resets once an answer is established. Off by default:
    /// enabling it changes message traces, so lossy fingerprints (e15)
    /// only match historical ones with the flag off.
    bool reset_backoff = false;
    /// Suspicion state machine for adversarially degraded nodes
    /// (sim/fault_plan.hpp lag/stale/mute). The coordinator gets no
    /// failure-detector event for a degradation — it must *infer* it:
    ///  * silence — a node that signals a violation but whose charged
    ///    reports never arrive (mute, or lagging beyond the session
    ///    window) accumulates silence strikes; at kSilenceStrikes the
    ///    coordinator suspects it (MonitorStats::suspicions) and probes
    ///    with a tick-driven deadline and capped-backoff resends;
    ///  * contradiction — a node whose fresh signal says its true value
    ///    crossed the boundary while its reports keep landing on the
    ///    other side (stale) accumulates strikes; at kStaleStrikes it is
    ///    quarantined directly (MonitorStats::stale_detections).
    /// A suspect that misses RecoveryGuard::kProbeAttempts probe
    /// deadlines is *quarantined* (MonitorStats::quarantines): its
    /// signals and session reports are ignored, it is removed from the
    /// answer (a structural removal aborts the cycle and re-runs the
    /// selection — the defensive boundary widen), and selection_target()
    /// shrinks so resets stop waiting for it. Quarantined nodes are
    /// re-probed with step-driven backoff capped at 16 steps forever; a
    /// probe reply releases the quarantine and re-admits the node through
    /// the re-sync path, so a healed node converges back to the exact
    /// answer. The tables and their drivers are RecoveryGuard's (see
    /// core/role_session.hpp); the policy above is this monitor's. Off
    /// by default: the machinery changes no trace until enabled AND a
    /// node actually degrades. Tuned for instant/delayed networks; under
    /// heavy drop the strike thresholds absorb most — not all — false
    /// positives.
    bool suspect = false;
    /// Warm-standby recovery: when a node recovers (or joins) while the
    /// answer is established and no cycle is in flight, replay the
    /// coordinator's collapsed assignment log — the node's membership
    /// and the current boundary — as one kFilterAssign instead of the
    /// probe/reply/assign handshake (MonitorStats::assign_replays).
    /// Cuts the re-sync probe storm on join-heavy churn plans; falls
    /// back to the handshake whenever the answer is not established or
    /// a cycle is running. Off by default (changes e19 traces).
    bool replay = false;
    /// ε-approximate mode ("approx?eps="): the answer only has
    /// to be correct for value vectors perturbed by at most ε/2 per node.
    /// The coordinator tolerates a T+/T- inversion up to 2·⌊ε/2⌋ before
    /// resetting, stamps ε into every kFilterUpdate (payload b), and
    /// classifies re-sync replies against the ε/2-widened outsider
    /// filter. The paired FilterNode must be constructed with the same ε.
    /// With approx set, name() reports "approx_topk"; ε = 0 is the exact
    /// special case and produces byte-identical traces to topk_filter.
    bool approx = false;
    Value epsilon = 0;
    /// Sharded set-up ranking depth (with pinned_boundary). Until the
    /// next observation step or fault event, a FILTERRESET selection
    /// ranks max(k, rank_quota) + 1 winners instead of k + 1, so that
    /// requota() answers quota moves up to rank_quota from the ranking.
    /// 0 ranks k + 1, the paper's FILTERRESET.
    std::size_t rank_quota = 0;
  };

  explicit FilterCoordinator(std::size_t k) : FilterCoordinator(k, {}) {}
  FilterCoordinator(std::size_t k, Options opts);

  std::string_view name() const override {
    return opts_.approx ? "approx_topk" : "topk_filter";
  }
  void on_init(CoordCtx& ctx) override;
  void on_step_begin(CoordCtx& ctx, TimeStep t) override;
  void on_message(CoordCtx& ctx, const Message& m) override;
  void on_timer(CoordCtx& ctx) override;
  const std::vector<NodeId>& topk() const override { return topk_ids_; }

  // -- fault hooks (sim/fault_plan.hpp) -------------------------------------
  // Crash: the node is dropped from the answer; if it was a member (or a
  // selection winner of an in-flight FILTERRESET) the k-th position must
  // be re-found, so the cycle aborts and a fresh selection runs over the
  // remaining live nodes. Recovery: a re-sync handshake — the coordinator
  // probes the node (kProbe), the node replies with its current value
  // (kValueReport, b = 1), and the coordinator re-admits it as an
  // outsider anchored on the established boundary (kFilterAssign),
  // treating a boundary-violating reply as a fresh bottom-side violation.
  // Probes lost to the network are resent from the coordinator timer with
  // capped exponential backoff (MonitorStats::resync_retries).
  void on_node_down(CoordCtx& ctx, NodeId id) override;
  void on_node_up(CoordCtx& ctx, NodeId id) override;
  /// Dynamic k: warm renegotiation — membership is recomputed by one
  /// FILTERRESET selection at the new k over current values; node
  /// machine state and the T+/T- accumulation epoch restart, nothing
  /// else is torn down.
  void on_set_k(CoordCtx& ctx, std::size_t k) override;

  /// Sharded-deployment hook: re-anchors the node filters on the current
  /// pinned boundary (Options::pinned_boundary) when it moved since the
  /// last cycle. Adopts the pin in place (one kFilterUpdate broadcast)
  /// when the accumulated gap contains it; otherwise falls back to a full
  /// FILTERRESET. No-op while a cycle is in flight, when unpinned, or when
  /// the boundary already equals the pin. The caller must pump the driver
  /// afterwards to flush the injected traffic.
  void reanchor(CoordCtx& ctx);

  /// Sharded-deployment hook: true when the latest selection's ranking
  /// still holds (no observation step, fault event or session since it
  /// concluded) and answers a quota of k (requota).
  bool ranks(std::size_t k) const noexcept {
    return cycle_.ranks(k, rankable());
  }

  /// Sharded quota move answered from the ranking, with no selection:
  /// installs the top k ranks as the answer, restarts T+/T- at the k-th
  /// and (k+1)-st ranked values, and unicasts one kFilterAssign
  /// (membership, new boundary) to each node whose membership flipped.
  /// The other nodes keep the old boundary until the next reanchor,
  /// which then broadcasts even when the pin equals boundary(). Returns
  /// false, changing nothing, unless ranks(k). Call it between the
  /// shard's step and the next value write (the root tier's
  /// renegotiation), then pump the driver.
  bool requota(CoordCtx& ctx, std::size_t k);

  // -- introspection for tests ---------------------------------------------
  Value boundary() const noexcept { return mid_; }
  Value t_plus() const noexcept { return tplus_; }
  Value t_minus() const noexcept { return tminus_; }

 private:
  friend struct ViolationCycle;
  /// The cycle's sessions in this monitor's groups (ViolationCycle port).
  SessionSpec cycle_session(CycleSession s) const noexcept;
  Value cycle_key(NodeId, Value v) const noexcept { return v; }

  void start_cycle(CoordCtx& ctx);
  void handler_transition(CoordCtx& ctx);
  void decide(CoordCtx& ctx);
  void begin_reset(CoordCtx& ctx);
  void finish_reset(CoordCtx& ctx);
  void apply_boundary(CoordCtx& ctx, Value m);
  void cycle_done(CoordCtx& ctx);
  /// Drops `id` from the answer (crash or quarantine). A member, or a
  /// winner of the in-flight FILTERRESET selection, takes the k-th
  /// position with it: the cycle aborts and the selection re-runs.
  void remove_node(CoordCtx& ctx, NodeId id);
  /// A kValueReport with b == 1: the probed node's answer. Parked while
  /// a cycle is in flight (re-integrating mid-session would corrupt it).
  void handle_resync_reply(CoordCtx& ctx, NodeId from, Value v);
  /// Re-admits every parked re-sync once the coordinator is idle with an
  /// established answer; a returning value above the boundary raises
  /// pending_bot_ for the caller's next start_pending_cycle.
  void admit_parked(CoordCtx& ctx);
  /// Sends node `id` its (membership, boundary) assignment; true when the
  /// re-sync value `v` violates it from below (a bottom-side violation).
  bool admit(CoordCtx& ctx, NodeId id, Value v);
  /// Convenes the pending violations' cycle (start_cycle) once every
  /// re-sync assignment has landed; until then the coordinator timer
  /// waits out admit_wait_.
  void start_pending_cycle(CoordCtx& ctx);

  // -- suspicion policy (active only with Options::suspect) -----------------
  /// A probe reply from a quarantined node: release the quarantine and
  /// re-admit through the established-boundary assignment (deferred
  /// mid-cycle, like a re-sync reply).
  void handle_release_reply(CoordCtx& ctx, NodeId from, Value v);
  /// Signal-vs-report contradiction check (stale detection): a fresh
  /// signal fixes which side of the boundary the node's *true* value is
  /// on; a report landing on the other side is a strike.
  void check_stale_report(CoordCtx& ctx, NodeId from, Value v);
  /// Clears the per-node signal and strike records of `id` (crash,
  /// release).
  void forget_signals(NodeId id);

  /// Boundary for a concluded cycle: the pinned root boundary when the
  /// gap contains it (sharded mode), the gap midpoint otherwise.
  Value choose_boundary() const;
  /// FILTERRESET selection count: k+1 monolithically, capped at the live
  /// non-quarantined node count so a full-quota shard (k == n) selects
  /// everyone exactly once and a selection under churn or quarantine
  /// never waits on a participant that cannot answer.
  /// Within the set-up ranking window the target deepens to
  /// max(k, rank_quota) + 1 (Options::rank_quota).
  std::size_t selection_target() const noexcept {
    return std::min(std::max(k_, rank_quota_) + 1, rankable());
  }
  /// Live nodes a selection can rank (quarantined ones never answer).
  std::size_t rankable() const noexcept {
    return n_live_ - std::min(guard_.n_quarantined, n_live_);
  }
  /// Closes the ranking window (observation step, fault event): values
  /// or the live set may move, so requota() stops answering and later
  /// selections rank k + 1 again.
  void end_ranking() noexcept {
    cycle_.ranked = false;
    rank_quota_ = 0;
  }

  std::size_t k_;
  Options opts_;
  std::size_t n_ = 0;       ///< provisioned node count (incl. not-yet-joined)
  std::size_t n_live_ = 0;  ///< currently-live nodes (== n_ without faults)
  bool degenerate_ = false;  ///< k == n: the answer can never change

  // Answer / membership (coordinator's view).
  std::vector<char> in_topk_;
  std::vector<NodeId> topk_ids_;
  Value tplus_ = 0;
  Value tminus_ = 0;
  Value mid_ = 0;
  /// A requota anchored only the flipped nodes on mid_: the next
  /// reanchor must broadcast even when the pin equals mid_.
  bool split_anchor_ = false;
  std::size_t rank_quota_;  ///< Options::rank_quota until end_ranking()

  // Violations signalled but not yet consumed by a cycle.
  bool pending_top_ = false;
  bool pending_bot_ = false;
  /// Ticks until the latest re-sync assignment has landed (admit): the
  /// cycle its violation convenes must not start before the node knows
  /// it is a violator. Zero under instant delivery.
  std::uint64_t admit_wait_ = 0;

  /// The violation cycle: its sessions, extrema and reset selection.
  ViolationCycle cycle_;

  /// Crash-recovery re-syncs and (with Options::suspect) the suspicion
  /// table: probes, deadlines, quarantine and release probes.
  RecoveryGuard guard_;

  // Defensive-rebuild backoff (active only with Options::reset_backoff).
  std::uint32_t backoff_wait_ = 0;     ///< steps left before the next retry
  std::uint32_t backoff_attempt_ = 0;  ///< consecutive failed rebuilds

  // Signal records of the suspicion policy (allocated only with
  // Options::suspect).
  std::vector<std::uint32_t> silent_steps_;  ///< signalled-but-silent streak
  std::vector<std::uint8_t> sig_side_;  ///< last signalled side (1 top, 2 bot)
  std::vector<TimeStep> sig_step_;      ///< step of that signal
  std::vector<std::uint8_t> stale_strikes_;
  TimeStep cur_step_ = 0;  ///< step of the last on_step_begin
};

}  // namespace topkmon
