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
//    belief, and its per-session protocol state (round counter, beacon
//    view, activation). All of it is updated exclusively from local
//    observations and received (control) broadcasts.
//  * FilterCoordinator owns the violation-cycle state machine
//    (violation sessions -> missing-side session -> midpoint/reset), the
//    T+/T- accumulators and the answer set.
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
#include "core/roles.hpp"
#include "protocols/extremum.hpp"

namespace topkmon {

/// Control opcodes of the filter monitor's control plane.
enum class FilterControlOp : std::int64_t {
  /// a = direction (0 = max, 1 = min), b = participant group
  /// (FilterSessionGroup), c = (epoch << 8) | log_n.
  kStartSession = 1,
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

  // Current protocol session (valid while in_session_).
  bool in_session_ = false;
  bool active_ = false;
  Direction dir_ = Direction::kMax;
  std::uint32_t epoch_ = 0;
  std::uint32_t log_n_ = 0;
  std::uint32_t round_ = 0;
  bool has_beacon_ = false;
  Value beacon_value_ = 0;
  NodeId beacon_holder_ = kNoHolder;

  // Reset-selection bookkeeping.
  bool selecting_ = false;
  bool excluded_ = false;
  std::uint32_t announces_seen_ = 0;
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
    /// A suspect that exhausts kSuspectAttempts probe deadlines is
    /// *quarantined* (MonitorStats::quarantines): its signals and
    /// session reports are ignored, it is removed from the answer (a
    /// structural removal aborts the cycle and re-runs the selection —
    /// the defensive boundary widen), and selection_target() shrinks so
    /// resets stop waiting for it. Quarantined nodes are re-probed with
    /// step-driven capped backoff forever; a probe reply releases the
    /// quarantine and re-admits the node through the re-sync path, so a
    /// healed node converges back to the exact answer. Off by default:
    /// the machinery changes no trace until enabled AND a node actually
    /// degrades. Tuned for instant/delayed networks; under heavy drop
    /// the strike thresholds absorb most — not all — false positives.
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

  // -- introspection for tests ---------------------------------------------
  Value boundary() const noexcept { return mid_; }
  Value t_plus() const noexcept { return tplus_; }
  Value t_minus() const noexcept { return tminus_; }

 private:
  /// Where the violation cycle currently stands.
  enum class Phase : std::uint8_t {
    kIdle,      ///< no cycle running
    kViolMin,   ///< MINIMUMPROTOCOL(k) over top-side violators
    kViolMax,   ///< MAXIMUMPROTOCOL(n-k) over bottom-side violators
    kFullSide,  ///< handler's run over the whole missing side
    kReset,     ///< FILTERRESET: k+1 repeated selections
  };

  void start_cycle(CoordCtx& ctx);
  void start_session(CoordCtx& ctx, Direction dir, FilterSessionGroup group,
                     std::uint64_t n_upper, bool announce);
  void conclude_session(CoordCtx& ctx);
  void handler_transition(CoordCtx& ctx);
  void decide(CoordCtx& ctx);
  void begin_reset(CoordCtx& ctx);
  void finish_reset(CoordCtx& ctx);
  void apply_boundary(CoordCtx& ctx, Value m);
  void cycle_done(CoordCtx& ctx);
  void abort_cycle();
  /// Decrements re-sync countdowns, resends timed-out probes (capped
  /// exponential backoff), keeps the coordinator timer armed while any
  /// re-sync is pending. No-op with no pending re-sync.
  void tick_resyncs(CoordCtx& ctx);
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
  /// Probe round trip plus slack under the deployed network policy.
  std::uint64_t probe_timeout(CoordCtx& ctx) const {
    return 2 * ctx.flush_ticks() + 2;
  }

  // -- suspicion machinery (active only with Options::suspect) --------------
  void send_probe(CoordCtx& ctx, NodeId id);
  /// Puts `id` under suspicion (if not already) and sends the first
  /// deadline-tracked probe.
  void suspect_node(CoordCtx& ctx, NodeId id);
  /// Escalates `id` to quarantine: ignore its signals and reports, drop
  /// it from the answer (structural removals re-run the selection), and
  /// switch its probing to the step-driven release schedule.
  void quarantine_node(CoordCtx& ctx, NodeId id, bool stale);
  /// Tick-driven probe deadlines of pre-quarantine suspects (capped
  /// backoff; kSuspectAttempts lost probes escalate to quarantine).
  void tick_suspects(CoordCtx& ctx);
  /// Step-driven release probes of quarantined nodes (capped backoff).
  void tick_release_probes(CoordCtx& ctx);
  /// A probe reply from a quarantined node: release the quarantine and
  /// re-admit through the established-boundary assignment (deferred
  /// mid-cycle, like a re-sync reply).
  void handle_release_reply(CoordCtx& ctx, NodeId from, Value v);
  /// Signal-vs-report contradiction check (stale detection): a fresh
  /// signal fixes which side of the boundary the node's *true* value is
  /// on; a report landing on the other side is a strike.
  void check_stale_report(CoordCtx& ctx, NodeId from, Value v);
  /// Clears every per-node suspicion trace for `id` (crash, release).
  void clear_suspicion_state(NodeId id);

  /// Boundary for a concluded cycle: the pinned root boundary when the
  /// gap contains it (sharded mode), the gap midpoint otherwise.
  Value choose_boundary() const;
  /// FILTERRESET selection count: k+1 monolithically, capped at the live
  /// non-quarantined node count so a full-quota shard (k == n) selects
  /// everyone exactly once and a selection under churn or quarantine
  /// never waits on a participant that cannot answer.
  std::size_t selection_target() const noexcept {
    return std::min(k_ + 1, n_live_ - std::min(n_quarantined_, n_live_));
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

  // Violations signalled but not yet consumed by a cycle.
  bool pending_top_ = false;
  bool pending_bot_ = false;
  /// Ticks until the latest re-sync assignment has landed (admit): the
  /// cycle its violation convenes must not start before the node knows
  /// it is a violator. Zero under instant delivery.
  std::uint64_t admit_wait_ = 0;

  // Current cycle.
  Phase phase_ = Phase::kIdle;
  bool cycle_top_ = false;
  bool cycle_bot_ = false;
  std::optional<Value> min_v_;
  std::optional<Value> max_v_;

  // Current protocol session.
  bool session_active_ = false;
  Direction sdir_ = Direction::kMax;
  std::uint32_t sepoch_ = 0;
  std::uint32_t slog_n_ = 0;
  std::uint32_t sround_ = 0;
  std::uint64_t sflush_ = 0;  ///< post-final-round delay drain (0 on instant)
  bool have_best_ = false;
  bool improved_ = false;
  Value best_value_ = 0;
  NodeId best_holder_ = kNoHolder;
  bool announce_at_end_ = false;

  // Reset selection progress.
  struct Winner {
    NodeId id;
    Value value;
  };
  std::vector<Winner> sel_winners_;
  bool pending_select_ = false;   ///< next iteration waits for announce lag
  std::uint64_t select_gap_ = 0;  ///< remaining inter-iteration gap ticks

  // Pending crash-recovery re-syncs, in recovery order.
  struct Resync {
    NodeId id;
    std::uint64_t countdown;  ///< ticks until the probe is declared lost
    std::uint32_t attempt;    ///< resend count (bounds the backoff shift)
    bool parked = false;      ///< replied mid-cycle; admitted once idle
    Value value = 0;          ///< the parked reply's value
  };
  std::vector<Resync> resync_;

  // Defensive-rebuild backoff (active only with Options::reset_backoff).
  std::uint32_t backoff_wait_ = 0;     ///< steps left before the next retry
  std::uint32_t backoff_attempt_ = 0;  ///< consecutive failed rebuilds

  // Suspicion / quarantine state (allocated only with Options::suspect).
  struct Suspect {
    NodeId id;
    std::uint64_t countdown;  ///< ticks until the suspicion probe is lost
    std::uint32_t attempt;    ///< pre-quarantine probe deadlines missed
    bool quarantined;
    std::uint32_t release_wait;     ///< steps until the next release probe
    std::uint32_t release_attempt;  ///< failed release probes (caps backoff)
  };
  std::vector<Suspect> suspects_;
  std::vector<char> quarantined_;  ///< fast membership test for suspects_
  std::size_t n_quarantined_ = 0;
  std::vector<std::uint32_t> silent_steps_;  ///< signalled-but-silent streak
  std::vector<std::uint8_t> sig_side_;  ///< last signalled side (1 top, 2 bot)
  std::vector<TimeStep> sig_step_;      ///< step of that signal
  std::vector<std::uint8_t> stale_strikes_;
  TimeStep cur_step_ = 0;  ///< step of the last on_step_begin
};

}  // namespace topkmon
