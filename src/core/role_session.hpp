// Reusable halves of the native role ports, as plain structs driven by
// their owners.
//
// NodeProtoSession / CoordProtoSession: the node and coordinator halves
// of one randomized extremum session (Algorithm 2). The filter, ordered,
// multi-k and recompute ports (core/*_roles.hpp) run the exact same wire
// protocol on them — same kStartSession control packing, same per-round
// kRoundBeacon / kValueReport exchange, same Bernoulli coin schedule,
// same flush-window conclusion. The owner decides who participates
// (group semantics stay monitor-specific) and handles the conclusion;
// the structs own only the round/beacon/flush mechanics.
//
// ViolationCycle: Algorithm 1's repair cycle on one CoordProtoSession —
// the violators' MIN/MAX sessions, FILTERVIOLATIONHANDLER's missing-side
// session, and the FILTERRESET selection of repeated MAXIMUMPROTOCOL(n)
// runs — driven by the filter, ordered and multi-k coordinators. The
// recompute coordinator drives its selection half alone. NodeSelection
// is the node side of an announce-driven selection for the ports whose
// nodes derive ranks from the announce order (ordered, multi-k).
//
// RecoveryGuard: the coordinator's crash re-sync table and suspicion
// table, driven by the filter, naive and dominance ports.
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "core/roles.hpp"
#include "protocols/beacon.hpp"

namespace topkmon {

/// Which extremum a session computes.
enum class Direction { kMax, kMin };

/// True if (va, ia) beats (vb, ib) in direction `dir` under the smaller-id
/// tie break, which makes the extremum unique even without the paper's
/// pairwise-distinct assumption.
constexpr bool beats(Direction dir, Value va, NodeId ia, Value vb,
                     NodeId ib) noexcept {
  if (va != vb) return dir == Direction::kMax ? va > vb : va < vb;
  return ia < ib;
}

/// Control opcode of a session start (kStartSession) in every monitor
/// whose sessions run on CoordProtoSession; each keeps its other opcodes
/// above it.
inline constexpr std::int64_t kStartSessionOp = 1;

/// Packs a session-start control's c payload: (epoch << 8) | log_n.
constexpr std::int64_t pack_session_c(std::uint32_t epoch,
                                      std::uint32_t log_n) noexcept {
  return static_cast<std::int64_t>(
      (static_cast<std::uint64_t>(epoch) << 8) | log_n);
}

struct SessionStart {
  Direction dir = Direction::kMax;
  std::uint32_t epoch = 0;
  std::uint32_t log_n = 0;
};

/// Decodes a kStartSession control (a = direction, c = (epoch<<8)|log_n);
/// the group payload b stays with the caller.
inline SessionStart unpack_session_start(const Control& c) noexcept {
  SessionStart s;
  s.dir = c.a == 1 ? Direction::kMin : Direction::kMax;
  s.epoch = static_cast<std::uint32_t>(c.c >> 8);
  s.log_n = static_cast<std::uint32_t>(c.c & 0xFF);
  return s;
}

/// Node-side state of one protocol session: the round counter, the last
/// beacon seen, and the activation flag. The owner calls join()/skip()
/// from its kStartSession handler, handle_beacon() from on_message, and
/// run_round() from on_timer.
///
/// The struct also keeps the node's beacon-deaf bit
/// (NodeCtx::set_beacon_deaf) equal to !(in && active): join() clears
/// it, and skip(), reset() and every deactivation in run_round() set it.
/// That is sound because beacon state is read only by run_round() under
/// in && active, and join() forgets the last beacon, so a beacon that
/// reaches a node outside an active session changes nothing. The owner
/// must route kRoundBeacon only to handle_beacon(). A node that never
/// declares keeps the default (hearing) and gets every beacon.
struct NodeProtoSession {
  bool in = false;      ///< joined the currently convened session
  bool active = false;  ///< still eligible to report
  bool has_beacon = false;
  Direction dir = Direction::kMax;
  std::uint32_t epoch = 0;
  std::uint32_t log_n = 0;
  std::uint32_t round = 0;
  NodeId beacon_holder = kNoHolder;
  Value beacon_value = kMinusInf;

  void join(NodeCtx& ctx, const SessionStart& s) {
    in = true;
    active = true;
    dir = s.dir;
    epoch = s.epoch;
    log_n = s.log_n;
    round = 0;
    has_beacon = false;
    beacon_holder = kNoHolder;
    ctx.set_beacon_deaf(false);
    ctx.arm_timer();
  }

  void skip(NodeCtx& ctx) {
    in = false;
    ctx.set_beacon_deaf(true);
  }

  void handle_beacon(const Message& m) {
    if (!in) return;
    const auto beacon = unpack_beacon_b(m.b);
    if (beacon.epoch != epoch) return;
    // A beacon without a holder means "no report seen yet" and carries
    // no deactivation power.
    if (beacon.holder == kNoHolder) return;
    has_beacon = true;
    beacon_value = m.a;
    beacon_holder = beacon.holder;
  }

  /// One protocol round (Algorithm 2, node side). `report_value` is both
  /// the value folded into the beacon comparison and the kValueReport
  /// payload; `report_b` rides in the report's b word (0 for session
  /// reports by convention — re-sync replies use 1).
  void run_round(NodeCtx& ctx, Value report_value, std::int64_t report_b = 0) {
    if (!in || !active) return;
    const std::uint32_t r = round++;

    // Line 8: a node beaten by the broadcast extremum deactivates.
    if (has_beacon &&
        !beats(dir, report_value, ctx.id(), beacon_value, beacon_holder)) {
      deactivate(ctx);
      return;
    }

    // Line 11: Bernoulli(2^r / N) coin flip; the final round has p = 1.
    if (ctx.rng().bernoulli_pow2(r, log_n)) {
      Message report;
      report.kind = MsgKind::kValueReport;
      report.a = report_value;
      report.b = report_b;
      ctx.send(report);
      deactivate(ctx);
      return;
    }
    if (r >= log_n) {
      deactivate(ctx);  // defensive; the final-round coin always succeeds
      return;
    }
    ctx.arm_timer();
  }

  /// Session-scoped state must not survive an outage or a re-anchor.
  void reset(NodeCtx& ctx) {
    in = false;
    active = false;
    has_beacon = false;
    beacon_holder = kNoHolder;
    round = 0;
    ctx.set_beacon_deaf(true);
  }

 private:
  void deactivate(NodeCtx& ctx) {
    active = false;
    ctx.set_beacon_deaf(true);
  }
};

/// Coordinator-side state of one protocol session: the running extremum,
/// the round/flush countdown, and the per-round beacon broadcast. The
/// owner picks the session's group (group semantics differ per monitor),
/// folds reports via fold(), and drives advance() from its timer;
/// advance() returns true exactly when the session concluded.
struct CoordProtoSession {
  bool active = false;
  bool suppress_idle = false;  ///< skip beacons that repeat the extremum
  bool have_best = false;
  bool improved = false;
  Direction dir = Direction::kMax;
  std::uint32_t epoch = 0;
  std::uint32_t log_n = 0;
  std::uint32_t round = 0;
  NodeId best_holder = kNoHolder;
  std::uint64_t flush = 0;
  Value best_value = 0;

  /// Starts a session and emits its kStartSession control; `group`
  /// rides in the control's b word and is interpreted by the owner's
  /// nodes. The caller counts protocol_runs.
  void begin(CoordCtx& ctx, Direction d, std::int64_t group,
             std::uint64_t n_upper) {
    dir = d;
    epoch = ctx.next_protocol_epoch();
    log_n = floor_log2(next_pow2(n_upper));
    round = 0;
    flush = ctx.flush_ticks();
    have_best = false;
    improved = false;
    best_holder = kNoHolder;
    active = true;

    Control start;
    start.op = kStartSessionOp;
    start.a = d == Direction::kMin ? 1 : 0;
    start.b = group;
    start.c = pack_session_c(epoch, log_n);
    ctx.control_broadcast(start);
    ctx.arm_timer();
  }

  /// Folds a session kValueReport into the running extremum.
  void fold(const Message& m) {
    if (!active) return;
    if (!have_best || beats(dir, m.a, m.from, best_value, best_holder)) {
      have_best = true;
      best_value = m.a;
      best_holder = m.from;
      improved = true;
    }
  }

  /// One coordinator timer firing (end of round `round`): broadcast the
  /// running extremum or wait out the flush window. Returns true when the
  /// session just concluded — the caller then reads have_best/best_*.
  bool advance(CoordCtx& ctx) {
    if (round < log_n) {
      // Line 18: broadcast the running extremum (optionally on change).
      if (!suppress_idle || improved) {
        Message beacon;
        beacon.kind = MsgKind::kRoundBeacon;
        beacon.a = have_best ? best_value : kMinusInf;
        beacon.b = pack_beacon_b(epoch, have_best ? best_holder : kNoHolder);
        ctx.broadcast(beacon);
      }
      improved = false;
      ++round;
      ctx.arm_timer();
      return false;
    }
    // Final round complete. Under a delayed policy, reports may still be
    // in flight: wait out the network's worst-case lag before concluding
    // (zero extra ticks under instant delivery).
    if (flush > 0) {
      --flush;
      ctx.arm_timer();
      return false;
    }
    active = false;
    return true;
  }

  /// Broadcasts the winner announcement for a concluded selection
  /// iteration (no-op when every report was lost).
  void announce(CoordCtx& ctx) const {
    if (!have_best) return;
    Message announce;
    announce.kind = MsgKind::kWinnerAnnounce;
    announce.a = best_value;
    announce.b = pack_beacon_b(epoch, best_holder);
    ctx.broadcast(announce);
  }
};

/// Node-side bookkeeping of an announce-driven selection (ordered,
/// multi-k). The announce order is common knowledge: the r-th
/// kWinnerAnnounce names rank r, so every node derives the winners' order
/// and its own rank locally, with no extra charged message. The owner
/// calls begin() from its kStartSelection control, fold() from
/// on_message, and reset() from on_recover.
struct NodeSelection {
  bool selecting = false;
  bool excluded = false;  ///< announced a winner of this selection
  std::size_t want = 0;   ///< winners the selection announces
  std::size_t seen = 0;   ///< announces folded so far
  std::vector<Value> w;   ///< winners' w = v·n + (n-1-id), in rank order
  std::optional<std::size_t> own_rank;

  void begin(std::size_t winners) {
    selecting = true;
    excluded = false;
    want = winners;
    seen = 0;
    w.clear();
    own_rank.reset();
  }

  /// True while the node may still win an iteration of the selection.
  bool candidate() const noexcept { return selecting && !excluded; }

  /// Folds one kWinnerAnnounce. True when it was the selection's last:
  /// the selection has ended and the owner derives its state from w and
  /// own_rank.
  bool fold(const NodeCtx& ctx, const Message& m) {
    if (!selecting) return false;
    const auto beacon = unpack_beacon_b(m.b);
    const auto n = static_cast<Value>(ctx.n());
    w.push_back(m.a * n + (n - 1 - static_cast<Value>(beacon.holder)));
    if (beacon.holder == ctx.id()) {
      excluded = true;
      own_rank = seen;
    }
    if (++seen != want) return false;
    selecting = false;
    return true;
  }

  /// Selection-scoped state must not survive an outage.
  void reset() noexcept {
    selecting = false;
    excluded = false;
    seen = 0;
  }
};

/// The sessions a ViolationCycle convenes. The owner maps each to its
/// participant group (SessionSpec).
enum class CycleSession : std::uint8_t {
  kViolMin,  ///< MINIMUMPROTOCOL over the members that fell (low side)
  kViolMax,  ///< MAXIMUMPROTOCOL over the outsiders that rose (high side)
  kSideMin,  ///< the handler's run over every member
  kSideMax,  ///< the handler's run over every outsider
  kSelect,   ///< one selection iteration over the not yet announced
};

/// An owner's encoding of one cycle session.
struct SessionSpec {
  std::int64_t group = 0;     ///< kStartSession's b word
  std::uint64_t n_upper = 0;  ///< participant bound (sets log N)
  /// Payload of the charged kProtocolStart that announces a missing-side
  /// session (filter and ordered: 1 = members, 0 = outsiders; multi-k:
  /// the boundary index).
  std::int64_t tag = 0;
};

/// What a coordinator timer firing leaves for the owner of a
/// ViolationCycle to do.
enum class CycleEvent : std::uint8_t {
  kNone,      ///< nothing: a round, a gap tick, the next session, or an
              ///< abort on a repeat winner
  kViolated,  ///< the violators' sessions concluded: run the handler
              ///< (fetch_side, unless the owner knows the missing side)
  kSides,     ///< the missing side concluded: min and max are both set,
              ///< apply the boundary rule
  kSelected,  ///< the selection has its target winners: install them,
              ///< then done()
  kSilent,    ///< a session concluded without a report; the cycle was
              ///< aborted
};

/// Coordinator-side state machine of Algorithm 1's violation cycle, on
/// one CoordProtoSession. A cycle opens with the violators' sessions
/// (MINIMUMPROTOCOL over the low side, then MAXIMUMPROTOCOL over the high
/// side), fetches the side extremum they did not deliver under a charged
/// kProtocolStart (FILTERVIOLATIONHANDLER, lines 22-26), and leaves the
/// decision to the owner: a new boundary, the next boundary's repair, or
/// a selection. A selection (FILTERRESET, lines 37-39, or any repeated
/// MAXIMUMPROTOCOL) collects winners one announced iteration at a time,
/// waiting out the announce lag between iterations. Its winners stay a
/// ranking of the live values (`ranked`) until the owner or the next
/// session ends it; a filter shard answers quota moves from it.
///
/// The owner keeps what differs by monitor and passes itself as the
/// `port` of the template calls (the struct must be its friend):
///
///   SessionSpec cycle_session(CycleSession) const;  // group and bound
///   Value cycle_key(NodeId, Value) const;  // extremum's key (w-space)
///   std::size_t selection_target() const;  // read at every conclusion
///
/// The boundary rule, what a selection installs, the kStartSelection
/// control and the counters other than protocol_runs and resyncs stay
/// with the owner, which acts on the CycleEvent of each timer firing.
struct ViolationCycle {
  enum class Phase : std::uint8_t {
    kIdle,      ///< no cycle running
    kViolMin,   ///< MINIMUMPROTOCOL over the low-side violators
    kViolMax,   ///< MAXIMUMPROTOCOL over the high-side violators
    kFullSide,  ///< the handler's run over the whole missing side
    kSelect,    ///< a selection: repeated MAXIMUMPROTOCOL runs
  };
  struct Winner {
    NodeId id;
    Value value;
  };

  CoordProtoSession session;
  Phase phase = Phase::kIdle;
  bool low = false;             ///< this cycle has low-side violators
  bool high = false;            ///< this cycle has high-side violators
  std::optional<Value> min;     ///< the cycle's member-side extremum (key)
  std::optional<Value> max;     ///< the cycle's outsider-side extremum
  std::vector<Winner> winners;  ///< the selection's winners, rank order
  /// True from a selection's conclusion (kSelected) until the next
  /// session, abort, or the owner's reset of it: `winners` then ranks
  /// the live nodes' current values. The owner clears it whenever the
  /// values or the live set may move (an observation step, a fault).
  bool ranked = false;
  std::uint32_t iteration = 0;  ///< selection sessions convened so far
  bool gap_pending = false;     ///< next iteration waits for announce lag
  std::uint64_t gap = 0;        ///< remaining inter-iteration gap ticks
  bool reset_due = false;       ///< a recovery asked for a reset mid-cycle

  bool busy() const noexcept { return phase != Phase::kIdle || session.active; }

  /// True when the ranking answers a quota of k: it holds rank k + 1, or
  /// it ranks all `rankable` nodes and k does not exceed them.
  bool ranks(std::size_t k, std::size_t rankable) const noexcept {
    return ranked && (winners.size() > k ||
                      (winners.size() == rankable && k <= rankable));
  }

  /// True when `id` won an iteration of the running selection: its crash
  /// (or quarantine) would install a dead or distrusted rank.
  bool holds_winner(NodeId id) const noexcept {
    return phase == Phase::kSelect &&
           std::any_of(winners.begin(), winners.end(),
                       [id](const Winner& w) { return w.id == id; });
  }

  /// Opens a repair: the low side's violators run first, then the high
  /// side's. At least one side must hold violators.
  template <class Port>
  void open(CoordCtx& ctx, MonitorStats& st, const Port& port, bool lo,
            bool hi) {
    low = lo;
    high = hi;
    ranked = false;
    min.reset();
    max.reset();
    phase = low ? Phase::kViolMin : Phase::kViolMax;
    start(ctx, st, port, low ? CycleSession::kViolMin : CycleSession::kViolMax);
  }

  /// FILTERVIOLATIONHANDLER, lines 22-26: a charged kProtocolStart
  /// announces the run over the whole side whose extremum the violators
  /// did not deliver.
  template <class Port>
  void fetch_side(CoordCtx& ctx, MonitorStats& st, const Port& port) {
    phase = Phase::kFullSide;
    const CycleSession s =
        max ? CycleSession::kSideMin : CycleSession::kSideMax;
    const SessionSpec spec = port.cycle_session(s);
    Message start;
    start.kind = MsgKind::kProtocolStart;
    start.a = spec.tag;
    ctx.broadcast(start);
    begin(ctx, st, s, spec);
  }

  /// Starts a selection of port.selection_target() winners. The owner
  /// broadcasts its kStartSelection control, if it has one, first.
  template <class Port>
  void select(CoordCtx& ctx, MonitorStats& st, const Port& port) {
    phase = Phase::kSelect;
    winners.clear();
    ranked = false;
    iteration = 0;
    start(ctx, st, port, CycleSession::kSelect);
  }

  /// Coordinator timer: runs the selection half in a selection, else the
  /// violators' and missing-side sessions. The owner acts on the event.
  template <class Port>
  CycleEvent on_timer(CoordCtx& ctx, MonitorStats& st, const Port& port) {
    if (phase == Phase::kSelect) return select_timer(ctx, st, port);
    if (!session.active || !session.advance(ctx)) return CycleEvent::kNone;
    if (!session.have_best) {
      // Only possible under message loss or churn: every report of the
      // session was lost. Abandon the cycle; the next violation restarts
      // repair.
      abort();
      return CycleEvent::kSilent;
    }
    const Value v = port.cycle_key(session.best_holder, session.best_value);
    switch (phase) {
      case Phase::kViolMin:
        min = v;
        if (!high) return CycleEvent::kViolated;
        phase = Phase::kViolMax;
        start(ctx, st, port, CycleSession::kViolMax);
        return CycleEvent::kNone;
      case Phase::kViolMax:
        max = v;
        return CycleEvent::kViolated;
      default:  // kFullSide
        (session.dir == Direction::kMax ? max : min) = v;
        return CycleEvent::kSides;
    }
  }

  /// The selection half of on_timer: the inter-iteration gap, then each
  /// iteration's announce and conclusion.
  template <class Port>
  CycleEvent select_timer(CoordCtx& ctx, MonitorStats& st, const Port& port) {
    if (!session.active) {
      // Inter-iteration gap: the previous iteration's winner announcement
      // is in flight; convening the next iteration before it lands would
      // let the winner re-join. Zero ticks under instant delivery.
      if (!gap_pending) return CycleEvent::kNone;
      if (gap > 0) {
        --gap;
        ctx.arm_timer();
        return CycleEvent::kNone;
      }
      gap_pending = false;
      start(ctx, st, port, CycleSession::kSelect);
      return CycleEvent::kNone;
    }
    if (!session.advance(ctx)) return CycleEvent::kNone;
    session.announce(ctx);
    if (!session.have_best) {
      abort();
      return CycleEvent::kSilent;
    }
    // A repeat winner means its earlier announce was lost on its own link
    // (possible only under drops): it re-joined and won again, so the
    // selection order is corrupted beyond local repair — abandon the
    // selection. Deliberately checked AFTER the announce above: the
    // "redundant" announcement is what finally tells the repeated winner
    // it is excluded, so the next attempt can succeed; suppressing it
    // measured severalfold higher error rates under loss (e15) for one
    // saved message.
    for (const Winner& w : winners) {
      if (w.id == session.best_holder) {
        abort();
        return CycleEvent::kNone;
      }
    }
    winners.push_back(Winner{session.best_holder, session.best_value});
    if (winners.size() >= port.selection_target()) {
      ranked = true;
      return CycleEvent::kSelected;
    }
    const std::uint64_t lag = ctx.flush_ticks();
    if (lag == 0) {
      start(ctx, st, port, CycleSession::kSelect);
    } else {
      gap_pending = true;
      gap = lag;
      ctx.arm_timer();
    }
    return CycleEvent::kNone;
  }

  /// A recovered node is re-synced by a full reset, whose announce order
  /// doubles as its assignment (ordered, multi-k). Counts the re-sync;
  /// true when the owner should begin the reset now, false when it waits
  /// for the running cycle's done().
  bool recover(MonitorStats& st) noexcept {
    ++st.resyncs;
    if (!busy()) return true;
    reset_due = true;
    return false;
  }

  /// Ends the cycle. True when a reset deferred by recover() is due now.
  bool done() noexcept {
    phase = Phase::kIdle;
    clear_sides();
    return std::exchange(reset_due, false);
  }

  /// Abandons the running cycle (loss, crash, dynamic k). A deferred
  /// reset stays due.
  void abort() noexcept {
    phase = Phase::kIdle;
    session.active = false;
    ranked = false;
    gap_pending = false;
    gap = 0;
    clear_sides();
  }

 private:
  void clear_sides() noexcept {
    low = high = false;
    min.reset();
    max.reset();
  }

  template <class Port>
  void start(CoordCtx& ctx, MonitorStats& st, const Port& port,
             CycleSession s) {
    begin(ctx, st, s, port.cycle_session(s));
  }

  void begin(CoordCtx& ctx, MonitorStats& st, CycleSession s,
             const SessionSpec& spec) {
    ++st.protocol_runs;
    if (s == CycleSession::kSelect) ++iteration;
    const bool min_run =
        s == CycleSession::kViolMin || s == CycleSession::kSideMin;
    session.begin(ctx, min_run ? Direction::kMin : Direction::kMax,
                  spec.group, spec.n_upper);
  }
};

/// Coordinator-side recovery mechanics of the native ports that re-sync
/// recovered nodes and infer degraded ones (filter, naive, dominance): the
/// re-sync table and the suspicion table, each with its tick- or
/// step-driven driver. Like CoordProtoSession it is a plain struct driven
/// by its owner. What differs by monitor stays with the owner and is
/// passed in: what a reply re-admits, which reports count as useful,
/// stale contradiction, the structural removal on quarantine and the
/// release-backoff cap. Counters go to the owner's MonitorStats: resyncs,
/// resync_retries, suspicions and quarantines.
struct RecoveryGuard {
  /// A crash-recovery re-sync: the node was probed and its reply is due.
  struct Resync {
    NodeId id;
    std::uint64_t countdown;  ///< ticks until the probe is declared lost
    std::uint32_t attempt;    ///< resend count (bounds the backoff shift)
    bool parked;              ///< replied while the owner was busy
    Value value;              ///< the parked reply's value
  };
  /// A node under suspicion: probed on tick-driven deadlines until it
  /// answers, quarantined after kProbeAttempts missed deadlines, then
  /// re-probed on the step-driven release schedule.
  struct Suspect {
    NodeId id;
    std::uint64_t countdown;  ///< ticks until the probe is declared lost
    std::uint32_t attempt;    ///< probe deadlines missed so far
    bool quarantined;
    std::uint32_t release_wait;     ///< steps until the next release probe
    std::uint32_t release_attempt;  ///< failed release probes (caps backoff)
    /// An audit probe, not yet a suspicion: the first missed deadline
    /// makes it one (MonitorStats::suspicions).
    bool watch;
  };

  /// Missed probe deadlines that escalate a suspicion to quarantine (the
  /// second deadline is already backed off).
  static constexpr std::uint32_t kProbeAttempts = 2;

  std::vector<Resync> resyncs;  ///< pending re-syncs, in recovery order
  std::vector<Suspect> suspects;
  std::vector<char> quarantined;  ///< per node; allocated by init_suspicion
  std::size_t n_quarantined = 0;

  /// Probe round trip plus slack under the deployed network policy.
  static std::uint64_t probe_timeout(const CoordCtx& ctx) noexcept {
    return 2 * ctx.flush_ticks() + 2;
  }

  /// Deadline after the attempt-th lost probe: capped exponential backoff,
  /// so a long outage of the return path cannot flood the link.
  static std::uint64_t backoff(const CoordCtx& ctx,
                               std::uint32_t attempt) noexcept {
    return probe_timeout(ctx) << std::min(attempt, 6u);
  }

  static void send_probe(CoordCtx& ctx, NodeId id) {
    Message probe;
    probe.kind = MsgKind::kProbe;
    ctx.unicast(id, probe);
  }

  // -- re-sync table ---------------------------------------------------------

  bool resyncing(NodeId id) const noexcept {
    return std::any_of(resyncs.begin(), resyncs.end(),
                       [id](const Resync& r) { return r.id == id; });
  }

  /// Probes recovered node `id` and arms the owner's timer for the resend
  /// countdown. No-op while a re-sync of `id` is pending.
  void begin_resync(CoordCtx& ctx, MonitorStats& st, NodeId id) {
    if (resyncing(id)) return;
    ++st.resyncs;
    resyncs.push_back(Resync{id, probe_timeout(ctx), 0, false, 0});
    send_probe(ctx, id);
    ctx.arm_timer();
  }

  /// Coordinator tick: resends timed-out probes and keeps the owner's
  /// timer armed while any probe awaits its reply.
  void tick_resyncs(CoordCtx& ctx, MonitorStats& st) {
    if (resyncs.empty()) return;
    bool waiting = false;
    for (Resync& r : resyncs) {
      if (r.parked) continue;  // the reply is in hand
      waiting = true;
      if (r.countdown > 0) {
        --r.countdown;
        continue;
      }
      ++st.resync_retries;
      r.countdown = backoff(ctx, ++r.attempt);
      send_probe(ctx, r.id);
    }
    if (waiting) ctx.arm_timer();
  }

  /// A reply the owner cannot act on yet: keep its value for
  /// admit_parked. Nothing was lost, so no probe is resent. No-op when no
  /// re-sync of `id` is pending.
  void park(NodeId id, Value v) {
    for (Resync& r : resyncs) {
      if (r.id != id) continue;
      r.parked = true;
      r.value = v;
      return;
    }
  }

  /// Completes the re-sync of `id`; false when none is pending (a late
  /// duplicate reply, or a report from a node that was never probed).
  bool complete(NodeId id) {
    if (resyncs.empty()) return false;
    const auto it = std::find_if(resyncs.begin(), resyncs.end(),
                                 [id](const Resync& r) { return r.id == id; });
    if (it == resyncs.end()) return false;
    resyncs.erase(it);
    return true;
  }

  /// Hands every parked reply to `admit(id, value)` in recovery order and
  /// completes its re-sync.
  template <class Admit>
  void admit_parked(Admit&& admit) {
    for (auto it = resyncs.begin(); it != resyncs.end();) {
      if (!it->parked) {
        ++it;
        continue;
      }
      admit(it->id, it->value);
      it = resyncs.erase(it);
    }
  }

  /// Node `id` went down: its re-sync and every suspicion trace go.
  void drop(NodeId id) {
    std::erase_if(resyncs, [id](const Resync& r) { return r.id == id; });
    release(id);
  }

  // -- suspicion table -------------------------------------------------------

  void init_suspicion(std::size_t n) {
    suspects.clear();
    quarantined.assign(n, 0);
    n_quarantined = 0;
  }

  bool is_quarantined(NodeId id) const noexcept {
    return quarantined[id] != 0;
  }

  /// True when `id` is suspected, watched or quarantined.
  bool suspected(NodeId id) const noexcept {
    return std::any_of(suspects.begin(), suspects.end(),
                       [id](const Suspect& s) { return s.id == id; });
  }

  /// Puts `id` under suspicion and sends the first deadline-tracked probe.
  /// No-op when `id` is already suspected, watched or quarantined.
  void suspect(CoordCtx& ctx, MonitorStats& st, NodeId id) {
    if (suspected(id)) return;
    ++st.suspicions;
    open(ctx, id, /*watch=*/false);
  }

  /// Sends `id` a deadline-tracked audit probe that becomes a suspicion
  /// only at its first missed deadline. The caller makes sure `id` is
  /// neither suspected nor re-syncing, and counts the poll.
  void watch(CoordCtx& ctx, NodeId id) { open(ctx, id, /*watch=*/true); }

  /// Coordinator tick: runs the probe deadlines of suspects not yet
  /// quarantined. A missed deadline resends with capped backoff; the
  /// kProbeAttempts-th quarantines the node, and `on_quarantine(id)` runs
  /// the owner's removal right there, so its sends keep their place
  /// among the probes.
  template <class OnQuarantine>
  void tick_suspects(CoordCtx& ctx, MonitorStats& st,
                     OnQuarantine&& on_quarantine) {
    if (suspects.empty()) return;
    bool ticking = false;
    for (std::size_t i = 0; i < suspects.size(); ++i) {
      Suspect& s = suspects[i];
      if (s.quarantined) continue;  // release probing is step-driven
      if (s.countdown > 0) {
        --s.countdown;
        ticking = true;
        continue;
      }
      if (s.watch) {
        s.watch = false;
        ++st.suspicions;
      }
      if (++s.attempt >= kProbeAttempts) {
        const NodeId id = s.id;
        if (quarantine(st, id)) on_quarantine(id);
        continue;
      }
      s.countdown = backoff(ctx, s.attempt);
      send_probe(ctx, s.id);
      ticking = true;
    }
    if (ticking) ctx.arm_timer();
  }

  /// Quarantines `id`, opening its entry when a direct conviction skipped
  /// the suspicion; its first release probe goes out next step. False
  /// when `id` already was quarantined.
  bool quarantine(MonitorStats& st, NodeId id) {
    Suspect* entry = nullptr;
    for (Suspect& s : suspects) {
      if (s.id == id) entry = &s;
    }
    if (entry == nullptr) {
      suspects.push_back(Suspect{id, 0, 0, false, 0, 0, false});
      entry = &suspects.back();
    }
    if (entry->quarantined) return false;
    entry->quarantined = true;
    entry->release_wait = 1;
    entry->release_attempt = 0;
    quarantined[id] = 1;
    ++n_quarantined;
    ++st.quarantines;
    return true;
  }

  /// Observation step: release probes of quarantined nodes, backoff capped
  /// at 2^cap steps. Step-driven on purpose: a mute node answers no probe
  /// until it heals, and a tick-driven deadline would keep the owner's
  /// timer armed forever, so the settle loop would never quiesce under an
  /// unbudgeted network policy.
  void tick_release_probes(CoordCtx& ctx, std::uint32_t cap) {
    for (Suspect& s : suspects) {
      if (!s.quarantined) continue;
      if (s.release_wait > 0) {
        --s.release_wait;
        continue;
      }
      s.release_wait = std::uint32_t{1} << std::min(++s.release_attempt, cap);
      send_probe(ctx, s.id);
    }
  }

  /// A quarantined node answered while the owner cannot re-admit it:
  /// restart its release schedule, so the next probe goes out next step.
  void defer_release(NodeId id) {
    for (Suspect& s : suspects) {
      if (s.id != id) continue;
      s.release_wait = 1;
      s.release_attempt = 0;
      return;
    }
  }

  /// A useful report from `id` clears its pending (not yet quarantined)
  /// suspicion.
  void clear_suspicion(NodeId id) {
    std::erase_if(suspects, [id](const Suspect& s) {
      return s.id == id && !s.quarantined;
    });
  }

  /// Drops every suspicion trace of `id`, lifting its quarantine.
  void release(NodeId id) {
    if (suspects.empty()) return;
    std::erase_if(suspects, [&](const Suspect& s) {
      if (s.id != id) return false;
      if (s.quarantined) {
        quarantined[id] = 0;
        --n_quarantined;
      }
      return true;
    });
  }

 private:
  void open(CoordCtx& ctx, NodeId id, bool watch) {
    suspects.push_back(Suspect{id, probe_timeout(ctx), 0, false, 0, 0, watch});
    send_probe(ctx, id);
    ctx.arm_timer();  // drive the probe deadline
  }
};

}  // namespace topkmon
