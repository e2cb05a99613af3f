// Message transport between n nodes and the coordinator.
//
// Topology per the paper's model: nodes can send to the coordinator only
// (no node-to-node links); the coordinator can unicast to a single node
// and has a broadcast channel delivering one message to all nodes
// simultaneously (unit cost, following Cormode et al.'s enhanced model).
//
// Delivery is governed by a NetworkSpec policy and a tick clock:
//
//   * Under the default instant spec, every message is deliverable the
//     moment it is sent and the transport reproduces the paper's
//     lock-step semantics exactly. Broadcasts are stored once in a shared
//     log with a per-node read cursor, so a broadcast costs O(1)
//     regardless of n; the log prefix every node has read is compacted
//     away so long runs stay in bounded memory. A round beacon
//     (kRoundBeacon) reaches only the live nodes whose beacon-deaf bit
//     is clear (NodeRuntime::beacon_deaf, declared by the node's
//     algorithm through NodeCtx::set_beacon_deaf): a set bit certifies
//     the beacon is a no-op for the node, so the node is never visited
//     for it.
//   * Under a delay/jitter/drop/batch spec, each (message, link) pair is
//     assigned a deterministic delivery tick (or dropped) at send time;
//     drains only surface messages whose delivery tick has been reached.
//     Broadcasts fan out into per-link scheduled deliveries. In-flight
//     messages wait in a timing wheel keyed by delivery tick (Varghese &
//     Lauck): one slot per tick, appended in send order, with far-future
//     ticks overflowing into a small heap. Each slot has two columns:
//     node-bound deliveries (recipient + send stamp) and coordinator-bound
//     messages (sender already stamped, nothing else). Advancing the
//     clock moves each due slot into the same inboxes instant mode fills,
//     so both modes share one drain path: node mail one delivery at a
//     time, the coordinator column in one bulk append. Pushes and pops
//     are O(1) and allocation-free at steady state (slots and inboxes
//     keep their capacity), and earliest_pending() costs O(1) in n.
//
// Message *sends* are always charged to CommStats — the paper's objective
// counts transmissions; a dropped message still cost its sender one unit.
//
// Activity tracking: the network maintains a per-node "has due mail"
// bitset (`due_mail_words()`), set when a delivery becomes drainable and
// cleared by drain_node(). The SimDriver's sparse event loop visits only
// flagged nodes, making a settled tick O(active), not O(n).
//
// Clear-bit cursor invariant (instant mode): a live node whose due bit is
// clear has no deliverable mail. Its unread log suffix, if any, holds
// only beacons it was deaf to. So whenever a clear bit rises (a unicast,
// a non-beacon broadcast, or a beacon to a hearing node) the node's
// cursor first moves to the log end, and drain_node, ack_broadcasts,
// set_node_down and log compaction treat a clear-bit node's cursor as
// being at the log end. A skipped beacon link is neither pending nor
// dropped.
//
// Drains: `drain_node(id, out)` and `drain_coordinator(out)` fill a
// caller-owned scratch buffer (cleared first, capacity retained across
// calls), so a settled simulation tick performs zero heap allocations at
// steady state.
//
// Threading: the network is single-threaded. Every method, sends,
// drains and clock advances alike, runs on the thread driving the
// simulation, and each call settles the shared accounting (pending and
// in-flight counters, log compaction) before it returns.
#pragma once

#include <cassert>
#include <cstddef>
#include <functional>
#include <memory_resource>
#include <optional>
#include <vector>

#include "sim/comm_stats.hpp"
#include "sim/event_log.hpp"
#include "sim/message.hpp"
#include "sim/network_model.hpp"
#include "sim/node_runtime.hpp"
#include "util/bitset.hpp"
#include "util/types.hpp"

namespace topkmon {

/// The star network with broadcast channel. All sends are recorded in the
/// attached CommStats; the transport itself performs no protocol logic.
class Network {
 public:
  /// Creates an instant-delivery network for `n` nodes charging messages
  /// to `stats`. `stats` must outlive the network.
  Network(std::size_t n, CommStats* stats);

  /// Creates a network with an explicit delivery policy. `seed` feeds the
  /// deterministic per-(message, link) jitter/drop hash; it is independent
  /// of drain order, so runs stay bit-reproducible. When `runtime` is
  /// non-null the network maintains its due-mail bits in
  /// `runtime->due_mail` (the structure-of-arrays state shared with the
  /// SimDriver); otherwise it owns a private bitset. `runtime` must
  /// outlive the network and span at least `n` ids.
  Network(std::size_t n, CommStats* stats, const NetworkSpec& spec,
          std::uint64_t seed, NodeRuntime* runtime = nullptr);

  /// Not copyable or movable: the network aliases external state (the
  /// stats sink, possibly a shared NodeRuntime's due-mail bits) and
  /// due_mail_ may point at its own owned bitset — a memberwise copy or
  /// move would silently alias or dangle into the source object.
  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  /// Number of node endpoints (the coordinator is not counted).
  std::size_t num_nodes() const noexcept { return cursors_.size(); }

  /// The delivery policy this network was built with.
  const NetworkSpec& spec() const noexcept { return spec_; }

  /// True on the instant-delivery fast path (lock-step semantics; enables
  /// the bulk broadcast fan-out API below).
  bool instant() const noexcept { return instant_; }

  // -- node liveness (fault injection) --------------------------------------
  // Crash semantics live at the transport: a down node's queued mail is
  // discarded, and anything arriving while it is down is dropped *at
  // delivery time* under every policy — instant deliveries drop at send,
  // scheduled deliveries drop at their due tick (a message already in
  // flight when the node recovers is delivered normally). Sends are still
  // charged to CommStats first — the paper's objective counts
  // transmissions — and every undelivered message is counted in
  // dropped_deliveries(). The liveness bits live on the shared
  // NodeRuntime (runtime().alive) so the SimDriver's scans and the
  // transport agree at every tick (the driver applies faults at the head
  // of each tick).

  /// True iff node id is up. No bounds check (hot path).
  bool node_alive(NodeId id) const noexcept { return alive_->test(id); }

  /// Number of currently-down nodes / currently-up nodes.
  std::size_t down_nodes() const noexcept { return down_count_; }
  std::size_t live_nodes() const noexcept {
    return num_nodes() - down_count_;
  }

  /// Takes node id down: drops its queued mail (counted as dropped
  /// deliveries), clears its due bit, and discards everything addressed
  /// to it until set_node_up. Idempotent.
  void set_node_down(NodeId id);

  /// Brings node id back up. Mail that became due during the outage is
  /// gone; delivery resumes with the next send (instant) or the next due
  /// tick (scheduled). Idempotent.
  void set_node_up(NodeId id);

  // -- clock ----------------------------------------------------------------
  /// Current tick. Sends stamp messages with it; drains deliver everything
  /// scheduled at or before it.
  SimTime now() const noexcept { return now_; }

  /// Advances the clock by one tick.
  void advance_clock() { advance_clock_to(now_ + 1); }

  /// Advances the clock to `t` (no-op if `t` is in the past). Under a
  /// scheduled policy, every timing-wheel slot passed on the way is
  /// moved into the recipients' inboxes in delivery order.
  void advance_clock_to(SimTime t);

  // -- sending --------------------------------------------------------------

  /// Node `from` sends `m` to the coordinator (cost 1).
  void node_send(NodeId from, const Message& m);

  /// Coordinator sends `m` to node `to` (cost 1).
  void coord_unicast(NodeId to, const Message& m);

  /// Coordinator broadcasts `m` to all nodes (cost 1 in the paper's
  /// model). Under the instant policy every live node gets one pending
  /// delivery until it next drains, except for a kRoundBeacon: a live
  /// node whose beacon-deaf bit is set and whose due bit is clear is
  /// skipped (no due bit, no pending delivery, no drop), while a deaf
  /// node that already has mail due reads the beacon with that mail.
  /// Scheduled policies deliver every broadcast on every link.
  void coord_broadcast(const Message& m);

  // -- receiving ------------------------------------------------------------
  /// Drains every deliverable message in the coordinator's inbox into
  /// `out` (cleared first; capacity retained), in arrival order. At
  /// steady state neither `out` nor the internal inbox reallocates.
  void drain_coordinator(std::vector<Message>& out);

  /// True if the coordinator has deliverable messages.
  bool coordinator_has_mail() const noexcept { return !coord_inbox_.empty(); }

  /// Drains node `id`'s deliverable messages into `out` (cleared first;
  /// capacity retained): unicasts addressed to it plus all broadcasts
  /// issued since its last drain, in send order (broadcasts and unicasts
  /// interleaved by issue time; under jitter, by delivery tick first).
  void drain_node(NodeId id, std::vector<Message>& out);

  /// Bitset over node ids: bit `id` is set iff drain_node(id) would
  /// deliver at least one message at the current tick. Maintained under
  /// every policy; drives the SimDriver's sparse per-tick scan. (Aliases
  /// NodeRuntime::due_mail when the network was built over one.)
  std::span<const std::uint64_t> due_mail_words() const noexcept {
    return due_mail_->words();
  }

  /// Single-node view of due_mail_words() (no bounds check; hot path).
  bool node_has_mail(NodeId id) const noexcept { return due_mail_->test(id); }

  // -- bulk broadcast fan-out (instant mode) --------------------------------
  // A broadcast tick makes every node due at once; draining each node
  // individually copies the same log suffix n times. Nodes with no
  // pending unicasts ("sparse-clean") can instead read their suffix *in
  // place* from the shared log and commit with an O(1) ack, so one pass
  // over the log serves all clean nodes with zero per-message copies.
  // Byte-equivalent to drain_node: a clean node's merge input is the
  // suffix alone.

  /// True iff node id's pending mail consists solely of broadcast-log
  /// entries — the precondition of unread_broadcasts()/ack_broadcasts().
  /// Always false under a scheduled policy. No bounds check (hot path).
  bool node_mail_is_broadcast_only(NodeId id) const noexcept {
    return instant_ && unicasts_[id].empty();
  }

  /// Node id's unread broadcast suffix, in issue order, served directly
  /// from the shared log (no copy). Valid only while node_has_mail(id)
  /// and node_mail_is_broadcast_only(id) (a clear-bit node's cursor may
  /// sit behind skipped beacons or before the retained log); invalidated
  /// by any send, drain or compact_broadcast_log() call (the log may
  /// grow or shift).
  std::span<const Message> unread_broadcasts(NodeId id) const noexcept {
    return std::span<const Message>(bcast_msgs_)
        .subspan(cursors_[id] - log_offset_);
  }

  /// Commits a bulk delivery for node id: marks its broadcasts read,
  /// settles the pending-delivery accounting and clears its due bit.
  /// Requires node_mail_is_broadcast_only(id) (debug-asserted) — acking
  /// a node with pending unicasts would clear its due bit while its
  /// unicasts stay queued. Unlike drain_node this never compacts the
  /// log (so spans handed to other nodes in the same pass stay stable)
  /// — callers fanning out to many nodes run compact_broadcast_log()
  /// once afterwards.
  void ack_broadcasts(NodeId id) noexcept {
    assert(node_mail_is_broadcast_only(id));
    const std::size_t total = log_offset_ + bcast_msgs_.size();
    // A clear due bit has nothing pending: a skipped suffix of beacons the
    // node was deaf to, if anything (see coord_broadcast).
    if (due_mail_->test(id)) pending_ -= total - cursors_[id];
    cursors_[id] = total;
    due_mail_->clear(id);
  }

  /// Drops the all-read broadcast-log prefix when worthwhile (cheap
  /// length check, O(n) cursor scan only past the threshold). drain_node
  /// does this implicitly; bulk fan-out passes call it once per tick.
  /// No-op under scheduled policies. Invisible to delivery semantics
  /// (but it shifts the log every unread_broadcasts span aliases).
  void compact_broadcast_log() { maybe_compact_broadcast_log(); }

  /// Total broadcasts ever issued (compaction does not lower this; under
  /// scheduled policies broadcasts are counted without logging).
  std::size_t broadcast_log_size() const noexcept {
    return instant_ ? log_offset_ + bcast_msgs_.size()
                    : static_cast<std::size_t>(broadcasts_issued_);
  }

  // -- delivery accounting (drives event-loop quiescence) -------------------

  /// Number of sent-but-not-yet-drained message deliveries (a broadcast
  /// counts once per receiving link; dropped links never count). An
  /// instant-mode round beacon counts only for the nodes that will read
  /// it: live nodes that are not beacon-deaf, plus deaf ones whose due
  /// bit was already set.
  std::uint64_t pending_deliveries() const noexcept { return pending_; }

  /// Earliest tick at which a pending message can be drained: `now()`
  /// when something is already deliverable, else the next occupied
  /// timing-wheel slot / overflow entry; nullopt when idle. O(1) in n.
  std::optional<SimTime> earliest_pending() const;

  /// Total messages lost to the drop policy or to down recipients so far
  /// (per link). A beacon link skipped because its node is beacon-deaf
  /// is not a loss and never counts here.
  std::uint64_t dropped_deliveries() const noexcept { return dropped_; }

  /// Installs (or clears, with nullptr semantics via empty function) a tap
  /// invoked once per sent message with its direction — e.g.
  /// `net.set_tap(event_log.tap())`. The tap observes; it cannot alter
  /// delivery or accounting.
  void set_tap(std::function<void(MsgDirection, const Message&)> tap) {
    tap_ = std::move(tap);
  }

  /// Copy of the *retained* broadcast log messages in issue order (tests /
  /// tracing). Maintained under the instant policy only — scheduled modes
  /// return an empty log (each broadcast fans out into per-link
  /// deliveries instead), and a prefix already read by every node may
  /// have been compacted away.
  std::vector<Message> broadcast_log() const { return bcast_msgs_; }

 private:
  struct Stamped {
    std::uint64_t seq;
    Message msg;
  };

  /// One in-flight scheduled delivery in a wheel slot. Recipients are
  /// nodes 0..n-1; the coordinator is n.
  struct Slotted {
    std::uint32_t recipient;
    Stamped stamped;
  };

  /// A message scheduled beyond the wheel horizon (rare: only when the
  /// spec's worst-case delay exceeds the wheel span). Min-heap by
  /// (due, seq) so pops replay send order within a tick.
  struct Overflow {
    SimTime due;
    std::uint64_t seq;
    std::uint32_t recipient;
    Message msg;
  };

  /// Deterministic per-(message, link) schedule: delivery tick, or nullopt
  /// when the drop policy loses the message on this link.
  std::optional<SimTime> schedule_link(std::uint64_t seq, std::uint32_t link);

  /// Routes one scheduled delivery of `m` sent by `from`: straight into
  /// the recipient's inbox if already due, a wheel slot within the
  /// horizon, the overflow heap beyond it.
  void schedule_delivery(std::uint32_t recipient, SimTime due,
                         std::uint64_t seq, const Message& m, NodeId from);

  /// Lands one due delivery in the recipient's inbox (coordinator mail in
  /// coord_inbox_, node mail in unicasts_ with the due bit set), or drops
  /// it when the recipient node is down. A slot's coordinator column
  /// bypasses it: flush_tick appends the column in bulk.
  void deliver(std::uint32_t recipient, const Stamped& s);

  /// Due tick of the next occupied wheel slot strictly after now()
  /// (kNoTick when the wheel is empty).
  SimTime next_wheel_tick() const;

  /// Moves tick `t`'s deliveries (overflow first — they were sent
  /// earlier, see the seq argument in network.cpp) into the inboxes.
  void flush_tick(SimTime t);

  /// Drops the broadcast-log prefix every due node has already read once
  /// the retained log grows past the compaction threshold.
  void maybe_compact_broadcast_log();

  /// Hands `m`, stamped with its sender `from`, to the tap. Out of line:
  /// the tap is a diagnostic, and its copy would otherwise sit on every
  /// upstream send's hot path.
  [[gnu::noinline]] void tap_upstream(NodeId from, const Message& m);

  /// Instant-mode fan-out of the broadcast just appended at absolute log
  /// index `end`: raises the due bit of every live node (for a `beacon`,
  /// only of live nodes that are not beacon-deaf), counts the entry once
  /// per node that will read it and once as dropped per down node.
  void fan_out(std::size_t end, bool beacon);

  NetworkSpec spec_;
  bool instant_ = true;   ///< pure lock-step fast path
  std::uint64_t hash_seed_ = 0;

  CommStats* stats_;
  FastMod32 jitter_mod_;  // per-link jitter draw: % (jitter + 1)
  std::function<void(MsgDirection, const Message&)> tap_;
  std::uint64_t seq_ = 0;  // global send-order stamp
  SimTime now_ = 0;
  std::uint64_t pending_ = 0;
  std::uint64_t dropped_ = 0;
  std::uint64_t broadcasts_issued_ = 0;  // scheduled-mode broadcast counter

  /// Per-node "a drain would deliver something now" flags (all policies).
  /// Points at the shared NodeRuntime's due_mail when one was supplied,
  /// else at owned_due_mail_.
  IdBitset owned_due_mail_;
  IdBitset* due_mail_ = nullptr;

  /// Per-node up/down flags (all set unless faults are injected). Points
  /// at the shared NodeRuntime's alive bits when a runtime was supplied,
  /// else at owned_alive_.
  IdBitset owned_alive_;
  IdBitset* alive_ = nullptr;
  std::size_t down_count_ = 0;

  /// Per-node beacon-deaf flags, declared by node algorithms (points at
  /// the shared NodeRuntime's bits, else at owned_beacon_deaf_, which
  /// stays all clear). Read only by the instant beacon fan-out.
  IdBitset owned_beacon_deaf_;
  IdBitset* beacon_deaf_ = nullptr;
  /// False guarantees that every live node with a clear due bit has its
  /// cursor at the log end. True once a beacon skipped some live node;
  /// bits that rise then first move the cursor to the log end.
  bool stale_cursors_ = false;

  // Inboxes (both modes): the coordinator's flat inbox, per-node stamped
  // unicasts, and (instant mode only) a shared broadcast log with read
  // cursors. The log is split into parallel arrays (messages / seq
  // stamps) so the bulk fan-out hands out contiguous Message spans and the
  // merge in drain_node compares a dense seq array. Cursors are absolute
  // (count of broadcasts read since construction); log_offset_ is the
  // absolute index of bcast_msgs_[0] after prefix compaction. Under a
  // scheduled policy the log stays empty, so the merge only copies.
  //
  // Under a scheduled policy the per-node inboxes and the wheel slots
  // below draw their storage from arena_: each grows to its own peak
  // during warm-up, and one arena turns those growth steps into O(log)
  // heap allocations instead of a few per node and per slot. Nothing
  // shrinks (clear() keeps capacity), so the arena holds at most about
  // twice the peak capacities. Instant mode rarely queues node mail; its
  // inboxes stay on the heap and the arena is never touched.
  std::pmr::monotonic_buffer_resource arena_;
  std::vector<Message> coord_inbox_;
  std::vector<Message> bcast_msgs_;        // log payloads, issue order
  std::vector<std::uint64_t> bcast_seqs_;  // parallel send-order stamps
  std::vector<std::pmr::vector<Stamped>> unicasts_;  // per-node inbox
  std::vector<std::size_t> cursors_;            // per-node broadcast cursor
  std::size_t log_offset_ = 0;

  // Scheduled mode: a timing wheel in front of the inboxes above.
  // Slot `due & wheel_mask_` holds the deliveries of exactly one due tick
  // (every in-wheel due lies within `wheel span` of the clock, so slots
  // never mix ticks), appended in send order: node-bound ones in wheel_,
  // coordinator-bound ones in coord_wheel_. wheel_bits_ mirrors slot
  // occupancy (either column) for O(span/64) next-event scans. Each inbox
  // stays (due, seq)-ordered: slots are flushed in tick order, a tick's
  // overflow entries before its slot (they were sent earlier), each in
  // send order, and a send that is already due lands after every earlier
  // tick. Splitting a slot by recipient keeps that order, because the
  // coordinator's inbox only ever receives the coordinator column.
  std::vector<std::pmr::vector<Slotted>> wheel_;
  std::vector<std::pmr::vector<Message>> coord_wheel_;
  std::vector<std::uint64_t> wheel_bits_;
  std::uint64_t wheel_mask_ = 0;
  std::vector<Overflow> overflow_;  // min-heap by (due, seq)
  std::uint64_t in_flight_ = 0;     // deliveries in wheel_ or overflow_
};

}  // namespace topkmon
