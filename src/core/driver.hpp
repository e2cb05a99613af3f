// The event loop that drives a role-separated monitor (one CoordinatorAlgo
// plus n NodeAlgos) over a cluster.
//
// Time structure: each observation step spans one or more network *ticks*.
// Per tick the driver services, in deterministic order,
//
//   1. every node in id order: due charged messages (on_message), then the
//      tick's Control broadcasts (on_control), then its armed timer
//      (on_timer) — messages strictly before controls, because a control
//      queued in the same coordinator phase as a broadcast logically
//      follows it (a winner announcement must exclude its winner before
//      the next selection iteration convenes);
//   2. the coordinator: due charged messages in arrival order, in one
//      on_mail call (none on a tick without mail);
//   3. the coordinator's armed timer.
//
// Ticks repeat until quiescence (no armed timer, no pending delivery, no
// pending control) or, when the NetworkSpec sets a tick budget, until the
// budget expires — in-flight messages then carry over into later steps.
// Under the instant NetworkSpec this schedule reproduces the paper's
// synchronous protocol rounds exactly (the node-phase / coordinator-phase
// alternation of Algorithm 2): a beacon broadcast in the coordinator
// timer phase of tick T reaches the nodes in the node phase of tick T+1,
// and the reports sent there reach the coordinator in the same tick.
//
// Sparse scan: phase 1 only *visits* the union of {nodes with due mail,
// nodes with an armed timer} — for every other node all three sub-phases
// are no-ops, so skipping them is output-identical while making a settled
// tick O(active) instead of O(n). Ticks that deliver a Control broadcast
// fall back to the dense scan (a control reaches every node by
// definition), as does set_dense_loop(true), the benchmark/diagnostic
// escape hatch. Within the scan, nodes whose due mail is purely
// broadcasts take the bulk fan-out: the instant network hands out each
// node's unread log suffix in place (Network::unread_broadcasts) and the
// delivery commits with an O(1) ack — same messages, same order as a
// drain, none of the per-node buffer traffic. Round beacons do not even
// raise the due bit of a node that declared itself beacon-deaf
// (NodeCtx::set_beacon_deaf: a beacon is a no-op for it), so a protocol
// session's rounds visit only the nodes still active in it, not all n.
// set_dense_loop(true) drops those declarations, so the dense loop stays
// the certificate-free reference for beacons as it is for quiet ranges.
//
// Observation sparsity follows the same contract, through per-node quiet
// ranges: a node declares (NodeCtx::set_quiet_range) a value interval
// inside which its on_observe is a no-op — a filter node declares its
// filter. A step first runs a serial range pass that sets the
// needs-observe bit of every moved node whose new value left its range,
// then runs on_observe for exactly the needs-observe ∩ alive set. Only a
// new declaration clears a bit, so a clear bit always means "value
// inside the quiet range". The moved nodes arrive in one of two shapes:
// step(t, changed) takes an id list and tests each id; step_masked(t,
// mask) takes a dense frame's change mask over the cluster's value
// column and compares the column against the quiet ranges word by word,
// without a branch per node (core/frame_kernels.hpp; compiled per ISA
// level like the walk kernel), OR-ing the outside bits of the moved,
// alive nodes into needs-observe. Same bits, same outcomes; the mask
// wins once 6-12% of the nodes move (docs/architecture.md, "Dense
// frames").
// NodeCtx::set_needs_observe is shorthand over the same mechanism: true
// declares the empty range (observe every step), false the point range
// [v, v] (no-op on an unchanged value). Every range starts empty (see
// roles.hpp).
//
// Timer semantics: arming from a node's on_message/on_control fires in
// the same tick's node timer slot; arming from within on_timer fires next
// tick (ditto for the coordinator in phases 2-3). This is what lets a
// protocol session convene in one tick and run its round 0 in the next.
//
// Threading contract: the driver is single-threaded. Every public method
// and every NodeCtx / CoordCtx callback runs on the thread that calls
// initialize(), step() or pump(); node and coordinator side effects
// (sends, signals, timer arms, quiet-range declarations) apply directly,
// in the order the callbacks raise them. Run independent simulations on
// separate threads (one driver each) for parallelism — SweepRunner's
// trial-level --jobs does exactly that.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/roles.hpp"
#include "sim/cluster.hpp"
#include "sim/fault_plan.hpp"
#include "util/bitset.hpp"
#include "util/isa.hpp"

namespace topkmon {

/// The event loop driving one role-separated deployment (coordinator +
/// n node algorithms) over a cluster: observation steps, delivery
/// ticks, timers and the uncharged control plane, with the sparse
/// activity-driven scan and the bulk broadcast fan-out documented in
/// the header comment above and in docs/architecture.md.
class SimDriver {
 public:
  /// `nodes` holds one node algorithm per cluster node. `auto_deliver`
  /// must be true and `workers` must be 1: anything else throws
  /// std::invalid_argument (as does a node count other than the cluster
  /// size) before any callback runs. Both parameters are kept only
  /// because perfbench, the repository's fixed benchmark instrument,
  /// passes them.
  SimDriver(Cluster& cluster, CoordinatorAlgo& coordinator,
            std::span<const std::unique_ptr<NodeAlgo>> nodes,
            bool auto_deliver = true, std::size_t workers = 1);

  /// Time 0: values must already be set on the cluster. Runs every node's
  /// on_init, the coordinator's on_init, and settles to quiescence (the
  /// tick budget does not apply to initialization: setup completes before
  /// the observation cadence starts).
  void initialize();

  /// One observation step (values already set). Runs on_observe for every
  /// node, on_step_begin, the tick loop, then on_step_end.
  void step(TimeStep t);

  /// One observation step with activity information: `changed` lists the
  /// nodes whose value differs from the previous step (any order — the
  /// observe scan re-sorts by id via its bitset). on_observe runs only
  /// for the nodes whose value lies outside their quiet range — identical
  /// outcomes, O(changed + observed) cost. Under set_dense_loop(true) the
  /// ranges are still maintained but every live node is observed. Throws
  /// std::out_of_range, before any node callback runs, if an id in
  /// `changed` is >= the cluster size.
  void step(TimeStep t, std::span<const NodeId> changed);

  /// The same step over a dense frame: `changed` has bit id set iff node
  /// id's value moved (the cluster's value column already holds the new
  /// values). The range pass becomes a branch-free column compare
  /// against the quiet ranges (core/frame_kernels.hpp), OR'd into the
  /// needs-observe bits word by word and masked by the alive bits; a
  /// word with few movers tests them one by one. Outcomes are identical
  /// to step(t, ids of the set bits). Throws std::invalid_argument,
  /// before any node callback runs, unless changed.size() is the
  /// cluster size.
  void step_masked(TimeStep t, const IdBitset& changed);

  /// Drains scheduled deliveries and timers to quiescence without running
  /// an observation phase (subject to the same per-step tick budget as a
  /// step). The sharded runtime (core/root_merge.hpp) uses it to flush
  /// coordinator traffic injected between steps — re-anchoring broadcasts
  /// and renegotiation sessions; a no-op when nothing is pending.
  void pump();

  /// Forces the legacy dense per-tick scan and dense observe loop
  /// (diagnostics / sparse-vs-dense benchmarking; output-identical).
  /// The dense loop ignores every skip certificate: quiet ranges are
  /// kept but every live node is observed, and beacon-deaf declarations
  /// are dropped (every bit stays clear), so every live node hears every
  /// round beacon. It is the reference the certificates are checked
  /// against.
  void set_dense_loop(bool dense) noexcept {
    dense_ = dense;
    if (dense) cluster_.runtime().beacon_deaf.clear_all();
  }

  /// Attaches a fault-injection schedule (sim/fault_plan.hpp). `plan`
  /// must outlive the driver (nullptr detaches). Events fire at the
  /// first delivery tick of their scheduled step, before any mail or
  /// timer is serviced, so the alive set is stable within a tick. Call
  /// before initialize(): nodes the plan introduces later via join
  /// events must be marked down (Network::set_node_down) before
  /// initialization so their on_init is deferred to the join. With no
  /// plan attached the event loop is byte-identical to a build without
  /// fault support. Throws std::invalid_argument if the plan's node
  /// provisioning does not match the cluster size.
  void set_fault_plan(const FaultPlan* plan);

  /// Like set_fault_plan(plan), but resumes the schedule at event index
  /// `cursor` instead of 0. The sharded runtime uses it when it rebuilds
  /// a shard deployment mid-run (a fresh driver on the warm cluster must
  /// not re-fire events the retired driver already applied). Throws
  /// std::invalid_argument when `cursor` exceeds the plan's event count.
  void set_fault_plan(const FaultPlan* plan, std::size_t cursor);

  /// Index of the next unapplied fault event (== events().size() once
  /// the schedule is exhausted). Pairs with the cursor-resuming
  /// set_fault_plan overload across driver rebuilds.
  std::size_t fault_cursor() const noexcept { return fault_cursor_; }

  /// Ticks consumed so far (diagnostics; grows monotonically).
  SimTime now() const noexcept { return cluster_.net().now(); }

  // -- context plumbing (used by NodeCtx / CoordCtx) ------------------------
  // Per-node scalars (armed, needs-observe, quiet range) live in the
  // cluster's shared structure-of-arrays NodeRuntime, next to the
  // network's due-mail bits the tick scan unions them with.

  /// Records an uncharged upstream signal for the current step.
  void raise_signal(Signal s) { signals_.push_back(s); }
  /// Signals raised since the step began, in raise order.
  const std::vector<Signal>& signals() const noexcept { return signals_; }
  /// Queues an uncharged Control broadcast for the next node phase.
  void queue_control(const Control& c) { pending_controls_.push_back(c); }
  /// Node `from` sends `m` upstream (charged): the single funnel for
  /// charged node->coordinator traffic. With no degraded node the funnel
  /// is one empty-vector test on top of Network::node_send; otherwise it
  /// applies the sender's degradation: mute discards the message, stale
  /// rewrites a value-bearing payload to the frozen snapshot, lag parks
  /// the message in the held queue.
  void node_send(NodeId from, const Message& m) {
    if (degrade_.empty()) {  // no degradation events in the plan
      cluster_.net().node_send(from, m);
    } else {
      send_degraded(from, m);
    }
  }
  /// Arms node id's timer for the next node timer phase (idempotent).
  void arm_node(NodeId id) {
    IdBitset& armed = cluster_.runtime().armed;
    if (!armed.test(id)) {
      armed.set(id);
      ++armed_nodes_;
    }
  }
  /// Arms the coordinator's timer for the next coordinator timer phase.
  void arm_coordinator() noexcept { coord_armed_ = true; }
  /// Declares node id's quiet range and sets its needs-observe bit iff
  /// the current value lies outside it.
  void set_quiet_range(NodeId id, QuietRange q) {
    NodeRuntime& rt = cluster_.runtime();
    rt.quiet[id] = q;
    rt.needs_observe.assign(id, !q.contains(rt.values[id]));
  }
  /// Shorthand over set_quiet_range: the empty range (needs) or the
  /// point range at the current value (!needs).
  void set_needs_observe(NodeId id, bool needs) {
    const Value v = cluster_.runtime().values[id];
    set_quiet_range(id, needs ? QuietRange{} : QuietRange{v, v});
  }
  /// Declares whether a round beacon is a no-op for node id (read by
  /// the network's instant beacon fan-out). A no-op under
  /// set_dense_loop(true), which delivers every beacon.
  void set_beacon_deaf(NodeId id, bool deaf) {
    if (dense_) return;
    cluster_.runtime().beacon_deaf.assign(id, deaf);
  }

 private:
  /// Observe phase (needs-observe ∩ alive, or every live node under the
  /// dense loop) and the tick loop of one step, after its range pass.
  void observe_and_settle(TimeStep t);
  void settle(bool respect_budget);
  void run_tick();
  void run_tick_dense();
  /// True iff an unapplied fault event is scheduled at or before the
  /// current observation step (it must fire on the next tick).
  bool fault_due() const noexcept;
  /// Fires every due fault event in schedule order: crash/leave freeze
  /// the node's armed timer and drop it from the transport; recover/join
  /// restore them and run the node's on_recover (join: on_init first);
  /// set-k forwards to the coordinator. Tick head only.
  void apply_due_faults();
  void apply_node_down(NodeId id);
  void apply_node_up(NodeId id, bool first_time);
  /// Re-injects every held (lagged) message whose release tick has
  /// arrived, in (release, send-seq) order. Tick head only.
  void release_due_held();
  /// node_send's path when the plan degrades some node: applies the
  /// sender's mode (mute, stale or lag) to `m`.
  void send_degraded(NodeId from, const Message& m);
  /// Earliest release tick over the held queue (held_ must be non-empty;
  /// the queue is kept sorted, so this is the front element).
  SimTime earliest_held_release() const noexcept {
    return held_.front().release;
  }
  /// Phase-1 body for one node (mail -> controls -> timer).
  void service_node(NodeId id);
  /// Phases 2-3 (coordinator mail, coordinator timer).
  void service_coordinator();
  bool anything_scheduled() const noexcept;

  Cluster& cluster_;
  CoordinatorAlgo& coord_;
  std::span<const std::unique_ptr<NodeAlgo>> nodes_;
  bool dense_ = false;
  IsaLevel isa_ = best_host_isa();  ///< step_masked's range-pass kernel

  CoordCtx coord_ctx_;

  std::vector<Signal> signals_;
  std::vector<Control> pending_controls_;
  std::vector<Control> delivering_controls_;  // double-buffer for phase 1
  std::vector<Message> mail_scratch_;         // reused across drains/ticks
  std::size_t armed_nodes_ = 0;
  bool coord_armed_ = false;

  // Fault injection (null/empty without a plan; see set_fault_plan).
  const FaultPlan* faults_ = nullptr;
  std::size_t fault_cursor_ = 0;      // next unapplied event
  TimeStep cur_step_ = 0;             // step currently being settled
  IdBitset frozen_armed_;  // timers frozen by a crash, rearmed on recovery

  // Adversarial degradations (sized n only when the attached plan has
  // degradation events; empty otherwise — the send funnel fast-paths on
  // that emptiness, so fault-free and churn-only runs stay
  // byte-identical to the pre-degradation code).
  enum class DegradeMode : std::uint8_t { kNone, kLag, kStale, kMute };
  struct NodeDegrade {
    DegradeMode mode = DegradeMode::kNone;
    std::size_t lag_ticks = 0;  ///< hold delay (kLag)
    Value frozen = 0;           ///< payload snapshot (kStale)
  };
  /// One lagged message parked in the driver. The queue is kept sorted
  /// by (release, insertion order): insertions go through upper_bound on
  /// release, so equal releases preserve send order.
  struct HeldSend {
    SimTime release = 0;
    NodeId from = 0;
    Message m{};
  };
  std::vector<NodeDegrade> degrade_;
  std::vector<HeldSend> held_;
};

}  // namespace topkmon
