// Role-separated monitor API: the paper's model is n node algorithms plus
// one coordinator algorithm on a star network, and this header expresses
// exactly that split. A monitoring algorithm is deployed as one
// CoordinatorAlgo plus n NodeAlgo instances; all *charged* communication
// between the two sides flows through the cluster's Network (and is
// therefore subject to the NetworkSpec delivery policy), while the
// lock-step idealizations of the paper's model — nodes and coordinator
// share a synchronized observation clock, and the coordinator convenes
// protocol executions the instant a violation occurs — are carried by an
// explicit *uncharged* control plane (signals upstream, Control
// broadcasts downstream) so they are visible, auditable, and excluded
// from the message accounting by construction.
//
// The SimDriver (core/driver.hpp) owns the event loop: per observation
// step it delivers observations (on_observe), then runs delivery ticks —
// due messages (on_message; the coordinator's as one on_mail batch per
// tick), then armed timers (on_timer) — until
// quiescence or until the network's tick budget expires. Under the
// instant NetworkSpec this reproduces the paper's synchronous round
// structure byte for byte: every monitor matches the frozen records of
// the lock-step implementation it replaced (tests/core/
// lockstep_golden.inc, asserted by the role-equivalence test suite).
#pragma once

#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "core/monitor.hpp"
#include "sim/cluster.hpp"
#include "util/types.hpp"

namespace topkmon {

/// Uncharged upstream control signal (node -> coordinator): the free
/// "a violation happened here" knowledge the paper's synchronized model
/// grants the coordinator. `code` semantics belong to the algorithm.
struct Signal {
  NodeId from = 0;
  std::int64_t code = 0;
};

/// Uncharged downstream control broadcast (coordinator -> all nodes):
/// convenes protocol executions ("all violators of side s: epoch e starts
/// now"). Delivered instantly to every node, independent of the network
/// policy, mirroring the implicit common knowledge of the lock-step model.
struct Control {
  std::int64_t op = 0;
  std::int64_t a = 0;
  std::int64_t b = 0;
  std::int64_t c = 0;
};

class SimDriver;

/// Capabilities available to one node algorithm. Only the node's own
/// machine state (value, RNG) and its single uplink are reachable — the
/// API makes non-local reads impossible by construction.
///
/// Node callbacks run on the driver's thread, one at a time in id order;
/// every NodeCtx method applies its effect directly (send/signal reach
/// the network and the signal queue in callback order). A NodeAlgo needs
/// no synchronization of its own.
class NodeCtx {
 public:
  /// Transient view (driver, cluster, id): constructed at the call
  /// site per callback; per-node scalars live in the shared NodeRuntime.
  NodeCtx(SimDriver& driver, Cluster& cluster, NodeId id)
      : driver_(driver), cluster_(cluster), id_(id) {}

  /// This node's id (0..n-1).
  NodeId id() const noexcept { return id_; }
  /// Total number of nodes in the deployment.
  std::size_t n() const noexcept { return cluster_.size(); }

  /// The node's current stream observation.
  Value value() const { return cluster_.value(id_); }

  /// The node's private randomness source.
  Rng& rng() { return cluster_.node_rng(id_); }

  /// Sends `m` to the coordinator (charged, subject to the network
  /// policy). Routed through the driver's degradation funnel (defined
  /// in driver.cpp with the other context plumbing).
  void send(const Message& m);

  /// Raises an uncharged control signal the coordinator sees this step.
  void signal(std::int64_t code);

  /// Requests an on_timer callback: within a node callback phase, for the
  /// current tick's timer phase; within on_timer itself, for the next tick.
  void arm_timer();

  /// Declares this node's quiet range: certifies that on_observe is a
  /// no-op — no message, no signal, no coin flip, no state change — for
  /// every value v with lo <= v <= hi, until the next declaration. The
  /// sparse driver then skips on_observe while the value stays inside
  /// the range, and observes the node every step from the first one its
  /// value leaves it until the node declares again. Every range starts
  /// empty (lo > hi: observed every step, exactly like the dense loop),
  /// and a recovery resets it to empty. A filter node declares its
  /// filter; a value outside it is then observed (and re-signalled) each
  /// step. Getting this wrong silently diverges from the dense loop; the
  /// sparse/dense equivalence tests pin the contract for the in-tree
  /// algorithms.
  void set_quiet_range(Value lo, Value hi);

  /// Shorthand over set_quiet_range: `true` declares the empty range
  /// (observe every step), `false` the point range [v, v] at the current
  /// value v (on_observe is a no-op on an unchanged value).
  void set_needs_observe(bool needs);

  /// Declares whether a round beacon is a no-op for this node. `true`
  /// certifies that on_message with a kRoundBeacon changes nothing — no
  /// message, no signal, no timer, no state anyone later reads — until
  /// the node declares `false` again; under the instant policy the
  /// network then skips the node when it fans a beacon out, so the node
  /// is never visited for one. The network reads the bit when the beacon
  /// is sent and skips a deaf node for good, so the certificate must
  /// hold where the node would have read that beacon, even if it
  /// declares `false` in between. Every node starts hearing (`false`).
  /// The extremum sessions of core/role_session.hpp keep it equal to
  /// "not in an active session"; the lock-step golden tests pin the
  /// contract for the in-tree algorithms.
  void set_beacon_deaf(bool deaf);

 private:
  SimDriver& driver_;
  Cluster& cluster_;
  NodeId id_;
};

/// Capabilities available to the coordinator algorithm: its downlinks
/// (unicast / broadcast), its RNG, the control plane, and the protocol
/// epoch counter. Node state is not reachable.
///
/// Coordinator callbacks run on the driver's thread like every other
/// callback, so every method here may touch network/driver state
/// directly.
class CoordCtx {
 public:
  /// Transient view over the driver and cluster (one per deployment).
  CoordCtx(SimDriver& driver, Cluster& cluster)
      : driver_(driver), cluster_(cluster) {}

  /// Total number of nodes in the deployment.
  std::size_t n() const noexcept { return cluster_.size(); }

  /// The coordinator's private randomness source.
  Rng& rng() { return cluster_.coordinator_rng(); }

  /// Sends `m` to node `to` (charged, subject to the network policy).
  void unicast(NodeId to, Message m) { cluster_.net().coord_unicast(to, m); }

  /// Broadcasts `m` to all nodes (charged once, per the paper's model).
  void broadcast(Message m) { cluster_.net().coord_broadcast(m); }

  /// Issues an uncharged control broadcast, delivered to every node at the
  /// start of the next node phase.
  void control_broadcast(const Control& c);

  /// The control signals raised since the current step began, in node id
  /// order within each observation phase.
  const std::vector<Signal>& signals() const;

  /// Fresh protocol epoch (tags round beacons; see Cluster).
  std::uint32_t next_protocol_epoch() noexcept {
    return cluster_.next_protocol_epoch();
  }

  /// Upper bound on the scheduling delay of any in-flight message under
  /// the deployed network policy (0 under instant delivery). Protocol
  /// sessions wait this many extra ticks after their final round so
  /// delayed reports still count.
  std::uint64_t flush_ticks() const noexcept {
    const NetworkSpec& spec = cluster_.net().spec();
    std::uint64_t out = spec.max_delay();
    if (spec.batch_window > 1) out += spec.batch_window - 1;
    return out;
  }

  /// Requests an on_timer callback: within on_message, for the current
  /// tick's coordinator timer phase; within on_timer, for the next tick.
  void arm_timer();

  // -- liveness (fault injection; see sim/fault_plan.hpp) -------------------
  // The simulated coordinator has a perfect failure detector: the driver
  // raises on_node_down/on_node_up at the tick a fault fires, and these
  // accessors expose the transport's live view. Without a fault plan
  // every node is alive and live_count() == n().

  /// True iff node `id` is currently up (receives mail, runs timers).
  bool node_alive(NodeId id) const noexcept {
    return cluster_.net().node_alive(id);
  }

  /// Number of currently-live nodes.
  std::size_t live_count() const noexcept {
    return cluster_.net().live_nodes();
  }

 private:
  SimDriver& driver_;
  Cluster& cluster_;
};

/// The node-side half of a monitoring algorithm (one instance per node).
class NodeAlgo {
 public:
  virtual ~NodeAlgo() = default;

  /// First observation (time 0), before the coordinator initializes.
  virtual void on_init(NodeCtx& ctx, Value v0) { (void)ctx, (void)v0; }

  /// A new observation arrived (time t >= 1).
  virtual void on_observe(NodeCtx& ctx, Value v, TimeStep t) {
    (void)ctx, (void)v, (void)t;
  }

  /// A charged message (unicast or broadcast) was delivered.
  virtual void on_message(NodeCtx& ctx, const Message& m) {
    (void)ctx, (void)m;
  }

  /// An uncharged control broadcast was delivered.
  virtual void on_control(NodeCtx& ctx, const Control& c) {
    (void)ctx, (void)c;
  }

  /// A previously armed timer fired (one protocol round per tick).
  virtual void on_timer(NodeCtx& ctx) { (void)ctx; }

  /// The node came back up after a crash (or joined for the first time,
  /// after on_init). Machine state (value, RNG, filter fields held by the
  /// algorithm instance) survives the outage; implementations should drop
  /// *session-scoped* state here — a protocol execution convened during
  /// the outage proceeded without this node, so replaying its stale
  /// session role would corrupt the run. The coordinator is told via
  /// on_node_up in the same tick and starts the monitor's re-sync
  /// handshake.
  virtual void on_recover(NodeCtx& ctx) { (void)ctx; }
};

/// The coordinator-side half of a monitoring algorithm.
class CoordinatorAlgo {
 public:
  virtual ~CoordinatorAlgo() = default;

  /// Short identifier used in tables ("topk_filter", "naive", ...).
  virtual std::string_view name() const = 0;

  /// Called once at time 0, after every node ran on_init.
  virtual void on_init(CoordCtx& ctx) { (void)ctx; }

  /// Called after the nodes observed the values of step t (t >= 1) and
  /// raised their signals, before any delivery tick of the step.
  virtual void on_step_begin(CoordCtx& ctx, TimeStep t) { (void)ctx, (void)t; }

  /// A charged upstream message was delivered.
  virtual void on_message(CoordCtx& ctx, const Message& m) {
    (void)ctx, (void)m;
  }

  /// A tick's charged upstream mail was delivered. The driver calls this
  /// once per tick that has coordinator mail, with all of it in arrival
  /// order (the order on_message would see it). The default hands each
  /// message to on_message. An override that takes the batch in one body
  /// must keep on_message handling a single message with the same
  /// outcome: a pass-through wrapper that forwards only on_message (such
  /// as a timing shim) reaches the algorithm one message at a time.
  virtual void on_mail(CoordCtx& ctx, std::span<const Message> mail) {
    for (const Message& m : mail) on_message(ctx, m);
  }

  /// A previously armed timer fired (one protocol round per tick).
  virtual void on_timer(CoordCtx& ctx) { (void)ctx; }

  /// Called when the step's delivery ticks are exhausted (quiescence or
  /// tick budget). The answer returned by topk() must be current here.
  virtual void on_step_end(CoordCtx& ctx, TimeStep t) { (void)ctx, (void)t; }

  // -- fault hooks (default no-ops; see sim/fault_plan.hpp) -----------------
  // Fired by the driver at the tick a fault event applies, after the
  // transport state changed (ctx.node_alive already reflects the event).
  // The model is a perfect failure detector: detection itself is
  // uncharged, like the signal plane; everything the coordinator *does*
  // about it (probes, re-anchoring, renegotiation) is charged normally.

  /// Node `id` crashed or left. A correct monitor must stop counting it:
  /// drop it from the answer and from any quorum the in-flight protocol
  /// session expects a response from.
  virtual void on_node_down(CoordCtx& ctx, NodeId id) { (void)ctx, (void)id; }

  /// Node `id` recovered (or joined). Its node-side algorithm state is
  /// whatever survived the outage; the coordinator owns re-integration
  /// (the re-sync handshake).
  virtual void on_node_up(CoordCtx& ctx, NodeId id) { (void)ctx, (void)id; }

  /// Dynamic reconfiguration: monitor a new top-k size from now on,
  /// renegotiating warm state rather than cold-restarting. `k` is
  /// validated against the live node count by the FaultPlan.
  virtual void on_set_k(CoordCtx& ctx, std::size_t k) { (void)ctx, (void)k; }

  /// The coordinator's current answer: ids of the top-k nodes, sorted by
  /// id (canonical set representation).
  virtual const std::vector<NodeId>& topk() const = 0;

  /// Algorithm-level event counters (virtual so wrappers, such as
  /// perfbench's timing coordinator, can forward the inner counters).
  virtual const MonitorStats& monitor_stats() const noexcept { return mstats_; }

 protected:
  MonitorStats mstats_;
};

}  // namespace topkmon
