// Role-separated implementation of the ordered top-k monitor ("ordered"):
// the hybrid of the shared k-th/(k+1)-st
// boundary (filter monitor) below with per-member midpoint slots
// (dominance monitor) above, all in the injective w-space
// w = v·n + (n-1-id). Members guard their rank slot, outsiders guard the
// boundary, and every repair runs the randomized extremum protocol as
// event-driven sessions (core/role_session.hpp).
//
// The coordinator drives Algorithm 1's violation cycle on a
// ViolationCycle (core/role_session.hpp) and keeps the ordered rule: the
// boundary midpoint, the member re-rank after it, and the order a
// selection installs.
//
// Under the instant NetworkSpec the port is message-for-message and
// coin-flip-for-coin-flip identical to the frozen records of the
// lock-step implementation it replaced (differential harness,
// tests/core/role_port_harness.hpp): the same
// session sequence per violating step (below-crossers' min, outsiders'
// max, the missing side under a charged kProtocolStart, then a k-round
// member re-selection whenever the order above the boundary may have
// changed), the same kFilterUpdate boundary broadcasts, the same
// announce-driven FILTERRESET selections, and the same counters.
//
// Membership, rank and slot intervals are derived by each node locally
// from the selection announce order — the same free knowledge the
// lock-step model grants — so no extra charged messages are needed.
#pragma once

#include <cstdint>
#include <vector>

#include "core/filter.hpp"
#include "core/role_session.hpp"
#include "core/roles.hpp"

namespace topkmon {

/// Control opcodes of the ordered monitor's control plane.
enum class OrderedControlOp : std::int64_t {
  /// a = direction (0 = max, 1 = min), b = participant group
  /// (OrderedSessionGroup), c = (epoch << 8) | log_n.
  kStartSession = kStartSessionOp,
  /// A selection begins: a = number of winners to announce, b = type
  /// (0 = full reset over everyone, 1 = member re-rank), c = current k.
  kStartSelection = 2,
};

/// Who participates in a protocol session (each node decides locally).
enum class OrderedSessionGroup : std::int64_t {
  kViolBelow = 0,     ///< members holding an unconsumed below-boundary fall
  kViolOut = 1,       ///< outsiders holding an unconsumed violation
  kAllMembers = 2,    ///< nodes believing they are members
  kAllOutsiders = 3,  ///< nodes believing they are outsiders
  kSelectAll = 4,     ///< full-reset participants not yet announced
  kSelectMembers = 5, ///< member re-rank participants not yet announced
};

/// Node-side half: w-space slot/boundary check, violation signals,
/// session participation, and announce-derived rank bookkeeping.
class OrderedNode final : public NodeAlgo {
 public:
  explicit OrderedNode(std::size_t k) : k_(k) {}

  void on_init(NodeCtx& ctx, Value v0) override;
  void on_observe(NodeCtx& ctx, Value v, TimeStep t) override;
  void on_message(NodeCtx& ctx, const Message& m) override;
  void on_control(NodeCtx& ctx, const Control& c) override;
  void on_timer(NodeCtx& ctx) override;
  void on_recover(NodeCtx& ctx) override;

  // -- introspection for tests ---------------------------------------------
  bool member() const noexcept { return member_; }

 private:
  enum class Pending : std::uint8_t { kNone, kBelow, kOut };
  enum class SelType : std::uint8_t { kFull, kInternal };

  Value to_w(const NodeCtx& ctx, Value v) const noexcept;
  bool boundary_active(const NodeCtx& ctx) const noexcept {
    return k_ < ctx.n();
  }
  void finish_selection(NodeCtx& ctx);
  void rebuild_slot(NodeCtx& ctx);

  std::size_t k_;
  bool member_ = false;
  std::size_t rank_ = 0;  ///< 0-based; valid while member_
  Value mid_w_ = kMinusInf;
  Value slot_hi_ = kPlusInf;  ///< own slot's upper bound (members)
  Filter filter_{};           ///< current guard interval in w-space
  Pending pending_ = Pending::kNone;
  SelType sel_type_ = SelType::kFull;
  NodeProtoSession sess_;
  NodeSelection sel_;  ///< the announce-derived ranks of a selection
};

/// Coordinator-side half: the T+/T- accumulators, the member order, and
/// the selections, on the shared violation cycle.
class OrderedCoordinator final : public CoordinatorAlgo {
 public:
  struct Options {
    /// Skip session-round beacons that would repeat the running extremum
    /// (the lock-step grammar's `nobeacon`).
    bool suppress_idle_broadcasts = false;
  };

  explicit OrderedCoordinator(std::size_t k) : OrderedCoordinator(k, {}) {}
  OrderedCoordinator(std::size_t k, Options opts);

  std::string_view name() const override { return "ordered_topk"; }
  void on_init(CoordCtx& ctx) override;
  void on_step_begin(CoordCtx& ctx, TimeStep t) override;
  void on_message(CoordCtx& ctx, const Message& m) override;
  void on_timer(CoordCtx& ctx) override;
  const std::vector<NodeId>& topk() const override { return topk_ids_; }

  // -- fault hooks (sim/fault_plan.hpp) -------------------------------------
  void on_node_down(CoordCtx& ctx, NodeId id) override;
  void on_node_up(CoordCtx& ctx, NodeId id) override;
  void on_set_k(CoordCtx& ctx, std::size_t k) override;

  // -- introspection for tests / answer validation --------------------------
  /// The monitored order, best first (what the answer validation checks
  /// rank by rank).
  const std::vector<NodeId>& ordered_topk() const noexcept { return order_; }

 private:
  enum class SelType : std::uint8_t { kFull, kInternal };

  friend struct ViolationCycle;
  /// The cycle's sessions in this monitor's groups (ViolationCycle port).
  SessionSpec cycle_session(CycleSession s) const noexcept;
  Value cycle_key(NodeId id, Value v) const noexcept { return to_w(id, v); }
  /// Winners a selection announces: k+1 for a full reset (k when no
  /// boundary exists), k for a member re-rank.
  std::size_t selection_target() const noexcept {
    return sel_type_ == SelType::kFull && boundary_active_ ? k_ + 1 : k_;
  }

  Value to_w(NodeId id, Value v) const noexcept;
  void start_cycle(CoordCtx& ctx);
  void decide(CoordCtx& ctx);
  void begin_full_reset(CoordCtx& ctx);
  void begin_selection(CoordCtx& ctx, SelType type);
  void finish_selection(CoordCtx& ctx);
  void cycle_done(CoordCtx& ctx);
  void rebuild_id_lists();

  std::size_t k_;
  std::size_t n_ = 0;
  bool boundary_active_ = false;  ///< k < n: the shared boundary exists

  // Answer (coordinator's view).
  std::vector<NodeId> order_;    ///< member ids, best rank first
  std::vector<Value> known_w_;   ///< members' w at the last re-rank
  std::vector<char> in_topk_;
  std::vector<NodeId> topk_ids_;  ///< order_ sorted by id (the answer set)
  Value tplus_w_ = 0;
  Value tminus_w_ = 0;
  Value mid_w_ = kMinusInf;

  // Violations signalled but not yet consumed by a cycle.
  bool pending_below_ = false;
  bool pending_out_ = false;
  bool pending_internal_ = false;
  bool cycle_internal_ = false;  ///< internal churn rode along this cycle

  /// The violation cycle: its sessions, extrema and selections.
  ViolationCycle cycle_;
  SelType sel_type_ = SelType::kFull;
};

}  // namespace topkmon
