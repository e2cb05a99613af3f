// Role-separated implementation of the dominance-slot monitor
// ("dominance"): the coordinator maintains a total order of
// per-node midpoint slots in the injective w-space w = v·n + (n-1-id);
// every node checks its own w against its assigned slot interval locally,
// reports violations directly, and the coordinator re-slots violators —
// occupying vacated gaps outright and splitting occupied slots after a
// one-unicast probe of the incumbent.
//
// Under the instant NetworkSpec the port is message-for-message identical
// to the frozen records of the lock-step implementation it replaced
// (tests/core/lockstep_golden.inc): same init shout/report/assign cycle,
// same kViolation reports, same probe/report pairs, same kFilterAssign
// unicasts, same counters; the monitor draws no randomness. Under delay or
// drop policies each probe stretches to the network round trip and a lost
// probe reply falls back to the incumbent's last known w — the split is
// then placed on slightly stale information, which the incumbent's own
// next violation repairs.
//
// A recovered node is re-synced through the coordinator's RecoveryGuard
// (core/role_session.hpp): probed, re-probed with capped backoff when the
// probe or reply is lost, and placed like a violator once its w arrives.
// Dominance runs no suspicion policy.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "core/filter.hpp"
#include "core/role_session.hpp"
#include "core/roles.hpp"

namespace topkmon {

/// Node-side half: w-space filter check, violation reports, probe replies.
class DominanceNode final : public NodeAlgo {
 public:
  DominanceNode() = default;

  void on_init(NodeCtx& ctx, Value v0) override;
  void on_observe(NodeCtx& ctx, Value v, TimeStep t) override;
  void on_message(NodeCtx& ctx, const Message& m) override;
  void on_recover(NodeCtx& ctx) override;

 private:
  Value to_w(const NodeCtx& ctx, Value v) const noexcept;

  bool has_filter_ = false;
  Filter filter_{};  ///< slot interval in w-space
};

/// Coordinator-side half: the slot order, violator placement queue, and
/// the probe round trips.
class DominanceCoordinator final : public CoordinatorAlgo {
 public:
  explicit DominanceCoordinator(std::size_t k);

  std::string_view name() const override { return "dominance_midpoint"; }
  void on_init(CoordCtx& ctx) override;
  void on_step_begin(CoordCtx& ctx, TimeStep t) override;
  void on_message(CoordCtx& ctx, const Message& m) override;
  void on_timer(CoordCtx& ctx) override;
  const std::vector<NodeId>& topk() const override { return topk_ids_; }

  // -- fault hooks (sim/fault_plan.hpp) -------------------------------------
  void on_node_down(CoordCtx& ctx, NodeId id) override;
  void on_node_up(CoordCtx& ctx, NodeId id) override;
  /// Dynamic k is free: the slot order already ranks every node, so the
  /// answer is re-read as the first k slot owners. No messages.
  void on_set_k(CoordCtx& ctx, std::size_t k) override;

  // -- introspection for tests ---------------------------------------------
  /// Slot owners from the top slot down (the monitor's full ranking).
  std::vector<NodeId> full_order() const;

 private:
  struct Slot {
    std::optional<NodeId> owner;
    Value lo = kMinusInf;  ///< w-space interval [lo, hi]
    Value hi = kPlusInf;
    Value known_w = 0;  ///< owner's w when the slot was assigned
  };

  enum class Phase : std::uint8_t {
    kIdle,
    kInitWait,   ///< collecting the init shout's replies
    kPlace,      ///< draining the violator placement queue
    kProbeWait,  ///< a split probe's round trip is in flight
  };

  void assign_filter(CoordCtx& ctx, NodeId id, Value lo_w, Value hi_w);
  /// First (highest) slot whose lower bound is <= w; nullopt when the
  /// tiling is broken (possible only after message loss desynced state).
  std::optional<std::size_t> find_slot(Value w) const;
  void build_slots(CoordCtx& ctx);
  /// Drains the placement queue until empty or a probe suspends it.
  void drain_queue(CoordCtx& ctx);
  void split_slot(CoordCtx& ctx, Value other_w);
  void compact_slots();
  void refresh_topk();
  void vacate(NodeId id);

  std::size_t k_;
  std::size_t n_ = 0;

  std::vector<Slot> slots_;
  std::vector<NodeId> topk_ids_;

  Phase phase_ = Phase::kIdle;
  bool collect_ = false;  ///< violation mail still landing this tick
  std::uint64_t wait_ = 0;
  std::vector<std::pair<Value, NodeId>> init_reports_;  ///< (w, id)
  std::vector<std::pair<Value, NodeId>> viol_new_;      ///< unplaced reports

  // Placement queue (descending w) and the in-flight probe.
  std::vector<std::pair<Value, NodeId>> queue_;  ///< drained front to back
  std::size_t queue_at_ = 0;
  std::size_t probe_slot_ = 0;    ///< slot index being split
  NodeId probe_owner_ = 0;        ///< incumbent being probed
  Value probe_w_ = 0;             ///< violator w waiting on the probe
  NodeId probe_violator_ = 0;
  std::optional<Value> probe_reply_;

  RecoveryGuard guard_;  ///< crash-recovery re-syncs only
};

}  // namespace topkmon
