// Role-separated implementation of the multi-k monitor ("multi_k"):
// one shared filter-tree instance maintaining
// every requested boundary k ∈ ks at once in the injective w-space.
// Each node guards its band interval (between the midpoints of its two
// adjacent boundaries) locally, classifies its own crossing — including
// the multi-band escalation — and the coordinator repairs each crossed
// boundary with the usual violator/missing-side protocol sessions
// (core/role_session.hpp), processed in ascending boundary order.
//
// Under the instant NetworkSpec the port is message-for-message and
// coin-flip-for-coin-flip identical to the frozen records of the
// lock-step implementation it replaced (tests/core/lockstep_golden.inc,
// checked by tests/core/role_port_harness.hpp): the same
// per-boundary session sequence, the same kProtocolStart / kFilterUpdate
// broadcasts tagged with the boundary index, the same (k_max+1)-round
// announce-driven shared reset, and the same counters. Bands change only
// at a reset, so each node derives its band and every boundary midpoint
// from the announce order — the lock-step model's free knowledge — with
// no extra charged messages.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "core/filter.hpp"
#include "core/role_session.hpp"
#include "core/roles.hpp"

namespace topkmon {

/// Control opcodes of the multi-k monitor's control plane.
enum class MultiKControlOp : std::int64_t {
  /// a = direction (0 = max, 1 = min), b = (boundary << 3) | group kind
  /// (MultiKSessionGroup), c = (epoch << 8) | log_n.
  kStartSession = 1,
  /// The shared reset selection begins: a = number of winners (k_max+1).
  kStartSelection = 2,
};

/// Group kinds of a session's participant set; crosser and side groups
/// are scoped to the boundary index packed above them in the b word.
enum class MultiKSessionGroup : std::int64_t {
  kViolDown = 0,   ///< unconsumed downward crossing of boundary j
  kViolUp = 1,     ///< unconsumed upward crossing of boundary j
  kSideAbove = 2,  ///< nodes with band <= j
  kSideBelow = 3,  ///< nodes with band > j
  kSelectAll = 4,  ///< reset participants not yet announced as winners
};

/// Node-side half: band filter check, crossing classification (with the
/// multi-band escalation), session participation, announce bookkeeping.
class MultiKNode final : public NodeAlgo {
 public:
  explicit MultiKNode(std::vector<std::size_t> ks) : ks_(std::move(ks)) {}

  void on_init(NodeCtx& ctx, Value v0) override;
  void on_observe(NodeCtx& ctx, Value v, TimeStep t) override;
  void on_message(NodeCtx& ctx, const Message& m) override;
  void on_control(NodeCtx& ctx, const Control& c) override;
  void on_timer(NodeCtx& ctx) override;
  void on_recover(NodeCtx& ctx) override;

 private:
  Value to_w(const NodeCtx& ctx, Value v) const noexcept;
  void finish_selection(NodeCtx& ctx);
  void rebuild_filter(NodeCtx& ctx);

  std::vector<std::size_t> ks_;
  std::vector<std::size_t> bks_;  ///< monitored boundaries' k (k < n)
  std::size_t band_ = 0;
  std::vector<Value> mids_;  ///< boundary midpoints, w-space
  Filter filter_{};
  struct PendingCross {
    std::size_t boundary;
    bool up;
  };
  std::optional<PendingCross> pending_;
  NodeProtoSession sess_;

  bool selecting_ = false;
  bool excluded_ = false;
  std::size_t sel_want_ = 0;
  std::size_t announces_seen_ = 0;
  std::vector<Value> sel_w_;  ///< winners' w in announce (rank) order
  std::optional<std::size_t> sel_own_rank_;
};

/// Coordinator-side half: per-boundary T+/T- accumulators, the band map,
/// the boundary-by-boundary repair cycle, and the shared reset.
class MultiKCoordinator final : public CoordinatorAlgo {
 public:
  struct Options {
    /// Skip session-round beacons that would repeat the running extremum
    /// (the lock-step grammar's `nobeacon`).
    bool suppress_idle_broadcasts = false;
  };

  explicit MultiKCoordinator(std::vector<std::size_t> ks)
      : MultiKCoordinator(std::move(ks), {}) {}
  MultiKCoordinator(std::vector<std::size_t> ks, Options opts);

  std::string_view name() const override { return "multi_k"; }
  void on_init(CoordCtx& ctx) override;
  void on_step_begin(CoordCtx& ctx, TimeStep t) override;
  void on_message(CoordCtx& ctx, const Message& m) override;
  void on_timer(CoordCtx& ctx) override;
  /// The smallest monitored k's answer (band-0 nodes), mirroring the
  /// lock-step monitor's primary answer.
  const std::vector<NodeId>& topk() const override { return topk_smallest_; }

  // -- fault hooks (sim/fault_plan.hpp) -------------------------------------
  void on_node_down(CoordCtx& ctx, NodeId id) override;
  void on_node_up(CoordCtx& ctx, NodeId id) override;

  // -- introspection for tests ---------------------------------------------
  /// The answer for any monitored k (throws for an unmonitored one).
  std::vector<NodeId> topk_for(std::size_t k) const;

 private:
  enum class Phase : std::uint8_t {
    kIdle,
    kViolDown,  ///< min session over boundary j's downward crossers
    kViolUp,    ///< max session over boundary j's upward crossers
    kFullSide,  ///< boundary j's missing-side session
    kSelect,    ///< the shared reset selection runs
  };

  struct Boundary {
    std::size_t k;
    Value tplus_w = 0;
    Value tminus_w = 0;
    Value mid_w = 0;
  };

  Value to_w(NodeId id, Value v) const noexcept;
  void start_cycle(CoordCtx& ctx);
  void start_session(CoordCtx& ctx, Direction dir, MultiKSessionGroup kind,
                     std::size_t boundary, std::uint64_t n_upper);
  void conclude_session(CoordCtx& ctx);
  void advance_boundary(CoordCtx& ctx);
  void handler_transition(CoordCtx& ctx);
  void decide_boundary(CoordCtx& ctx);
  void begin_full_reset(CoordCtx& ctx);
  void finish_selection(CoordCtx& ctx);
  void refresh_answer();
  void cycle_done(CoordCtx& ctx);
  void abort_cycle();

  std::vector<std::size_t> ks_;
  std::size_t n_ = 0;
  std::vector<Boundary> boundaries_;  ///< only k < n; empty = degenerate
  std::vector<std::uint8_t> band_;
  std::vector<NodeId> topk_smallest_;
  bool installed_ = false;  ///< a reset established every boundary

  // Pending / in-cycle crossing flags, one slot per boundary.
  bool pending_escalate_ = false;
  std::vector<char> pending_down_;
  std::vector<char> pending_up_;
  std::vector<char> cycle_down_;
  std::vector<char> cycle_up_;

  Phase phase_ = Phase::kIdle;
  std::size_t cur_boundary_ = 0;  ///< boundary being repaired (kViol*/kFullSide)
  std::optional<Value> min_w_;
  std::optional<Value> max_w_;
  CoordProtoSession sess_;

  // Shared reset selection.
  std::size_t sel_want_ = 0;
  std::vector<std::pair<Value, NodeId>> sel_winners_;  ///< (raw value, id)
  bool pending_select_ = false;
  std::uint64_t select_gap_ = 0;

  bool resync_pending_ = false;
};

}  // namespace topkmon
