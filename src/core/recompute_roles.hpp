// Native role-separated implementation of the "classical" algorithm of
// §2.1: no filters — every observation step the coordinator recomputes
// the top-k from scratch by k repeated MAXIMUMPROTOCOL(n) runs, costing
// O(k log n) messages per step, O(T k log n) over T steps. Optimal up to
// the factor k on worst-case inputs (rotating maxima) but oblivious to
// temporal similarity; the filter-based Algorithm 1 exists precisely to
// beat it on similar inputs (experiments E7/E9).
//
// Each step runs one announce-driven selection: k extremum sessions
// (core/role_session.hpp) over every node not yet announced as a winner
// of this selection — the repeated-extremum selection of FILTERRESET.
// With k = 1 it is exactly one MAXIMUMPROTOCOL(n) plus one winner
// announcement, which is how suites e1-e3 measure Algorithm 2. The
// selection runs on the selection half of the shared ViolationCycle:
// under delay the next iteration waits for the previous announcement to
// land, and a selection that cannot finish within a step's tick budget
// carries over; the next step reselects once it concludes.
#pragma once

#include <cstdint>
#include <vector>

#include "core/role_session.hpp"
#include "core/roles.hpp"

namespace topkmon {

/// Node-side half: joins every session of the running selection until its
/// own winner announcement excludes it.
class RecomputeNode final : public NodeAlgo {
 public:
  void on_init(NodeCtx& ctx, Value v0) override;
  void on_message(NodeCtx& ctx, const Message& m) override;
  void on_control(NodeCtx& ctx, const Control& c) override;
  void on_timer(NodeCtx& ctx) override { sess_.run_round(ctx, ctx.value()); }
  void on_recover(NodeCtx& ctx) override;

 private:
  bool excluded_ = false;         ///< announced a winner of this selection
  std::uint32_t sel_epoch_ = 0;   ///< epoch of the selection's first session
  NodeProtoSession sess_;
};

/// Coordinator-side half: one k-winner selection per observation step.
class RecomputeCoordinator final : public CoordinatorAlgo {
 public:
  struct Options {
    /// Skip session-round beacons that would repeat the running extremum.
    bool suppress_idle_broadcasts = false;
  };

  explicit RecomputeCoordinator(std::size_t k)
      : RecomputeCoordinator(k, Options{}) {}
  RecomputeCoordinator(std::size_t k, Options opts);

  std::string_view name() const override { return "recompute"; }
  void on_init(CoordCtx& ctx) override;
  void on_step_begin(CoordCtx& ctx, TimeStep t) override;
  void on_message(CoordCtx& ctx, const Message& m) override;
  void on_timer(CoordCtx& ctx) override;
  const std::vector<NodeId>& topk() const override { return topk_ids_; }

  // -- fault hooks (sim/fault_plan.hpp) -------------------------------------
  void on_node_down(CoordCtx& ctx, NodeId id) override;
  void on_set_k(CoordCtx& ctx, std::size_t k) override;

 private:
  friend struct ViolationCycle;
  /// Every session is a selection iteration; its group word is the
  /// iteration index, so index 0 opens a new selection at the nodes.
  SessionSpec cycle_session(CycleSession) const noexcept {
    return {static_cast<std::int64_t>(cycle_.iteration), n_};
  }
  std::size_t selection_target() const noexcept { return k_; }

  void finish_selection();

  std::size_t k_;
  std::size_t n_ = 0;
  std::vector<NodeId> topk_ids_;
  ViolationCycle cycle_;  ///< only its selection half runs
};

}  // namespace topkmon
