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
// announcement, which is how suites e1-e3 measure Algorithm 2. Under
// delay the next iteration waits for the previous announcement to land;
// a selection that cannot finish within a step's tick budget carries
// over, and the next step reselects once it concludes.
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
  void begin_selection(CoordCtx& ctx);
  void start_iteration(CoordCtx& ctx);
  void conclude_session(CoordCtx& ctx);
  void finish_selection();
  void abort_selection();

  std::size_t k_;
  std::size_t n_ = 0;
  std::vector<NodeId> topk_ids_;

  bool selecting_ = false;
  std::vector<NodeId> winners_;  ///< this selection's winners, best first
  std::size_t iterations_ = 0;   ///< sessions this selection convened
  bool pending_iteration_ = false;
  std::uint64_t gap_ = 0;  ///< ticks left before the next iteration
  CoordProtoSession sess_;
};

}  // namespace topkmon
