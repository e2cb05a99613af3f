// Role-separated implementation of the B&O-style slack monitor ("slack"):
// one shared boundary, every violator reports
// its fresh value directly, and the handler polls the side whose extremum
// the violations did not deliver instead of running a protocol session.
//
// Under the instant NetworkSpec the port is message-for-message identical
// to the frozen records of the lock-step implementation it replaced
// (asserted by the differential harness in
// tests/core/role_port_harness.hpp): same kViolation reports, same
// kProtocolStart poll shouts, same kValueReport replies, same single
// kFilterUpdate per boundary move, same counter stream, and — since the
// slack monitor is deterministic — untouched RNGs. Under delay, jitter or
// drop policies the poll windows stretch to the network's flush bound and
// lost replies degrade to the identity of the missing side, exactly like
// the filter monitor's sessions.
//
// Membership (which nodes count as top-k) changes only at a reset; it is
// common knowledge in the lock-step model, so the port distributes it over
// the uncharged control plane as id-bitmap broadcasts — the same free
// synchronization the kStartSession controls grant the filter monitor.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "core/filter.hpp"
#include "core/roles.hpp"

namespace topkmon {

/// Control opcodes of the slack monitor's control plane.
enum class SlackControlOp : std::int64_t {
  /// Membership bitmap word: a = word index (ids [128a, 128a+128)),
  /// b = bits for ids 128a..128a+63, c = bits for ids 128a+64..128a+127.
  kMembership = 1,
};

/// Which nodes a kProtocolStart poll addresses (payload a; payloads are
/// not charged differently, so the side marker rides in the message).
enum class SlackPollSide : std::int64_t {
  kRest = 0,  ///< outsiders (max poll)
  kTop = 1,   ///< top-k members (min poll)
  kAll = 2,   ///< everyone (reset poll)
};

/// Node-side half: filter check, direct violation reports, poll replies.
class SlackNode final : public NodeAlgo {
 public:
  SlackNode() = default;

  void on_init(NodeCtx& ctx, Value v0) override;
  void on_observe(NodeCtx& ctx, Value v, TimeStep t) override;
  void on_message(NodeCtx& ctx, const Message& m) override;
  void on_control(NodeCtx& ctx, const Control& c) override;
  void on_recover(NodeCtx& ctx) override;

  // -- introspection for tests ---------------------------------------------
  bool member() const noexcept { return member_; }

 private:
  void rebuild_filter(NodeCtx& ctx);

  bool member_ = false;
  bool has_bound_ = false;
  Value bound_ = 0;
  Filter filter_{};  ///< [-inf, +inf] until the first boundary arrives
};

/// Coordinator-side half: violation collection, side polls, resets, and
/// the (optionally adaptive) asymmetric boundary placement.
class SlackCoordinator final : public CoordinatorAlgo {
 public:
  struct Options {
    double alpha = 0.5;    ///< boundary offset fraction above T-
    bool adaptive = false; ///< learn alpha from the violation mix
    /// TEST-ONLY mutation knob for the differential harness's property
    /// test: shifts every applied boundary by this many value units
    /// *after* clamping, producing an off-by-`nudge` boundary that a
    /// sound equivalence harness must flag against the lock-step oracle.
    /// Never set outside tests/.
    Value debug_boundary_nudge = 0;
  };

  explicit SlackCoordinator(std::size_t k) : SlackCoordinator(k, {}) {}
  SlackCoordinator(std::size_t k, Options opts);

  std::string_view name() const override {
    return opts_.adaptive ? "slack_adaptive" : "slack_fixed";
  }
  void on_init(CoordCtx& ctx) override;
  void on_step_begin(CoordCtx& ctx, TimeStep t) override;
  void on_message(CoordCtx& ctx, const Message& m) override;
  void on_timer(CoordCtx& ctx) override;
  const std::vector<NodeId>& topk() const override { return topk_ids_; }

  // -- fault hooks (sim/fault_plan.hpp) -------------------------------------
  void on_node_down(CoordCtx& ctx, NodeId id) override;
  void on_node_up(CoordCtx& ctx, NodeId id) override;
  void on_set_k(CoordCtx& ctx, std::size_t k) override;

  // -- introspection for tests ---------------------------------------------
  Value boundary() const noexcept { return bound_; }

 private:
  enum class Phase : std::uint8_t {
    kIdle,
    kPollSide,  ///< waiting for the missing side's poll replies
    kPollAll,   ///< waiting for the reset poll replies
  };

  double effective_alpha() const noexcept;
  Value choose_boundary() const;
  void start_poll(CoordCtx& ctx, SlackPollSide side);
  void conclude_side_poll(CoordCtx& ctx);
  void conclude_reset_poll(CoordCtx& ctx);
  void begin_reset(CoordCtx& ctx);
  void apply_boundary(CoordCtx& ctx, Value b);
  void broadcast_membership(CoordCtx& ctx);
  void rebuild_id_lists();
  std::size_t live_side_size(CoordCtx& ctx,
                             const std::vector<NodeId>& side) const;

  std::size_t k_;
  Options opts_;
  std::size_t n_ = 0;
  bool degenerate_ = false;  ///< k == n: the answer can never change

  // Answer / membership (coordinator's view).
  std::vector<char> in_topk_;
  std::vector<NodeId> topk_ids_;
  std::vector<NodeId> topk_list_;
  std::vector<NodeId> rest_list_;
  Value tplus_ = 0;
  Value tminus_ = 0;
  Value bound_ = 0;
  bool established_ = false;  ///< a reset installed an answer

  // Adaptive-alpha violation mix since the last reset.
  std::uint64_t top_violations_ = 0;
  std::uint64_t bot_violations_ = 0;

  // Current repair (one violating step's handler).
  Phase phase_ = Phase::kIdle;
  bool collect_ = false;  ///< violation mail still landing this tick
  SlackPollSide side_ = SlackPollSide::kRest;  ///< running poll's audience
  bool has_top_ = false;  ///< top-side violations signalled this repair
  bool has_bot_ = false;
  Value viol_min_ = kPlusInf;   ///< min over violating member reports
  Value viol_max_ = kMinusInf;  ///< max over violating outsider reports
  std::uint64_t wait_ = 0;      ///< poll window ticks left
  Value poll_best_ = 0;         ///< running extremum of the side poll
  bool poll_seen_ = false;
  std::vector<std::pair<Value, NodeId>> reset_reports_;  ///< (w, id) replies
};

}  // namespace topkmon
