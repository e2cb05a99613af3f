// Root tier of the hierarchical multi-coordinator deployment, plus the
// deployment object that assembles both tiers.
//
// The root tier is itself a role-based deployment on a c-node cluster:
// each "node" is a ShardAgent speaking for one shard coordinator (via its
// ShardAdapter), and the RootMergeCoordinator runs a second filter layer
// over those c virtual nodes, whose "values" are the shard extrema
// (U_s = weakest member, L_s = strongest outsider). Root-tier traffic
// flows through the root cluster's own Network/CommStats, so the
// shard<->root message count is accounted separately from the
// node<->shard tier — the quantity the sharding experiments plot.
//
// Root protocol (instant root network, existing MsgKinds only):
//
//   agent -> root   kViolation    a = U_s, b = L_s. Sent at bootstrap and
//                                 whenever the shard's boundary crossed
//                                 the root filter (crossing()).
//   root -> agents  kProbe        broadcast: "requery exact extrema and
//                                 report" — opens a renegotiation.
//   root -> agent   kFilterAssign a = new quota (renegotiation transfer;
//                                 the agent replies with fresh extrema).
//   root -> agents  kFilterUpdate a = R, the new shared root boundary;
//                                 each shard re-anchors its filters on it.
//
// A renegotiation collects exact extrema from every shard, then moves
// quota one unit at a time from the shard with the weakest member (min U)
// to the shard with the strongest outsider (max L) while L_gainer >
// U_loser — each transfer strictly improves the merged member multiset,
// so the fixpoint terminates — and finally anchors every shard on
// R = midpoint(max_s L_s, min_s U_s), restoring L_s <= R <= U_s for all s
// (the exactness invariant of core/shard_coordinator.hpp). In steady
// state no boundary crosses R and the root tier is silent: all traffic
// stays inside the shards.
//
// The deployment needs c >= 2 shards: the one-coordinator case is the
// monolithic deployment (exp::run_scenario at shards = 1).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/deployment.hpp"
#include "core/driver.hpp"
#include "core/roles.hpp"
#include "core/shard_coordinator.hpp"
#include "sim/cluster.hpp"
#include "sim/fault_plan.hpp"

namespace topkmon {

/// Root-tier node algorithm: one per shard, wrapping its ShardAdapter.
/// Stays in the needs-observe set forever (the crossing poll is the
/// per-step work).
class ShardAgent final : public NodeAlgo {
 public:
  explicit ShardAgent(ShardAdapter& adapter) : adapter_(adapter) {}

  void on_init(NodeCtx& ctx, Value) override {
    send_extrema(ctx, adapter_.extrema());
  }
  void on_observe(NodeCtx& ctx, Value, TimeStep) override {
    if (adapter_.crossing()) send_extrema(ctx, adapter_.extrema());
  }
  void on_message(NodeCtx& ctx, const Message& m) override {
    switch (m.kind) {
      case MsgKind::kProbe:
        send_extrema(ctx, adapter_.requery());
        break;
      case MsgKind::kFilterAssign:
        send_extrema(ctx,
                     adapter_.set_quota(static_cast<std::size_t>(m.a)));
        break;
      case MsgKind::kFilterUpdate:
        adapter_.set_pin(m.a);
        break;
      default:
        break;
    }
  }

 private:
  void send_extrema(NodeCtx& ctx, const ShardExtrema& e) {
    Message m;
    m.kind = MsgKind::kViolation;
    m.a = e.weakest_member;
    m.b = e.strongest_outsider;
    ctx.send(m);
  }

  ShardAdapter& adapter_;
};

/// Root-tier coordinator: merges the c shard answers and renegotiates
/// quotas/boundary when a shard reports a crossing (see file comment).
/// Assembles the global answer on the uncharged measurement plane each
/// step — the charged protocol's job is maintaining the union-correctness
/// invariant, not shipping the id list (the monolithic coordinator's
/// answer set is equally a coordinator-local view).
class RootMergeCoordinator final : public CoordinatorAlgo {
 public:
  /// `name` is reported as the deployment's monitor name (the inner
  /// monitor's, so result tables name the same monitor at every c).
  RootMergeCoordinator(std::string name, std::size_t k,
                       std::span<const std::unique_ptr<ShardAdapter>> adapters,
                       std::vector<ShardRange> ranges);

  std::string_view name() const override { return name_; }
  void on_init(CoordCtx& ctx) override;
  void on_step_begin(CoordCtx& ctx, TimeStep t) override;
  void on_message(CoordCtx& ctx, const Message& m) override;
  void on_step_end(CoordCtx& ctx, TimeStep t) override;
  const std::vector<NodeId>& topk() const override { return topk_ids_; }

  /// Dynamic reconfiguration: renegotiate the global top-k size to `k`
  /// at the next step. The quota fixpoint generalizes to an off-target
  /// total: while sum(quota) < k the shard with the strongest outsider
  /// is granted a slot, while sum(quota) > k the shard with the weakest
  /// member gives one up — each kFilterAssign moves the total one unit
  /// toward k before the usual improving transfers run, so the
  /// renegotiation terminates at the new total with the merged answer
  /// exact. Callable between steps (scenario-side fault plumbing); the
  /// next on_step_begin opens the renegotiation.
  void request_k(std::size_t k) noexcept { pending_k_ = k; }

 private:
  /// Latest extrema report from one shard. `fresh` means "reported since
  /// the last probe/assign touched this shard" — quota decisions only run
  /// on a full set of fresh, exact extrema.
  struct Info {
    Value u = kPlusInf;
    Value l = kMinusInf;
    bool fresh = false;
  };

  void begin_renegotiation(CoordCtx& ctx);
  void advance_fixpoint(CoordCtx& ctx);
  void finish_renegotiation(CoordCtx& ctx);

  std::string name_;
  std::size_t k_;
  std::span<const std::unique_ptr<ShardAdapter>> adapters_;
  std::vector<ShardRange> ranges_;

  enum class RPhase : std::uint8_t {
    kIdle,     ///< steady state; a kViolation opens a renegotiation
    kCollect,  ///< waiting for fresh extrema from every shard
  };
  RPhase rphase_ = RPhase::kIdle;
  std::optional<std::size_t> pending_k_;  ///< request_k, applied at step begin
  std::vector<Info> info_;
  std::size_t fresh_ = 0;  ///< number of shards with info_[s].fresh

  TimeStep cur_step_ = 0;
  bool violation_this_step_ = false;

  std::vector<NodeId> topk_ids_;
};

/// Construction parameters of a two-tier sharded deployment.
struct ShardedSpec {
  std::size_t n = 0;          ///< total nodes (incl. not-yet-joined ids)
  std::size_t k = 0;          ///< global top-k size
  std::size_t shards = 2;     ///< shard count c (2 <= c <= n)
  std::uint64_t seed = 0;     ///< scenario seed (shard 0 keeps it verbatim)
  NetworkSpec network{};      ///< node<->shard policy (root net is instant)
  /// Must be 1: ShardedDeployment throws std::invalid_argument for any
  /// other value, 0 included. Kept only because perfbench, the
  /// repository's fixed benchmark instrument, sets it.
  std::size_t workers = 1;
  bool dense_loop = false;    ///< diagnostic dense inner driver loops
  enum class Monitor : std::uint8_t { kFilter, kNaive, kNaiveChg };
  Monitor monitor = Monitor::kFilter;
  /// topk_filter's beacon-suppression ablation, forwarded to every shard.
  bool suppress_idle_broadcasts = false;
  /// Deployment-level fault schedule (global ids; nullptr = fault-free;
  /// must outlive the deployment). Membership churn is carved into
  /// per-shard plans with shard-local ids and fired by the shard drivers;
  /// quotas split over the initially-live prefix only; step() applies
  /// kSetK events through set_k at the head of their step. Degradations
  /// (lag/stale/mute/heal) are not supported sharded: the constructor
  /// rejects such plans.
  const FaultPlan* faults = nullptr;
};

/// A complete two-tier deployment: c shard deployments plus the root
/// tier, behind the same Deployment surface as a monolithic run.
/// Single-threaded: step() steps the shards one after another in index
/// order, then the root tier.
class ShardedDeployment final : public Deployment {
 public:
  /// Throws std::invalid_argument, before any shard is built, when
  /// spec.shards is outside [2, n], spec.workers != 1 or the fault plan
  /// contains adversarial degradations.
  explicit ShardedDeployment(const ShardedSpec& spec);

  std::size_t shards() const noexcept { return ranges_.size(); }
  /// Owning shard of a global node id.
  std::size_t shard_of(NodeId global) const;

  /// Routes a global-id value write to the owning shard's cluster.
  void set_value(NodeId global, Value v);
  /// set_value(id, frame.column[id]) for every listed id, or every id
  /// whose bit the dense frame's mask sets (shard by shard). Throws
  /// std::invalid_argument for a mask not sized n.
  void set_values(const StepFrame& frame) override;

  /// Opens step t on every shard cluster's counters.
  void begin_step(TimeStep t) override;

  /// Time 0: values must already be set. Initializes every shard (serial),
  /// then the root tier — the bootstrap renegotiation establishes R and
  /// anchors every shard on it before the first observation step.
  void initialize() override;

  /// One observation step; `changed` holds global ids (any order).
  /// Applies the fault plan's kSetK events scheduled at t first (set_k).
  /// Throws std::out_of_range, before any shard steps, if an id is >= n.
  void step(TimeStep t, std::span<const NodeId> changed);
  /// The loop's step: a dense frame's mask splits into the same
  /// per-shard id lists, so every frame shape reaches the shards through
  /// one step path. Throws std::invalid_argument for a mask not sized n.
  void step(TimeStep t, const StepFrame& frame) override;

  /// Dynamic reconfiguration to a new global top-k size (1 <= k <= n),
  /// applied warm: the root renegotiates shard quotas to the new total
  /// at the next step (RootMergeCoordinator::request_k). Call between
  /// steps, before the step the new k takes effect at.
  void set_k(std::size_t k);

  const std::vector<NodeId>& topk() const override {
    return root_coord_->topk();
  }
  std::string_view name() const override { return root_coord_->name(); }
  Cluster& shard_cluster(std::size_t s) { return adapters_.at(s)->cluster(); }
  const ShardAdapter& shard(std::size_t s) const { return *adapters_.at(s); }

  /// Max inner-driver delivery ticks across the shards. Monotonic across
  /// filter-shard rebuilds (each shard's clock lives on its warm
  /// cluster), so recovery windows measure the same clock the monolithic
  /// deployment reads off SimDriver::now().
  SimTime ticks() const override;

  /// comm = node_shard_comm(), root_comm = shard_root_comm(),
  /// monitor = monitor_totals().
  void fill_result(RunResult& result) override;

  /// node<->shard tier message totals: the per-shard cluster counters
  /// summed, per-step series merged element-wise.
  CommStats node_shard_comm();
  /// shard<->root tier message totals.
  const CommStats& shard_root_comm() const { return root_cluster_->stats(); }
  /// Algorithm counters: shard coordinators' (retired + live) plus the
  /// root's, summed field-wise.
  MonitorStats monitor_totals() const;

 private:
  void check_mask(const IdBitset& mask) const;
  /// Applies the step's kSetK events, then steps every shard on
  /// changed_by_shard_ and the root tier.
  void step_shards(TimeStep t);

  ShardedSpec spec_;
  std::vector<ShardRange> ranges_;
  /// Per-shard carved fault schedules (shard-local ids). Filled once in
  /// the constructor and never resized after: the adapters hold stable
  /// pointers into it, so it must be declared before them (destroyed
  /// after).
  std::vector<FaultPlan> shard_plans_;
  std::vector<std::unique_ptr<ShardAdapter>> adapters_;
  std::vector<std::unique_ptr<NodeAlgo>> agents_;
  std::unique_ptr<Cluster> root_cluster_;
  std::unique_ptr<RootMergeCoordinator> root_coord_;
  std::unique_ptr<SimDriver> root_driver_;
  std::vector<std::vector<NodeId>> changed_by_shard_;  ///< step scratch
  std::size_t next_k_event_ = 0;  ///< fault-plan cursor of step()'s set_k
};

}  // namespace topkmon
