// Bridges a legacy lock-step MonitorBase into the role-separated API.
//
// The wrapped monitor owns both roles' state and drives the network to
// quiescence synchronously inside step(); the adapter therefore runs it in
// on_step_begin and contributes inert node algos. This only makes sense
// under the instant NetworkSpec — the scenario runner rejects adapter-
// backed monitors on any other policy — but it lets every monitor in the
// registry participate in Scenario-driven experiments today while native
// ports land one by one (Algorithm 1 and the naive baseline are native;
// see core/filter_roles.hpp, core/naive_roles.hpp).
#pragma once

#include <memory>
#include <stdexcept>
#include <utility>

#include "core/monitor.hpp"
#include "core/roles.hpp"

namespace topkmon {

/// Placeholder node algorithm: the wrapped MonitorBase already simulates
/// the node side internally, so per-node observes are no-ops and the node
/// declares every value quiet.
class LockstepNode final : public NodeAlgo {
 public:
  void on_init(NodeCtx& ctx, Value) override {
    ctx.set_quiet_range(kMinusInf, kPlusInf);
  }
};

class LockstepAdapter final : public CoordinatorAlgo {
 public:
  /// `cluster` must be the cluster the SimDriver runs on (the wrapped
  /// monitor needs full access — that is exactly what makes it lock-step).
  LockstepAdapter(std::unique_ptr<MonitorBase> monitor, Cluster& cluster)
      : monitor_(std::move(monitor)), cluster_(cluster) {
    if (!monitor_) {
      throw std::invalid_argument("LockstepAdapter: null monitor");
    }
    if (!cluster_.net().spec().is_instant()) {
      throw std::invalid_argument(
          "LockstepAdapter: lock-step monitors require the instant "
          "NetworkSpec; use a native role implementation for delay/drop "
          "scenarios");
    }
  }

  std::string_view name() const override { return monitor_->name(); }

  void on_init(CoordCtx&) override { monitor_->initialize(cluster_); }

  void on_step_begin(CoordCtx&, TimeStep t) override {
    monitor_->step(cluster_, t);
  }

  const std::vector<NodeId>& topk() const override { return monitor_->topk(); }

  const MonitorStats& monitor_stats() const noexcept override {
    return monitor_->monitor_stats();
  }

  /// The wrapped implementation (validation introspection, e.g. the
  /// ordered monitor's rank order).
  const MonitorBase* lockstep() const noexcept { return monitor_.get(); }

 private:
  std::unique_ptr<MonitorBase> monitor_;
  Cluster& cluster_;
};

}  // namespace topkmon
