// Shard tier of the hierarchical multi-coordinator deployment.
//
// A sharded deployment (core/root_merge.hpp) partitions the n nodes into c
// contiguous shards. Each shard is a complete, independent role-based
// deployment — its own Cluster (network, RNG streams, message accounting),
// its own coordinator running the existing monitor protocol over a quota
// q_s of the global k (sum of quotas == k), and its own SimDriver. The
// global answer is the union of the per-shard member sets.
//
// This file provides the per-shard machinery:
//
//  * partition_shards()   word-aligned contiguous ranges, so a shard's
//                         nodes occupy whole bitset words;
//  * initial_shard_quotas() largest-remainder split of k over the ranges;
//  * ShardAdapter         the root tier's handle on one shard: poll the
//                         boundary-crossing predicate, read/refresh the
//                         shard extrema (U_s = weakest member's value,
//                         L_s = strongest outsider's value), change the
//                         quota, and re-anchor on the root boundary R;
//  * NaiveShardAdapter    naive/naive_chg shard. The coordinator's value
//                         replica already holds every node's last report,
//                         so quota changes and extrema queries are
//                         coordinator-local (no node traffic);
//  * FilterShardAdapter   Algorithm 1 shard. Extrema are exact only right
//                         after a FILTERRESET (the T+/T- accumulators go
//                         stale between resets). The reset's selection is
//                         a ranking of the live values, valid until the
//                         shard's next observation step or fault event;
//                         within that window refreshes and quota moves
//                         are answered from it (one kFilterAssign per
//                         node whose membership flips). Outside it, or
//                         past its depth, the shard rebuilds on its warm
//                         cluster — a FILTERRESET whose selections
//                         produce exact extrema and charge the
//                         node<->shard tier; growth re-ranks twice as
//                         deep, capped by the size and the global k.
//
// Exactness invariant (instant delivery): every shard keeps its filters
// anchored on one shared root boundary R with L_s <= R <= U_s. Then every
// member of any shard outranks every outsider of any shard, so the union
// of the member sets is the true global top-k. A shard whose extrema
// drift across R reports to the root (crossing() turns true), which
// renegotiates quotas and re-anchors — the steady state stays entirely
// within shards.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "core/driver.hpp"
#include "core/filter_roles.hpp"
#include "core/naive_roles.hpp"
#include "core/roles.hpp"
#include "sim/cluster.hpp"

namespace topkmon {

/// One shard's contiguous global-id range: [base, base + size).
struct ShardRange {
  NodeId base = 0;
  std::size_t size = 0;
};

/// Splits n nodes into `shards` contiguous non-empty ranges. When the
/// bitset word count (ceil(n/64)) is >= shards, boundaries are
/// word-aligned (balanced in words); otherwise the split balances node
/// counts directly. Requires 1 <= shards <= n.
std::vector<ShardRange> partition_shards(std::size_t n, std::size_t shards);

/// Largest-remainder split of the global k over the shard sizes: each
/// quota is proportional to its shard's size, capped by it, and the
/// quotas sum to exactly k. Requires k <= n.
std::vector<std::size_t> initial_shard_quotas(
    std::span<const ShardRange> ranges, std::size_t n, std::size_t k);

/// Deterministic per-shard cluster seed: shard 0 keeps the scenario seed
/// verbatim, later shards derive via SplitMix64. Every recorded sharded
/// fingerprint was produced with this seeding; deriving shard 0's seed
/// like the others would move them all.
std::uint64_t shard_seed(std::uint64_t seed, std::size_t shard) noexcept;

/// Field-wise sum of MonitorStats (per-shard totals -> deployment total).
inline void add_monitor_stats(MonitorStats& into,
                              const MonitorStats& from) noexcept {
  for (const MonitorCounter& c : kMonitorCounters) {
    into.*c.field += from.*c.field;
  }
}

/// The shard extrema the root tier merges over.
struct ShardExtrema {
  Value weakest_member = kPlusInf;     ///< U_s; +inf at quota 0
  Value strongest_outsider = kMinusInf;  ///< L_s; -inf at quota == size
};

/// Construction parameters shared by the shard adapters.
struct ShardConfig {
  std::size_t n = 0;        ///< shard size (incl. not-yet-joined ids)
  std::size_t quota = 0;    ///< initial per-shard k
  /// Global top-k: caps how deep a growing filter shard re-ranks.
  std::size_t k = 0;
  std::uint64_t seed = 0;   ///< shard cluster seed (see shard_seed)
  NetworkSpec network{};    ///< node<->shard delivery policy
  bool dense_loop = false;  ///< diagnostic dense driver loop
  /// Shard-local fault schedule (nullptr = fault-free). Must outlive the
  /// adapter. The filter shard re-attaches it across rebuilds with the
  /// retired driver's cursor preserved, so events the old driver already
  /// fired never replay on the fresh one.
  const FaultPlan* faults = nullptr;
  /// Trailing shard-local ids provisioned for a later join event: ids
  /// [n - join_reserve, n) start down (transport off, on_init deferred)
  /// and go live when their join fires in the shard's fault schedule.
  std::size_t join_reserve = 0;
};

/// The root tier's handle on one shard deployment.
///
/// Each adapter owns its cluster and driver; the deployment steps the
/// adapters one after another, and the root coordinator's renegotiation
/// plumbing (every other method) runs between steps.
class ShardAdapter {
 public:
  virtual ~ShardAdapter() = default;

  /// Builds and initializes the shard deployment (values already set).
  virtual void initialize() = 0;

  /// One observation step; `changed` holds shard-local ids.
  virtual void step(TimeStep t, std::span<const NodeId> changed) = 0;

  /// True when the shard's extrema may straddle the root boundary and the
  /// root must renegotiate. Always false before the first set_pin.
  virtual bool crossing() = 0;

  /// Current extrema belief (cheap; may be conservative/stale for the
  /// filter shard between resets — good enough to *report* a crossing,
  /// never used for quota decisions).
  virtual ShardExtrema extrema() = 0;

  /// Exact extrema refresh. The filter shard answers from its ranking
  /// while it holds, else rebuilds (full FILTERRESET on the warm cluster,
  /// charged to the node<->shard tier); the naive shard's replica is
  /// already current.
  virtual ShardExtrema requery() = 0;

  /// Renegotiated quota (0 <= q <= size); returns fresh extrema. Called
  /// by the root tier after the shard's step, before the next value
  /// write.
  virtual ShardExtrema set_quota(std::size_t q) = 0;

  /// Anchors the shard on the root boundary R (filters re-anchor and the
  /// injected traffic is pumped before this returns).
  virtual void set_pin(Value r) = 0;

  /// Current member set, shard-local ids ascending.
  virtual const std::vector<NodeId>& members() const = 0;

  virtual std::size_t quota() const = 0;
  virtual Cluster& cluster() = 0;
  virtual MonitorStats monitor_stats() const = 0;

  /// Inner-driver delivery ticks consumed so far. Monotonic across filter
  /// shard rebuilds (the clock lives on the warm cluster's network);
  /// ShardedDeployment::ticks() reads recovery windows off it.
  virtual SimTime ticks() const = 0;
};

/// naive / naive_chg shard (see file comment).
class NaiveShardAdapter final : public ShardAdapter {
 public:
  NaiveShardAdapter(const ShardConfig& cfg, bool send_on_change_only);

  void initialize() override;
  void step(TimeStep t, std::span<const NodeId> changed) override;
  bool crossing() override;
  ShardExtrema extrema() override;
  ShardExtrema requery() override { return extrema(); }
  ShardExtrema set_quota(std::size_t q) override;
  void set_pin(Value r) override { pin_ = r; }
  const std::vector<NodeId>& members() const override {
    return coord_->topk();
  }
  std::size_t quota() const override { return quota_; }
  Cluster& cluster() override { return cluster_; }
  MonitorStats monitor_stats() const override {
    return coord_->monitor_stats();
  }
  SimTime ticks() const override { return driver_->now(); }

 private:
  ShardConfig cfg_;
  std::size_t quota_;
  Cluster cluster_;
  std::optional<Value> pin_;
  std::unique_ptr<NaiveCoordinator> coord_;
  std::vector<std::unique_ptr<NodeAlgo>> nodes_;
  std::unique_ptr<SimDriver> driver_;
};

/// topk_filter shard (see file comment).
class FilterShardAdapter final : public ShardAdapter {
 public:
  FilterShardAdapter(const ShardConfig& cfg, bool suppress_idle_broadcasts);

  void initialize() override;
  void step(TimeStep t, std::span<const NodeId> changed) override;
  bool crossing() override;
  ShardExtrema extrema() override;
  ShardExtrema requery() override;
  ShardExtrema set_quota(std::size_t q) override;
  void set_pin(Value r) override;
  const std::vector<NodeId>& members() const override {
    return coord_->topk();
  }
  std::size_t quota() const override { return quota_; }
  Cluster& cluster() override { return cluster_; }
  MonitorStats monitor_stats() const override {
    MonitorStats out = mstats_retired_;
    add_monitor_stats(out, coord_->monitor_stats());
    return out;
  }
  SimTime ticks() const override { return driver_ ? driver_->now() : 0; }

  /// Shard deployments built so far, the first included (diagnostic).
  std::size_t rebuilds() const noexcept { return rebuilds_; }

 private:
  /// (Re)creates coordinator + nodes + driver on the warm cluster and
  /// runs the driver's initialization (a full FILTERRESET over current
  /// values, ranking max(quota, rank_quota) + 1 nodes).
  /// Folds the outgoing coordinator's counters into mstats_retired_
  /// first — CommStats live on the persistent cluster and accumulate on
  /// their own.
  void rebuild(std::size_t rank_quota);

  ShardConfig cfg_;
  bool nobeacon_;
  std::size_t quota_;
  Cluster cluster_;
  /// Stable pin storage; FilterCoordinator::Options points here, so the
  /// root can move the boundary without touching the coordinator.
  std::optional<Value> pin_;
  std::unique_ptr<FilterCoordinator> coord_;
  std::vector<std::unique_ptr<NodeAlgo>> nodes_;
  std::unique_ptr<SimDriver> driver_;
  MonitorStats mstats_retired_;  ///< counters of retired coordinators
  std::size_t rebuilds_ = 0;
};

}  // namespace topkmon
