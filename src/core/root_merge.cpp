#include "core/root_merge.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

#include "core/runner.hpp"
#include "util/rng.hpp"

namespace topkmon {

// ---------------------------------------------------------------------------
// RootMergeCoordinator
// ---------------------------------------------------------------------------

RootMergeCoordinator::RootMergeCoordinator(
    std::string name, std::size_t k,
    std::span<const std::unique_ptr<ShardAdapter>> adapters,
    std::vector<ShardRange> ranges)
    : name_(std::move(name)),
      k_(k),
      adapters_(adapters),
      ranges_(std::move(ranges)) {
  if (adapters_.size() != ranges_.size() || adapters_.empty()) {
    throw std::invalid_argument("RootMergeCoordinator: adapters != ranges");
  }
}

void RootMergeCoordinator::on_init(CoordCtx& ctx) {
  if (ctx.n() != adapters_.size()) {
    throw std::invalid_argument("RootMergeCoordinator: root n != shards");
  }
  info_.assign(adapters_.size(), Info{});
  inert_ = ctx.n() <= 1;
  if (inert_) return;
  // Bootstrap: every agent's on_init already reported exact post-reset
  // extrema (they fold in during the initialize settle, reaching
  // advance_fixpoint below), so no probe round is needed.
  rphase_ = RPhase::kCollect;
  fresh_ = 0;
}

void RootMergeCoordinator::on_step_begin(CoordCtx& ctx, TimeStep t) {
  cur_step_ = t;
  violation_this_step_ = false;
  if (pending_k_.has_value()) {
    // Dynamic k (request_k): adopt the new target and renegotiate. When a
    // renegotiation is already collecting, just adopting the target is
    // enough — its fixpoint below aims at k_.
    k_ = *pending_k_;
    pending_k_.reset();
    if (!inert_ && rphase_ == RPhase::kIdle) begin_renegotiation(ctx);
  }
}

void RootMergeCoordinator::on_message(CoordCtx& ctx, const Message& m) {
  if (inert_ || m.kind != MsgKind::kViolation) return;
  const std::size_t s = static_cast<std::size_t>(m.from);
  if (!info_[s].fresh) ++fresh_;
  info_[s] = Info{m.a, m.b, true};
  if (rphase_ == RPhase::kIdle) {
    // A shard's boundary crossed the root filter: the merged answer may
    // be wrong, renegotiate. One violation step per observation step no
    // matter how many shards crossed.
    ++mstats_.violations;
    if (!violation_this_step_) {
      violation_this_step_ = true;
      ++mstats_.violation_steps;
    }
    begin_renegotiation(ctx);
  } else if (fresh_ == adapters_.size()) {
    advance_fixpoint(ctx);
  }
}

void RootMergeCoordinator::begin_renegotiation(CoordCtx& ctx) {
  // Requery everyone: the crossing report's extrema are cheap/possibly
  // stale; quota decisions only run on exact values (kProbe replies go
  // through ShardAdapter::requery).
  for (Info& i : info_) i.fresh = false;
  fresh_ = 0;
  rphase_ = RPhase::kCollect;
  ++mstats_.polls;
  Message probe;
  probe.kind = MsgKind::kProbe;
  ctx.broadcast(probe);
}

void RootMergeCoordinator::advance_fixpoint(CoordCtx& ctx) {
  // One quota transfer per call: weakest member (min U, quota > 0) loses
  // a slot to the strongest outsider (max L, quota < size) while the
  // outsider strictly outranks the member. The two kFilterAssign replies
  // re-enter on_message and bring fresh_ back to c.
  const std::size_t c = adapters_.size();

  // Dynamic k: while the quota total is off the target, move it one unit
  // toward k_ before any improving transfer — grant a slot to the shard
  // with the strongest outsider, or take one from the shard with the
  // weakest member. 1 <= k_ <= n guarantees an eligible shard exists, and
  // each assign shrinks |total - k_|, so the fixpoint still terminates.
  std::size_t total = 0;
  for (const auto& a : adapters_) total += a->quota();
  if (total != k_) {
    std::size_t pick = c;
    if (total < k_) {
      for (std::size_t s = 0; s < c; ++s) {
        if (adapters_[s]->quota() < ranges_[s].size &&
            (pick == c || info_[s].l > info_[pick].l)) {
          pick = s;
        }
      }
    } else {
      for (std::size_t s = 0; s < c; ++s) {
        if (adapters_[s]->quota() > 0 &&
            (pick == c || info_[s].u < info_[pick].u)) {
          pick = s;
        }
      }
    }
    ++mstats_.protocol_runs;
    info_[pick].fresh = false;
    --fresh_;
    Message assign;
    assign.kind = MsgKind::kFilterAssign;
    const std::size_t q = adapters_[pick]->quota();
    assign.a = static_cast<std::int64_t>(total < k_ ? q + 1 : q - 1);
    ctx.unicast(static_cast<NodeId>(pick), assign);
    return;
  }

  std::size_t loser = c;
  std::size_t gainer = c;
  for (std::size_t s = 0; s < c; ++s) {
    if (adapters_[s]->quota() > 0 &&
        (loser == c || info_[s].u < info_[loser].u)) {
      loser = s;
    }
    if (adapters_[s]->quota() < ranges_[s].size &&
        (gainer == c || info_[s].l > info_[gainer].l)) {
      gainer = s;
    }
  }
  if (loser == c || gainer == c || loser == gainer ||
      info_[gainer].l <= info_[loser].u) {
    finish_renegotiation(ctx);
    return;
  }
  ++mstats_.protocol_runs;
  info_[loser].fresh = false;
  info_[gainer].fresh = false;
  fresh_ -= 2;
  Message assign;
  assign.kind = MsgKind::kFilterAssign;
  assign.a = static_cast<std::int64_t>(adapters_[loser]->quota() - 1);
  ctx.unicast(static_cast<NodeId>(loser), assign);
  assign.a = static_cast<std::int64_t>(adapters_[gainer]->quota() + 1);
  ctx.unicast(static_cast<NodeId>(gainer), assign);
}

void RootMergeCoordinator::finish_renegotiation(CoordCtx& ctx) {
  // Quotas are at a fixpoint: every member outranks every outsider, so
  // max L <= min U and any R in between restores L_s <= R <= U_s for all
  // shards (quota-0 shards report U = +inf, full shards L = -inf, so the
  // ineligible shards never tighten the interval wrongly).
  Value max_l = kMinusInf;
  Value min_u = kPlusInf;
  for (const Info& i : info_) {
    max_l = std::max(max_l, i.l);
    min_u = std::min(min_u, i.u);
  }
  ++mstats_.midpoint_updates;
  rphase_ = RPhase::kIdle;
  // Unconditional re-anchor broadcast, even when R is unchanged: a shard
  // whose local boundary drifted off R must be re-anchored or it would
  // report the same crossing every step.
  Message update;
  update.kind = MsgKind::kFilterUpdate;
  update.a = midpoint(max_l, min_u);
  ctx.broadcast(update);
}

void RootMergeCoordinator::on_step_end(CoordCtx&, TimeStep) {
  // Measurement plane: concatenate the shard member sets. Ranges are
  // contiguous ascending and each member list is ascending shard-local,
  // so the concatenation is the canonical (id-sorted) representation.
  topk_ids_.clear();
  for (std::size_t s = 0; s < adapters_.size(); ++s) {
    for (NodeId local : adapters_[s]->members()) {
      topk_ids_.push_back(ranges_[s].base + local);
    }
  }
}

// ---------------------------------------------------------------------------
// ShardedDeployment
// ---------------------------------------------------------------------------

namespace {

std::uint64_t root_tier_seed(std::uint64_t base_seed) {
  std::uint64_t state = base_seed ^ 0x5297A3D7C0FFEE11ull;
  return splitmix64(state);
}

std::string_view monitor_name(ShardedSpec::Monitor m) {
  switch (m) {
    case ShardedSpec::Monitor::kFilter: return "topk_filter";
    case ShardedSpec::Monitor::kNaive: return "naive";
    case ShardedSpec::Monitor::kNaiveChg: return "naive_on_change";
  }
  return "?";
}

}  // namespace

ShardedDeployment::ShardedDeployment(const ShardedSpec& spec) : spec_(spec) {
  if (spec.workers != 1) {
    throw std::invalid_argument("ShardedDeployment: workers must be 1, got " +
                                std::to_string(spec.workers));
  }
  // The lag/stale/mute held-send machinery is per-driver state that
  // cannot survive shard rebuilds.
  if (spec.faults != nullptr && spec.faults->has_degradation()) {
    throw std::invalid_argument(
        "ShardedDeployment: fault plan '" + spec.faults->spec_name() +
        "' contains adversarial degradations; sharded deployments support "
        "churn and k plans (lag/stale/mute/heal require shards == 1)");
  }
  ranges_ = partition_shards(spec.n, spec.shards);
  const std::size_t c = ranges_.size();

  // Churn provisioning: spec.n is the provisioned capacity (initial nodes
  // plus every joining block), but the initial quotas must split over the
  // initially-live prefix only — a shard whose nodes are all join reserve
  // starts at quota 0 and wins slots at its join via the root fixpoint.
  const std::size_t initial =
      spec.faults != nullptr ? spec.faults->initial_nodes() : spec.n;
  std::vector<ShardRange> live_ranges = ranges_;
  for (ShardRange& r : live_ranges) {
    r.size = initial > r.base ? std::min<std::size_t>(r.size, initial - r.base)
                              : 0;
  }
  const std::vector<std::size_t> quotas =
      initial_shard_quotas(live_ranges, initial, spec.k);

  // Carve the deployment-level plan into per-shard plans with shard-local
  // ids. Membership events route to the owning shard (a join block can
  // straddle shard boundaries and is split at them); kSetK stays at the
  // deployment level (step() routes it through set_k). shard_plans_
  // is filled completely before any adapter takes a pointer into it.
  if (spec.faults != nullptr) {
    std::vector<std::vector<FaultEvent>> by_shard(c);
    for (const FaultEvent& ev : spec.faults->events()) {
      switch (ev.kind) {
        case FaultEvent::Kind::kSetK:
          break;
        case FaultEvent::Kind::kJoin: {
          NodeId id = ev.node;
          std::size_t left = ev.count;
          while (left > 0) {
            const std::size_t s = shard_of(id);
            const std::size_t take = std::min<std::size_t>(
                left, ranges_[s].base + ranges_[s].size - id);
            FaultEvent local = ev;
            local.node = id - ranges_[s].base;
            local.count = take;
            by_shard[s].push_back(local);
            id += static_cast<NodeId>(take);
            left -= take;
          }
          break;
        }
        default: {
          const std::size_t s = shard_of(ev.node);
          FaultEvent local = ev;
          local.node = ev.node - ranges_[s].base;
          by_shard[s].push_back(local);
          break;
        }
      }
    }
    shard_plans_.reserve(c);
    for (std::size_t s = 0; s < c; ++s) {
      shard_plans_.push_back(
          FaultPlan::from_events(ranges_[s].size, std::move(by_shard[s])));
    }
  }

  adapters_.reserve(c);
  for (std::size_t s = 0; s < c; ++s) {
    ShardConfig cfg;
    cfg.n = ranges_[s].size;
    cfg.quota = quotas[s];
    cfg.seed = shard_seed(spec.seed, s);
    cfg.network = spec.network;
    if (!shard_plans_.empty() && !shard_plans_[s].empty()) {
      cfg.faults = &shard_plans_[s];
    }
    cfg.join_reserve = ranges_[s].size - live_ranges[s].size;
    cfg.dense_loop = spec.dense_loop;
    cfg.sharded = c > 1;
    switch (spec.monitor) {
      case ShardedSpec::Monitor::kFilter:
        adapters_.push_back(std::make_unique<FilterShardAdapter>(
            cfg, spec.suppress_idle_broadcasts));
        break;
      case ShardedSpec::Monitor::kNaive:
        adapters_.push_back(
            std::make_unique<NaiveShardAdapter>(cfg, /*chg=*/false));
        break;
      case ShardedSpec::Monitor::kNaiveChg:
        adapters_.push_back(
            std::make_unique<NaiveShardAdapter>(cfg, /*chg=*/true));
        break;
    }
  }

  // Root tier: its own c-node cluster (instant network — the tiers model
  // coordinator processes on a reliable backbone) with a seed stream
  // disjoint from every shard's.
  root_cluster_ =
      std::make_unique<Cluster>(c, root_tier_seed(spec.seed), NetworkSpec{});
  agents_.reserve(c);
  for (std::size_t s = 0; s < c; ++s) {
    agents_.push_back(std::make_unique<ShardAgent>(*adapters_[s]));
  }
  root_coord_ = std::make_unique<RootMergeCoordinator>(
      std::string(monitor_name(spec.monitor)), spec.k, adapters_, ranges_);
  root_driver_ = std::make_unique<SimDriver>(*root_cluster_, *root_coord_,
                                             agents_);
  changed_by_shard_.resize(c);
}

std::size_t ShardedDeployment::shard_of(NodeId global) const {
  // Binary search on the range bases (c is small; log c is plenty).
  std::size_t lo = 0;
  std::size_t hi = ranges_.size() - 1;
  while (lo < hi) {
    const std::size_t mid = (lo + hi + 1) / 2;
    if (ranges_[mid].base <= global) {
      lo = mid;
    } else {
      hi = mid - 1;
    }
  }
  return lo;
}

void ShardedDeployment::set_value(NodeId global, Value v) {
  const std::size_t s = shard_of(global);
  adapters_[s]->cluster().set_value(global - ranges_[s].base, v);
}

void ShardedDeployment::set_values(std::span<const NodeId> ids,
                                   std::span<const Value> column) {
  for (const NodeId id : ids) set_value(id, column[id]);
}

void ShardedDeployment::begin_step(TimeStep t) {
  for (auto& a : adapters_) a->cluster().stats().begin_step(t);
}

void ShardedDeployment::initialize() {
  for (auto& a : adapters_) a->initialize();
  root_driver_->initialize();
}

void ShardedDeployment::step(TimeStep t, std::span<const NodeId> changed) {
  for (auto& v : changed_by_shard_) v.clear();
  for (NodeId g : changed) {
    // shard_of routes any id past the last base to the last shard, so an
    // out-of-range id must be caught here, before any shard steps.
    if (g >= spec_.n) {
      throw std::out_of_range("ShardedDeployment::step: changed id " +
                              std::to_string(g) + " >= node count " +
                              std::to_string(spec_.n));
    }
    const std::size_t s = shard_of(g);
    changed_by_shard_[s].push_back(g - ranges_[s].base);
  }
  if (spec_.faults != nullptr) {
    const auto& events = spec_.faults->events();
    for (; next_k_event_ < events.size() && events[next_k_event_].step <= t;
         ++next_k_event_) {
      if (events[next_k_event_].kind == FaultEvent::Kind::kSetK) {
        set_k(events[next_k_event_].count);
      }
    }
  }
  for (std::size_t s = 0; s < adapters_.size(); ++s) {
    adapters_[s]->step(t, changed_by_shard_[s]);
  }
  // Root tier: crossing polls, renegotiations, answer assembly. Serial,
  // after every shard settled.
  root_driver_->step(t);
}

void ShardedDeployment::set_k(std::size_t k) {
  if (k == 0 || k > spec_.n) {
    throw std::invalid_argument("ShardedDeployment::set_k: k out of range");
  }
  spec_.k = k;
  if (adapters_.size() == 1) {
    // Inert root tier: re-key the single shard directly. The naive shard
    // rekeys its replica in place, exactly like the monolithic on_set_k.
    // The filter shard rebuilds on its warm cluster: fresh roles run the
    // same full FILTERRESET the monolithic on_set_k starts, but the
    // rebuild also drops coordinator state the warm reset keeps (e.g.
    // pending re-sync handshakes).
    adapters_[0]->set_quota(k);
    return;
  }
  root_coord_->request_k(k);
}

SimTime ShardedDeployment::ticks() const {
  SimTime t = 0;
  for (const auto& a : adapters_) t = std::max(t, a->ticks());
  return t;
}

CommStats ShardedDeployment::node_shard_comm() {
  if (adapters_.size() == 1) {
    // Straight copy: series (when enabled) included, exactly the
    // monolithic RunResult surface.
    return adapters_[0]->cluster().stats();
  }
  CommStats out;
  for (const auto& a : adapters_) out.accumulate(a->cluster().stats());
  return out;
}

void ShardedDeployment::fill_result(RunResult& result) {
  result.comm = node_shard_comm();
  result.root_comm = shard_root_comm();
  result.monitor = monitor_totals();
}

MonitorStats ShardedDeployment::monitor_totals() const {
  MonitorStats out;
  for (const auto& a : adapters_) add_monitor_stats(out, a->monitor_stats());
  add_monitor_stats(out, root_coord_->monitor_stats());
  return out;
}

}  // namespace topkmon
