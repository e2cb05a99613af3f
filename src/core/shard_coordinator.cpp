#include "core/shard_coordinator.hpp"

#include <stdexcept>

#include "util/rng.hpp"

namespace topkmon {

std::vector<ShardRange> partition_shards(std::size_t n, std::size_t shards) {
  if (shards == 0 || shards > n) {
    throw std::invalid_argument("partition_shards: need 1 <= shards <= n");
  }
  std::vector<ShardRange> out;
  out.reserve(shards);
  const std::size_t words = (n + 63) / 64;
  if (words >= shards) {
    // Word-aligned balanced split: the first (words % shards) shards get
    // one extra word, so each shard's nodes occupy whole bitset words.
    const std::size_t base_words = words / shards;
    const std::size_t extra = words % shards;
    std::size_t word = 0;
    for (std::size_t s = 0; s < shards; ++s) {
      const std::size_t w = base_words + (s < extra ? 1 : 0);
      const std::size_t lo = word * 64;
      word += w;
      const std::size_t hi = std::min(word * 64, n);
      out.push_back(ShardRange{static_cast<NodeId>(lo), hi - lo});
    }
  } else {
    // Fewer words than shards (tiny n): balance node counts directly.
    const std::size_t base_nodes = n / shards;
    const std::size_t extra = n % shards;
    std::size_t node = 0;
    for (std::size_t s = 0; s < shards; ++s) {
      const std::size_t sz = base_nodes + (s < extra ? 1 : 0);
      out.push_back(ShardRange{static_cast<NodeId>(node), sz});
      node += sz;
    }
  }
  return out;
}

std::vector<std::size_t> initial_shard_quotas(
    std::span<const ShardRange> ranges, std::size_t n, std::size_t k) {
  if (k > n) {
    throw std::invalid_argument("initial_shard_quotas: k > n");
  }
  std::vector<std::size_t> quotas(ranges.size(), 0);
  std::size_t assigned = 0;
  for (std::size_t s = 0; s < ranges.size(); ++s) {
    quotas[s] = k * ranges[s].size / n;  // floor; never exceeds the size
    assigned += quotas[s];
  }
  // Hand out the remainder round-robin, capped by shard size. Terminates
  // because the sizes sum to n >= k.
  std::size_t rem = k - assigned;
  for (std::size_t s = 0; rem > 0; s = (s + 1) % ranges.size()) {
    if (quotas[s] < ranges[s].size) {
      ++quotas[s];
      --rem;
    }
  }
  return quotas;
}

std::uint64_t shard_seed(std::uint64_t base_seed, std::size_t shard) noexcept {
  if (shard == 0) return base_seed;
  std::uint64_t state =
      base_seed + 0x9E3779B97F4A7C15ull * static_cast<std::uint64_t>(shard);
  return splitmix64(state);
}

namespace {

/// Shared ctor step of both adapters: ids provisioned for a later join
/// start down, before the first initialize, exactly like the monolithic
/// runner marks them (driver.hpp set_fault_plan contract).
void mark_join_reserve_down(const ShardConfig& cfg, Cluster& cluster) {
  for (std::size_t i = cfg.n - std::min(cfg.join_reserve, cfg.n); i < cfg.n;
       ++i) {
    cluster.net().set_node_down(static_cast<NodeId>(i));
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// NaiveShardAdapter
// ---------------------------------------------------------------------------

NaiveShardAdapter::NaiveShardAdapter(const ShardConfig& cfg,
                                     bool send_on_change_only)
    : cfg_(cfg),
      quota_(cfg.quota),
      cluster_(cfg.n, cfg.seed, cfg.network),
      coord_(std::make_unique<NaiveCoordinator>(cfg.quota, send_on_change_only,
                                                cfg.sharded)) {
  mark_join_reserve_down(cfg_, cluster_);
  nodes_.reserve(cfg_.n);
  for (std::size_t i = 0; i < cfg_.n; ++i) {
    nodes_.push_back(std::make_unique<NaiveNode>(send_on_change_only));
  }
  driver_ = std::make_unique<SimDriver>(cluster_, *coord_, nodes_);
  if (cfg_.faults != nullptr) driver_->set_fault_plan(cfg_.faults);
  driver_->set_dense_loop(cfg_.dense_loop);
}

void NaiveShardAdapter::initialize() { driver_->initialize(); }

void NaiveShardAdapter::step(TimeStep t, std::span<const NodeId> changed) {
  driver_->step(t, changed);
}

ShardExtrema NaiveShardAdapter::extrema() {
  return ShardExtrema{coord_->weakest_member_value(),
                      coord_->strongest_outsider_value()};
}

bool NaiveShardAdapter::crossing() {
  if (!cfg_.sharded || !pin_.has_value()) return false;
  // The naive replica is always current, so the extrema themselves are
  // the crossing predicate: consistent means L_s <= R <= U_s.
  const ShardExtrema e = extrema();
  return e.weakest_member < *pin_ || e.strongest_outsider > *pin_;
}

ShardExtrema NaiveShardAdapter::set_quota(std::size_t q) {
  if (q > cfg_.n) {
    throw std::invalid_argument("NaiveShardAdapter::set_quota: q > size");
  }
  quota_ = q;
  // Coordinator-local rekey over the replica: no node traffic — the
  // replica was already paid for report by report.
  coord_->rekey(q);
  return extrema();
}

// ---------------------------------------------------------------------------
// FilterShardAdapter
// ---------------------------------------------------------------------------

FilterShardAdapter::FilterShardAdapter(const ShardConfig& cfg,
                                       bool suppress_idle_broadcasts)
    : cfg_(cfg),
      nobeacon_(suppress_idle_broadcasts),
      quota_(cfg.quota),
      cluster_(cfg.n, cfg.seed, cfg.network) {
  mark_join_reserve_down(cfg_, cluster_);
}

void FilterShardAdapter::rebuild() {
  if (coord_) add_monitor_stats(mstats_retired_, coord_->monitor_stats());
  // The fresh driver must resume the fault schedule where the retired one
  // left it — re-firing an applied crash/recover would corrupt the alive
  // set (which itself persists on the warm cluster's network).
  const std::size_t fault_cursor = driver_ ? driver_->fault_cursor() : 0;
  driver_.reset();
  coord_.reset();
  nodes_.clear();

  FilterCoordinator::Options o;
  o.suppress_idle_broadcasts = nobeacon_;
  if (cfg_.sharded) o.pinned_boundary = &pin_;
  coord_ = std::make_unique<FilterCoordinator>(quota_, o);
  nodes_.reserve(cfg_.n);
  for (std::size_t i = 0; i < cfg_.n; ++i) {
    nodes_.push_back(std::make_unique<FilterNode>());
  }
  driver_ = std::make_unique<SimDriver>(cluster_, *coord_, nodes_);
  if (cfg_.faults != nullptr) driver_->set_fault_plan(cfg_.faults, fault_cursor);
  driver_->set_dense_loop(cfg_.dense_loop);
  // Full initialization on the warm cluster: values, RNG streams, the
  // protocol-epoch counter, CommStats and the alive set persist;
  // node/coordinator protocol state starts fresh, so the FILTERRESET
  // selection (over the live nodes only) leaves exact extrema in T+/T-.
  driver_->initialize();
}

void FilterShardAdapter::initialize() { rebuild(); }

void FilterShardAdapter::step(TimeStep t, std::span<const NodeId> changed) {
  driver_->step(t, changed);
}

bool FilterShardAdapter::crossing() {
  // The coordinator adopts the pin whenever [T-, T+] contains it, so a
  // boundary away from the pin is exactly "my local top-k boundary
  // crossed the root filter" — conservative under staleness (the cheap
  // accumulator extrema never miss a real crossing; the root requeries
  // exact values before acting).
  if (!cfg_.sharded || !pin_.has_value()) return false;
  // An under-filled answer (churn removed members faster than the local
  // reset could re-fill — up to a whole-shard outage) is a crossing by
  // definition: only a root renegotiation can drain the unfillable quota
  // toward shards that can cover the vacated slots.
  if (coord_->topk().size() < quota_) return true;
  return coord_->boundary() != *pin_;
}

ShardExtrema FilterShardAdapter::extrema() {
  // Under-fill: fewer live trusted nodes than quota. Report U_s = -inf so
  // the root's fixpoint takes the quota this shard cannot fill (the
  // weakest-member rule picks the minimum U first), and L_s = -inf too —
  // if the shard cannot even fill its quota it has no live outsider, and
  // a stale accumulator value must not win it more quota or pin the root
  // boundary from below during the outage.
  if (coord_->topk().size() < quota_) {
    return ShardExtrema{kMinusInf, kMinusInf};
  }
  return ShardExtrema{coord_->t_plus(), coord_->t_minus()};
}

ShardExtrema FilterShardAdapter::requery() {
  // The accumulators are stale between resets; quota decisions need exact
  // extrema, so requery = rebuild (charged to the node<->shard tier).
  rebuild();
  return extrema();
}

ShardExtrema FilterShardAdapter::set_quota(std::size_t q) {
  if (q > cfg_.n) {
    throw std::invalid_argument("FilterShardAdapter::set_quota: q > size");
  }
  quota_ = q;
  rebuild();
  return extrema();
}

void FilterShardAdapter::set_pin(Value r) {
  pin_ = r;
  // Re-anchor in place when the gap allows it (one kFilterUpdate
  // broadcast); the injected traffic settles before the root continues.
  CoordCtx ctx(*driver_, cluster_);
  coord_->reanchor(ctx);
  driver_->pump();
}

}  // namespace topkmon
