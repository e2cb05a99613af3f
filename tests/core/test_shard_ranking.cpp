// Filter shards answer quota moves from their FILTERRESET's ranking
// (core/shard_coordinator.hpp): within the ranking's validity window — up
// to the shard's next observation step or fault event — set_quota and
// requery cost one kFilterAssign per node whose membership flips, and
// growth past the ranked depth re-ranks once, twice as deep. The root
// fixpoint sees the same exact extrema a full rebuild would produce, so
// it makes the same transfers and sends the same root-tier messages.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <vector>

#include "core/root_merge.hpp"
#include "core/shard_coordinator.hpp"

namespace topkmon {
namespace {

/// Values rise with the id, the layout of walks whose starts are spread
/// evenly across the value range: the top k all sit in the last shard.
Value ascending(NodeId id) { return 1000 + 16 * static_cast<Value>(id); }

ShardedSpec spec_of(std::size_t n, std::size_t k, std::size_t shards) {
  ShardedSpec spec;
  spec.n = n;
  spec.k = k;
  spec.shards = shards;
  spec.seed = 5;
  spec.suppress_idle_broadcasts = true;  // topk_filter?nobeacon
  return spec;
}

std::vector<NodeId> top_ids(std::size_t n, std::size_t k,
                            const std::vector<Value>& values) {
  std::vector<NodeId> ids(n);
  for (NodeId id = 0; id < n; ++id) ids[id] = id;
  std::sort(ids.begin(), ids.end(), [&](NodeId a, NodeId b) {
    return values[a] != values[b] ? values[a] > values[b] : a < b;
  });
  ids.resize(k);
  std::sort(ids.begin(), ids.end());
  return ids;
}

std::size_t rebuilds(const ShardedDeployment& d, std::size_t s) {
  return dynamic_cast<const FilterShardAdapter&>(d.shard(s)).rebuilds();
}

TEST(ShardRanking, SetupMovesQuotaFromTheRanking) {
  // sharded_sparse's layout at n = 4096: c = 4 shards of 1024 start at
  // quota 8 each, and the root bootstrap moves 24 slots into the last
  // shard, one transfer at a time.
  constexpr std::size_t kN = 4096;
  constexpr std::size_t kK = 32;
  constexpr std::size_t kShards = 4;
  ShardedDeployment d(spec_of(kN, kK, kShards));
  std::vector<Value> values(kN);
  for (NodeId id = 0; id < kN; ++id) {
    values[id] = ascending(id);
    d.set_value(id, values[id]);
  }
  d.initialize();

  EXPECT_EQ(d.topk(), top_ids(kN, kK, values));
  EXPECT_EQ(d.shard(kShards - 1).quota(), kK);

  // The root tier's traffic is the full-rebuild bootstrap's, message for
  // message: 4 bootstrap reports + 24 transfers x (2 assigns, 2 replies)
  // + the one anchoring broadcast.
  const CommStats& root = d.shard_root_comm();
  EXPECT_EQ(root.upstream(), 52u);
  EXPECT_EQ(root.unicast(), 48u);
  EXPECT_EQ(root.broadcast(), 1u);
  EXPECT_EQ(root.by_kind(MsgKind::kViolation), 52u);
  EXPECT_EQ(root.by_kind(MsgKind::kFilterAssign), 48u);
  EXPECT_EQ(root.by_kind(MsgKind::kFilterUpdate), 1u);
  EXPECT_EQ(root.total(), 101u);

  // Losing shards answer every quota move from their first build's
  // ranking; the gaining shard re-ranks at most log2(k / q0) + 1 times in
  // all (its first build included) as the depth doubles toward k.
  const std::size_t q0 = kK / kShards;
  for (std::size_t s = 0; s + 1 < kShards; ++s) {
    EXPECT_EQ(d.shard(s).quota(), 0u);
    EXPECT_EQ(rebuilds(d, s), 1u) << "shard " << s;
  }
  const auto log2_ceil = static_cast<std::size_t>(std::bit_width(kK / q0 - 1));
  EXPECT_LE(rebuilds(d, kShards - 1), log2_ceil + 1);

  // A quiet step: the answer holds and the root tier stays silent.
  d.begin_step(1);
  d.step(1, std::span<const NodeId>{});
  EXPECT_EQ(d.topk(), top_ids(kN, kK, values));
  EXPECT_EQ(d.shard_root_comm().total(), 101u);
}

TEST(ShardRanking, RenegotiationAfterAStepReRanks) {
  // Two shards of 128, k = 4: after the bootstrap shard 1 holds all four
  // members {252..255}. At step 1 two of them swap values without leaving
  // their filters (no shard-1 violation, so shard 1 runs no session),
  // and node 0 of shard 0 jumps above everyone, which crosses the root
  // filter. The renegotiation moves one slot from shard 1 to shard 0, and
  // shard 1 must drop its now-weakest member 255 — which only a fresh
  // ranking knows: the bootstrap's ranking still names 252 as the weakest.
  constexpr std::size_t kN = 256;
  constexpr std::size_t kK = 4;
  ShardedDeployment d(spec_of(kN, kK, 2));
  std::vector<Value> values(kN);
  for (NodeId id = 0; id < kN; ++id) {
    values[id] = ascending(id);
    d.set_value(id, values[id]);
  }
  d.initialize();
  ASSERT_EQ(d.topk(), (std::vector<NodeId>{252, 253, 254, 255}));
  const std::size_t root_before = d.shard_root_comm().total();
  const std::size_t shard1_before = rebuilds(d, 1);

  std::swap(values[252], values[255]);
  values[0] = 1'000'000'000;
  const std::vector<NodeId> changed{0, 252, 255};
  d.begin_step(1);
  for (const NodeId id : changed) d.set_value(id, values[id]);
  d.step(1, changed);

  EXPECT_GT(d.shard_root_comm().total(), root_before);  // renegotiated
  EXPECT_EQ(d.topk(), top_ids(kN, kK, values));
  EXPECT_EQ(d.topk(), (std::vector<NodeId>{0, 252, 253, 254}));
  // Shard 1 re-ranked once (the requery) and then answered its quota
  // move from that fresh ranking.
  EXPECT_EQ(rebuilds(d, 1), shard1_before + 1);
}

}  // namespace
}  // namespace topkmon
