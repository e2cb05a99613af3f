// Buffer-reuse drains: draining into one reused (dirty) buffer must
// deliver exactly what draining into a fresh buffer delivers (ordering
// included), clear the caller's buffer, and retain its capacity across
// calls so the settled hot path performs no allocations. Also covers the
// maintained earliest_pending() minimum and instant-mode broadcast-log
// compaction.
#include <gtest/gtest.h>

#include <vector>

#include "sim/cluster.hpp"
#include "sim/network.hpp"
#include "sim/network_model.hpp"

namespace topkmon {
namespace {

Message msg(MsgKind kind, std::int64_t a, std::int64_t b = 0) {
  Message m;
  m.kind = kind;
  m.a = a;
  m.b = b;
  return m;
}

void expect_same(const std::vector<Message>& got,
                 const std::vector<Message>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].kind, want[i].kind) << "at " << i;
    EXPECT_EQ(got[i].from, want[i].from) << "at " << i;
    EXPECT_EQ(got[i].a, want[i].a) << "at " << i;
    EXPECT_EQ(got[i].b, want[i].b) << "at " << i;
  }
}

/// Drives `traffic(net)` against two identical networks and checks that
/// every drain agrees between a fresh buffer per call (`legacy`) and one
/// buffer reused across all calls (`reuse`).
template <typename Traffic>
void compare_drains(const NetworkSpec& spec, Traffic traffic) {
  CommStats stats_a;
  CommStats stats_b;
  Network legacy(3, &stats_a, spec, 7);
  Network reuse(3, &stats_b, spec, 7);
  traffic(legacy);
  traffic(reuse);

  std::vector<Message> buf;
  for (int tick = 0; tick < 12; ++tick) {
    for (NodeId id = 0; id < 3; ++id) {
      std::vector<Message> want;
      legacy.drain_node(id, want);
      reuse.drain_node(id, buf);
      expect_same(buf, want);
    }
    std::vector<Message> want;
    legacy.drain_coordinator(want);
    reuse.drain_coordinator(buf);
    expect_same(buf, want);
    legacy.advance_clock();
    reuse.advance_clock();
  }
  EXPECT_EQ(legacy.pending_deliveries(), reuse.pending_deliveries());
  EXPECT_EQ(legacy.dropped_deliveries(), reuse.dropped_deliveries());
}

void mixed_traffic(Network& net) {
  net.node_send(0, msg(MsgKind::kValueReport, 10));
  net.coord_broadcast(msg(MsgKind::kRoundBeacon, 20));
  net.coord_unicast(1, msg(MsgKind::kFilterAssign, 30, 40));
  net.coord_broadcast(msg(MsgKind::kFilterUpdate, 50));
  net.node_send(2, msg(MsgKind::kViolation, 60, 1));
  net.coord_unicast(1, msg(MsgKind::kProbe, 0));
}

TEST(DrainReuse, InstantMatchesLegacy) {
  compare_drains(NetworkSpec{}, mixed_traffic);
}

TEST(DrainReuse, ScheduledDelayJitterMatchesLegacy) {
  NetworkSpec spec;
  spec.delay = 2;
  spec.jitter = 3;
  compare_drains(spec, mixed_traffic);
}

TEST(DrainReuse, ScheduledDropMatchesLegacy) {
  NetworkSpec spec;
  spec.delay = 1;
  spec.drop_rate = 0.4;
  compare_drains(spec, mixed_traffic);
}

TEST(DrainReuse, BufferIsClearedAndKeepsCapacity) {
  CommStats stats;
  Network net(2, &stats);

  std::vector<Message> buf;
  buf.push_back(msg(MsgKind::kProbe, 999));  // stale junk must vanish

  // Big burst establishes capacity.
  for (int i = 0; i < 100; ++i) {
    net.node_send(0, msg(MsgKind::kValueReport, i));
  }
  net.drain_coordinator(buf);
  ASSERT_EQ(buf.size(), 100u);
  EXPECT_EQ(buf[0].a, 0);
  const std::size_t cap = buf.capacity();
  ASSERT_GE(cap, 100u);

  // The instant drain swaps the caller's scratch with the inbox, so the
  // storage ping-pongs between (at most) two blocks; after a warm-up
  // round both blocks are sized and no further allocation happens.
  for (int i = 0; i < 10; ++i) {
    net.node_send(1, msg(MsgKind::kValueReport, i));
  }
  net.drain_coordinator(buf);  // sizes the second block
  const Message* block_a = buf.data();
  for (int i = 0; i < 10; ++i) {
    net.node_send(1, msg(MsgKind::kValueReport, i));
  }
  net.drain_coordinator(buf);
  const Message* block_b = buf.data();

  for (int round = 0; round < 6; ++round) {
    for (int i = 0; i < 10; ++i) {
      net.node_send(1, msg(MsgKind::kValueReport, i));
    }
    net.drain_coordinator(buf);
    EXPECT_EQ(buf.size(), 10u);
    EXPECT_GE(buf.capacity(), 10u);
    EXPECT_TRUE(buf.data() == block_a || buf.data() == block_b)
        << "steady-state drain allocated a fresh block";
    net.drain_coordinator(buf);  // empty drain: cleared, no new storage
    EXPECT_TRUE(buf.empty());
    EXPECT_TRUE(buf.data() == block_a || buf.data() == block_b);
  }
}

TEST(DrainReuse, EmptyDrainLeavesBufferEmpty) {
  CommStats stats;
  Network net(2, &stats);
  std::vector<Message> buf(5, msg(MsgKind::kProbe, 1));
  net.drain_node(0, buf);
  EXPECT_TRUE(buf.empty());
  net.drain_coordinator(buf);
  EXPECT_TRUE(buf.empty());
}

TEST(DrainReuse, BadNodeIdStillThrows) {
  CommStats stats;
  Network net(2, &stats);
  std::vector<Message> buf;
  EXPECT_THROW(net.drain_node(2, buf), std::out_of_range);
}

TEST(EarliestPending, TracksDeliveriesUnderScheduledTraffic) {
  NetworkSpec spec;
  spec.delay = 3;
  spec.jitter = 5;
  spec.drop_rate = 0.2;
  CommStats stats;
  Network net(8, &stats, spec, 42);

  std::vector<Message> buf;
  std::uint64_t delivered = 0;
  std::uint64_t sent_seq = 0;
  for (int round = 0; round < 50; ++round) {
    // Interleave sends of every flavor.
    net.node_send(static_cast<NodeId>(round % 8),
                  msg(MsgKind::kValueReport, ++sent_seq));
    if (round % 3 == 0) {
      net.coord_broadcast(msg(MsgKind::kRoundBeacon, ++sent_seq));
    }
    if (round % 4 == 0) {
      net.coord_unicast(static_cast<NodeId>(round % 8),
                        msg(MsgKind::kProbe, ++sent_seq));
    }

    const auto earliest = net.earliest_pending();
    if (net.pending_deliveries() == 0) {
      EXPECT_FALSE(earliest.has_value());
    } else {
      ASSERT_TRUE(earliest.has_value());
      if (*earliest > net.now()) {
        // Nothing may surface before the predicted tick...
        for (NodeId id = 0; id < 8; ++id) {
          net.drain_node(id, buf);
          EXPECT_TRUE(buf.empty());
        }
        net.drain_coordinator(buf);
        EXPECT_TRUE(buf.empty());
        // ...and advancing exactly to it must surface something.
        net.advance_clock_to(*earliest);
        std::size_t got = 0;
        for (NodeId id = 0; id < 8; ++id) {
          net.drain_node(id, buf);
          got += buf.size();
        }
        net.drain_coordinator(buf);
        got += buf.size();
        EXPECT_GT(got, 0u);
        delivered += got;
      } else {
        // Already due: a full drain must surface at least one message.
        std::size_t got = 0;
        for (NodeId id = 0; id < 8; ++id) {
          net.drain_node(id, buf);
          got += buf.size();
        }
        net.drain_coordinator(buf);
        got += buf.size();
        EXPECT_GT(got, 0u);
        delivered += got;
      }
    }
    net.advance_clock();
  }
  EXPECT_GT(delivered, 0u);
}

TEST(EarliestPending, InstantIsNow) {
  CommStats stats;
  Network net(2, &stats);
  EXPECT_FALSE(net.earliest_pending().has_value());
  net.coord_broadcast(msg(MsgKind::kRoundBeacon, 1));
  net.advance_clock();
  ASSERT_TRUE(net.earliest_pending().has_value());
  EXPECT_EQ(*net.earliest_pending(), net.now());
}

TEST(BroadcastLog, CompactsOnceAllNodesReadWhileCountingAllIssues) {
  CommStats stats;
  Network net(4, &stats);
  std::vector<Message> buf;
  constexpr std::size_t kBroadcasts = 20'000;
  std::size_t received = 0;
  for (std::size_t i = 0; i < kBroadcasts; ++i) {
    net.coord_broadcast(msg(MsgKind::kRoundBeacon,
                            static_cast<std::int64_t>(i)));
    if (i % 2 == 1) {
      for (NodeId id = 0; id < 4; ++id) {
        net.drain_node(id, buf);
        // Two broadcasts per drain, in issue order, values i-1 and i.
        ASSERT_EQ(buf.size(), 2u);
        EXPECT_EQ(buf[0].a, static_cast<std::int64_t>(i - 1));
        EXPECT_EQ(buf[1].a, static_cast<std::int64_t>(i));
        received += buf.size();
      }
    }
  }
  EXPECT_EQ(net.broadcast_log_size(), kBroadcasts);  // issue counter intact
  // The retained log was compacted: without compaction it would hold all
  // 20'000 stamped entries.
  EXPECT_LT(net.broadcast_log().size(), 10'000u);
  EXPECT_EQ(received, kBroadcasts * 4);
  EXPECT_EQ(net.pending_deliveries(), 0u);
}

TEST(BroadcastLog, StragglerNodeDefersCompactionButLosesNothing) {
  CommStats stats;
  Network net(3, &stats);
  std::vector<Message> buf;
  constexpr std::size_t kBroadcasts = 6'000;
  for (std::size_t i = 0; i < kBroadcasts; ++i) {
    net.coord_broadcast(msg(MsgKind::kRoundBeacon,
                            static_cast<std::int64_t>(i)));
    // Nodes 0 and 1 keep up; node 2 never drains.
    net.drain_node(0, buf);
    net.drain_node(1, buf);
  }
  // The straggler still gets every broadcast, in order.
  net.drain_node(2, buf);
  ASSERT_EQ(buf.size(), kBroadcasts);
  for (std::size_t i = 0; i < kBroadcasts; ++i) {
    EXPECT_EQ(buf[i].a, static_cast<std::int64_t>(i));
  }
  EXPECT_EQ(net.broadcast_log_size(), kBroadcasts);
}

}  // namespace
}  // namespace topkmon
