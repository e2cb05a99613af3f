// Unit tests for the star network with broadcast channel.
#include "sim/network.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

namespace topkmon {
namespace {

Message mk(MsgKind kind, std::int64_t a = 0, std::int64_t b = 0) {
  Message m;
  m.kind = kind;
  m.a = a;
  m.b = b;
  return m;
}

TEST(Network, RequiresStatsSink) {
  EXPECT_THROW(Network(4, nullptr), std::invalid_argument);
}

TEST(Network, NodeSendReachesCoordinator) {
  CommStats stats;
  Network net(4, &stats);
  net.node_send(2, mk(MsgKind::kValueReport, 99));
  ASSERT_TRUE(net.coordinator_has_mail());
  std::vector<Message> inbox;
  net.drain_coordinator(inbox);
  ASSERT_EQ(inbox.size(), 1u);
  EXPECT_EQ(inbox[0].from, 2u);
  EXPECT_EQ(inbox[0].a, 99);
  EXPECT_FALSE(net.coordinator_has_mail());
  EXPECT_EQ(stats.upstream(), 1u);
}

TEST(Network, NodeSendStampsSender) {
  CommStats stats;
  Network net(4, &stats);
  Message m = mk(MsgKind::kValueReport, 1);
  m.from = 99;  // sender field must be overwritten with the true sender
  net.node_send(3, m);
  std::vector<Message> inbox;
  net.drain_coordinator(inbox);
  ASSERT_EQ(inbox.size(), 1u);
  EXPECT_EQ(inbox[0].from, 3u);
}

TEST(Network, RejectsBadIds) {
  CommStats stats;
  Network net(4, &stats);
  EXPECT_THROW(net.node_send(4, mk(MsgKind::kValueReport)), std::out_of_range);
  EXPECT_THROW(net.coord_unicast(7, mk(MsgKind::kProbe)), std::out_of_range);
  std::vector<Message> inbox;
  EXPECT_THROW(net.drain_node(100, inbox), std::out_of_range);
}

TEST(Network, UnicastReachesOnlyTarget) {
  CommStats stats;
  Network net(3, &stats);
  net.coord_unicast(1, mk(MsgKind::kProbe, 5));
  std::vector<Message> inbox;
  net.drain_node(0, inbox);
  EXPECT_TRUE(inbox.empty());
  net.drain_node(1, inbox);
  ASSERT_EQ(inbox.size(), 1u);
  EXPECT_EQ(inbox[0].a, 5);
  net.drain_node(2, inbox);
  EXPECT_TRUE(inbox.empty());
  EXPECT_EQ(stats.unicast(), 1u);
}

TEST(Network, BroadcastReachesEveryNodeOnce) {
  CommStats stats;
  Network net(3, &stats);
  net.coord_broadcast(mk(MsgKind::kRoundBeacon, 7));
  std::vector<Message> inbox;
  for (NodeId id = 0; id < 3; ++id) {
    net.drain_node(id, inbox);
    ASSERT_EQ(inbox.size(), 1u) << "node " << id;
    EXPECT_EQ(inbox[0].a, 7);
  }
  // Draining again delivers nothing (cursor advanced).
  for (NodeId id = 0; id < 3; ++id) {
    net.drain_node(id, inbox);
    EXPECT_TRUE(inbox.empty());
  }
  EXPECT_EQ(stats.broadcast(), 1u);  // one message regardless of n
}

TEST(Network, BroadcastCostIndependentOfN) {
  CommStats stats;
  Network net(1'000, &stats);
  net.coord_broadcast(mk(MsgKind::kRoundBeacon));
  net.coord_broadcast(mk(MsgKind::kRoundBeacon));
  EXPECT_EQ(stats.total(), 2u);
}

TEST(Network, LateJoinerSeesAllBroadcastsSinceLastDrain) {
  CommStats stats;
  Network net(2, &stats);
  net.coord_broadcast(mk(MsgKind::kRoundBeacon, 1));
  net.coord_broadcast(mk(MsgKind::kRoundBeacon, 2));
  std::vector<Message> inbox;
  net.drain_node(0, inbox);
  ASSERT_EQ(inbox.size(), 2u);
  EXPECT_EQ(inbox[0].a, 1);
  EXPECT_EQ(inbox[1].a, 2);
}

TEST(Network, UnicastAndBroadcastInterleaveBySendOrder) {
  CommStats stats;
  Network net(2, &stats);
  net.coord_unicast(0, mk(MsgKind::kProbe, 1));
  net.coord_broadcast(mk(MsgKind::kRoundBeacon, 2));
  net.coord_unicast(0, mk(MsgKind::kFilterAssign, 3));
  std::vector<Message> inbox;
  net.drain_node(0, inbox);
  ASSERT_EQ(inbox.size(), 3u);
  EXPECT_EQ(inbox[0].a, 1);
  EXPECT_EQ(inbox[1].a, 2);
  EXPECT_EQ(inbox[2].a, 3);
}

TEST(Network, CoordinatorInboxPreservesArrivalOrder) {
  CommStats stats;
  Network net(3, &stats);
  net.node_send(2, mk(MsgKind::kValueReport, 20));
  net.node_send(0, mk(MsgKind::kValueReport, 0));
  net.node_send(1, mk(MsgKind::kValueReport, 10));
  std::vector<Message> inbox;
  net.drain_coordinator(inbox);
  ASSERT_EQ(inbox.size(), 3u);
  EXPECT_EQ(inbox[0].from, 2u);
  EXPECT_EQ(inbox[1].from, 0u);
  EXPECT_EQ(inbox[2].from, 1u);
}

TEST(Network, BroadcastLogAccessible) {
  CommStats stats;
  Network net(1, &stats);
  net.coord_broadcast(mk(MsgKind::kRoundBeacon, 11));
  net.coord_broadcast(mk(MsgKind::kFilterUpdate, 22));
  EXPECT_EQ(net.broadcast_log_size(), 2u);
  const auto log = net.broadcast_log();
  EXPECT_EQ(log[0].a, 11);
  EXPECT_EQ(log[1].a, 22);
}

}  // namespace
}  // namespace topkmon
