// Unit tests for the cluster (node runtimes + coordinator + network).
#include "sim/cluster.hpp"

#include <gtest/gtest.h>

namespace topkmon {
namespace {

TEST(Cluster, SizeAndIds) {
  Cluster c(5, 1);
  EXPECT_EQ(c.size(), 5u);
  EXPECT_EQ(c.runtime().size(), 5u);
  ASSERT_EQ(c.all_ids().size(), 5u);
  for (NodeId i = 0; i < 5; ++i) {
    EXPECT_EQ(c.all_ids()[i], i);
  }
}

TEST(Cluster, RuntimeArraysAreParallelAndShared) {
  // The structure-of-arrays NodeRuntime is the single source of truth:
  // value accessors and the flat values() span alias the same array, and
  // the network's due-mail bits live in the same runtime.
  Cluster c(3, 1);
  c.set_value(1, 42);
  EXPECT_EQ(c.runtime().values[1], 42);
  EXPECT_EQ(c.values()[1], 42);
  EXPECT_EQ(c.values().size(), 3u);
  EXPECT_FALSE(c.runtime().due_mail.test(2));
  c.net().coord_unicast(2, Message{});
  EXPECT_TRUE(c.runtime().due_mail.test(2));
  EXPECT_TRUE(c.net().node_has_mail(2));
}

TEST(Cluster, ValuesReadWrite) {
  Cluster c(3, 1);
  c.set_value(0, 10);
  c.set_value(2, -7);
  EXPECT_EQ(c.value(0), 10);
  EXPECT_EQ(c.value(1), 0);
  EXPECT_EQ(c.value(2), -7);
}

TEST(Cluster, PerNodeRngsDifferAcrossNodes) {
  Cluster c(2, 7);
  const auto a = c.node_rng(0).next_u64();
  const auto b = c.node_rng(1).next_u64();
  EXPECT_NE(a, b);
}

TEST(Cluster, SameSeedSameRngStreams) {
  Cluster c1(4, 99);
  Cluster c2(4, 99);
  for (NodeId i = 0; i < 4; ++i) {
    for (int j = 0; j < 8; ++j) {
      EXPECT_EQ(c1.node_rng(i).next_u64(), c2.node_rng(i).next_u64());
    }
  }
  EXPECT_EQ(c1.coordinator_rng().next_u64(), c2.coordinator_rng().next_u64());
}

TEST(Cluster, DifferentSeedsDifferentStreams) {
  Cluster c1(1, 1);
  Cluster c2(1, 2);
  EXPECT_NE(c1.node_rng(0).next_u64(), c2.node_rng(0).next_u64());
}

TEST(Cluster, NetworkChargesOwnStats) {
  Cluster c(2, 1);
  Message m;
  m.kind = MsgKind::kValueReport;
  c.net().node_send(0, m);
  EXPECT_EQ(c.stats().total(), 1u);
  EXPECT_EQ(c.stats().upstream(), 1u);
}

TEST(Cluster, ProtocolEpochsMonotone) {
  Cluster c(1, 1);
  const auto e1 = c.next_protocol_epoch();
  const auto e2 = c.next_protocol_epoch();
  EXPECT_LT(e1, e2);
  EXPECT_EQ(c.current_protocol_epoch(), e2);
}

TEST(Cluster, BoundsChecked) {
  // value()/set_value() are unchecked hot-path accessors (debug assert
  // only); range validation for untrusted ids lives in node_rng() and in
  // the Network entry points.
  Cluster c(2, 1);
  EXPECT_THROW(c.node_rng(9), std::out_of_range);
  EXPECT_THROW(c.net().node_send(7, Message{}), std::out_of_range);
  EXPECT_THROW(c.net().coord_unicast(7, Message{}), std::out_of_range);
  std::vector<Message> mail;
  EXPECT_THROW(c.net().drain_node(7, mail), std::out_of_range);
}

}  // namespace
}  // namespace topkmon
