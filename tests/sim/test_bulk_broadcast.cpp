// The bulk instant-broadcast fan-out (node_mail_is_broadcast_only /
// unread_broadcasts / ack_broadcasts) must be observably identical to
// per-node drain_node calls: same messages in the same order, same
// pending-delivery accounting, same due bits — including around log
// compaction with straggler nodes that have not drained for thousands of
// broadcasts. The beacon-deaf tests pin the instant fan-out's skip of
// nodes that declared a round beacon a no-op (NodeRuntime::beacon_deaf).
#include <gtest/gtest.h>

#include <vector>

#include "sim/network.hpp"
#include "sim/network_model.hpp"
#include "sim/node_runtime.hpp"

namespace topkmon {
namespace {

Message msg(MsgKind kind, std::int64_t a) {
  Message m;
  m.kind = kind;
  m.a = a;
  return m;
}

/// Drains node `id` the way the SimDriver's phase-1 fast path does: the
/// in-place log suffix when the node is clean, drain_node otherwise.
std::vector<Message> bulk_or_drain(Network& net, NodeId id) {
  if (net.node_mail_is_broadcast_only(id)) {
    const auto suffix = net.unread_broadcasts(id);
    std::vector<Message> out(suffix.begin(), suffix.end());
    net.ack_broadcasts(id);
    return out;
  }
  std::vector<Message> out;
  net.drain_node(id, out);
  return out;
}

void expect_same(const std::vector<Message>& got,
                 const std::vector<Message>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].kind, want[i].kind) << "at " << i;
    EXPECT_EQ(got[i].a, want[i].a) << "at " << i;
  }
}

TEST(BulkBroadcast, EquivalentToDrainUnderMixedCleanDirtyNodes) {
  constexpr std::size_t kN = 5;
  CommStats stats_a;
  CommStats stats_b;
  Network bulk(kN, &stats_a);
  Network drain(kN, &stats_b);

  std::int64_t payload = 0;
  for (int round = 0; round < 6; ++round) {
    // Broadcasts interleaved with unicasts: nodes 1 and 3 become dirty
    // (unicasts pending), the rest stay broadcast-only.
    for (Network* net : {&bulk, &drain}) {
      net->coord_broadcast(msg(MsgKind::kRoundBeacon, payload));
      net->coord_unicast(1, msg(MsgKind::kFilterAssign, payload + 1));
      net->coord_broadcast(msg(MsgKind::kFilterUpdate, payload + 2));
      if (round % 2 == 0) {
        net->coord_unicast(3, msg(MsgKind::kProbe, payload + 3));
      }
    }
    payload += 10;

    for (NodeId id = 0; id < kN; ++id) {
      const bool clean = id != 1 && !(round % 2 == 0 && id == 3);
      EXPECT_EQ(bulk.node_mail_is_broadcast_only(id), clean)
          << "round " << round << " node " << id;
      std::vector<Message> want;
      drain.drain_node(id, want);
      const auto got = bulk_or_drain(bulk, id);
      expect_same(got, want);
      EXPECT_FALSE(bulk.node_has_mail(id));
    }
    EXPECT_EQ(bulk.pending_deliveries(), drain.pending_deliveries());
  }
}

TEST(BulkBroadcast, AckSettlesAccountingAndDueBits) {
  CommStats stats;
  Network net(3, &stats);
  net.coord_broadcast(msg(MsgKind::kRoundBeacon, 1));
  net.coord_broadcast(msg(MsgKind::kRoundBeacon, 2));
  EXPECT_EQ(net.pending_deliveries(), 6u);  // 2 broadcasts x 3 nodes

  ASSERT_TRUE(net.node_mail_is_broadcast_only(0));
  EXPECT_EQ(net.unread_broadcasts(0).size(), 2u);
  net.ack_broadcasts(0);
  EXPECT_EQ(net.pending_deliveries(), 4u);
  EXPECT_FALSE(net.node_has_mail(0));
  EXPECT_TRUE(net.unread_broadcasts(0).empty());
  // An ack is idempotent for accounting: nothing unread, nothing to undo.
  net.ack_broadcasts(0);
  EXPECT_EQ(net.pending_deliveries(), 4u);

  // The other nodes' suffixes are untouched.
  EXPECT_EQ(net.unread_broadcasts(1).size(), 2u);
  EXPECT_EQ(net.unread_broadcasts(1)[0].a, 1);
  EXPECT_EQ(net.unread_broadcasts(1)[1].a, 2);
}

TEST(BulkBroadcast, StragglerJoiningMidCompaction) {
  // Node 2 never drains while the log grows past the compaction
  // threshold; its cursor pins the prefix, so bulk readers keep getting
  // exact suffixes and the straggler eventually reads every message.
  constexpr std::size_t kBroadcasts = 5000;  // > compaction threshold (4096)
  CommStats stats;
  Network net(3, &stats);

  std::size_t read_by_0 = 0;
  for (std::size_t i = 0; i < kBroadcasts; ++i) {
    net.coord_broadcast(
        msg(MsgKind::kRoundBeacon, static_cast<std::int64_t>(i)));
    // Nodes 0 and 1 keep up via the bulk path; the post-pass compaction
    // runs every round exactly like a driver tick would run it.
    for (NodeId id = 0; id < 2; ++id) {
      const auto suffix = net.unread_broadcasts(id);
      if (id == 0) {
        ASSERT_EQ(suffix.size(), 1u);
        EXPECT_EQ(suffix[0].a, static_cast<std::int64_t>(i));
        ++read_by_0;
      }
      net.ack_broadcasts(id);
    }
    net.compact_broadcast_log();
  }
  EXPECT_EQ(read_by_0, kBroadcasts);

  // The straggler's cursor blocked compaction: every message is retained
  // and its suffix replays the full history in issue order.
  EXPECT_EQ(net.broadcast_log_size(), kBroadcasts);
  ASSERT_TRUE(net.node_mail_is_broadcast_only(2));
  const auto suffix = net.unread_broadcasts(2);
  ASSERT_EQ(suffix.size(), kBroadcasts);
  for (std::size_t i = 0; i < kBroadcasts; ++i) {
    ASSERT_EQ(suffix[i].a, static_cast<std::int64_t>(i)) << "at " << i;
  }
  net.ack_broadcasts(2);
  EXPECT_EQ(net.pending_deliveries(), 0u);

  // With every cursor at the end the deferred compaction reclaims the
  // log; the issue counter keeps counting and new broadcasts deliver
  // exact one-element suffixes to everyone.
  net.compact_broadcast_log();
  EXPECT_EQ(net.broadcast_log_size(), kBroadcasts);
  EXPECT_TRUE(net.broadcast_log().empty());
  net.coord_broadcast(msg(MsgKind::kWinnerAnnounce, 77));
  for (NodeId id = 0; id < 3; ++id) {
    const auto s = net.unread_broadcasts(id);
    ASSERT_EQ(s.size(), 1u);
    EXPECT_EQ(s[0].a, 77);
    net.ack_broadcasts(id);
  }
}

TEST(BulkBroadcast, ScheduledPoliciesNeverQualify) {
  NetworkSpec spec;
  spec.delay = 1;
  CommStats stats;
  Network net(2, &stats, spec, 7);
  net.coord_broadcast(msg(MsgKind::kRoundBeacon, 1));
  net.advance_clock_to(5);
  ASSERT_TRUE(net.node_has_mail(0));
  // The bulk fast path is an instant-mode optimization only; scheduled
  // deliveries always go through drain_node.
  EXPECT_FALSE(net.node_mail_is_broadcast_only(0));
  std::vector<Message> mail;
  net.drain_node(0, mail);
  EXPECT_EQ(mail.size(), 1u);
}

TEST(BulkBroadcast, SharedRuntimeDueMailFollowsBulkAcks) {
  // When the network is built over a NodeRuntime, acks clear the shared
  // due-mail bits the SimDriver scans.
  NodeRuntime rt(2);
  CommStats stats;
  Network net(2, &stats, NetworkSpec{}, 0, &rt);
  net.coord_broadcast(msg(MsgKind::kRoundBeacon, 9));
  EXPECT_TRUE(rt.due_mail.test(0));
  EXPECT_TRUE(rt.due_mail.test(1));
  net.ack_broadcasts(0);
  EXPECT_FALSE(rt.due_mail.test(0));
  EXPECT_TRUE(rt.due_mail.test(1));
}

// -- beacon-deaf nodes --------------------------------------------------------

/// An instant network over its own NodeRuntime, so tests can flip the
/// beacon-deaf bits a node algorithm would declare through NodeCtx.
struct RuntimeNet {
  explicit RuntimeNet(std::size_t n)
      : rt(n), net(n, &stats, NetworkSpec{}, 0, &rt) {}
  NodeRuntime rt;
  CommStats stats;
  Network net;
};

TEST(BulkBroadcast, BeaconSkipsDeafNodes) {
  RuntimeNet r(4);
  r.rt.beacon_deaf.set(1);
  r.rt.beacon_deaf.set(3);
  r.net.coord_broadcast(msg(MsgKind::kRoundBeacon, 5));
  EXPECT_TRUE(r.net.node_has_mail(0));
  EXPECT_FALSE(r.net.node_has_mail(1));
  EXPECT_TRUE(r.net.node_has_mail(2));
  EXPECT_FALSE(r.net.node_has_mail(3));
  // The skipped links are neither pending nor dropped; the send is still
  // charged once.
  EXPECT_EQ(r.net.pending_deliveries(), 2u);
  EXPECT_EQ(r.net.dropped_deliveries(), 0u);
  EXPECT_EQ(r.stats.by_kind(MsgKind::kRoundBeacon), 1u);
  // Draining a deaf node yields nothing and settles nothing.
  std::vector<Message> out;
  r.net.drain_node(1, out);
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(r.net.pending_deliveries(), 2u);
}

TEST(BulkBroadcast, DeafNodeWithMailDueReadsTheBeaconToo) {
  // A deaf node whose bit is already up reads the beacon with its mail,
  // so the beacon counts as pending for it.
  RuntimeNet r(2);
  r.rt.beacon_deaf.set(1);
  r.net.coord_unicast(1, msg(MsgKind::kProbe, 1));
  r.net.coord_broadcast(msg(MsgKind::kRoundBeacon, 2));
  EXPECT_EQ(r.net.pending_deliveries(), 3u);
  std::vector<Message> out;
  r.net.drain_node(1, out);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].kind, MsgKind::kProbe);
  EXPECT_EQ(out[1].kind, MsgKind::kRoundBeacon);
  EXPECT_EQ(r.net.pending_deliveries(), 1u);
}

TEST(BulkBroadcast, LaterMailDeliversOnlyItselfToADeafNode) {
  RuntimeNet r(3);
  r.rt.beacon_deaf.set(2);
  for (int i = 0; i < 3; ++i) {
    r.net.coord_broadcast(msg(MsgKind::kRoundBeacon, i));
  }
  // Node 2 hears again, as a session join would declare: the beacons it
  // was deaf to stay skipped.
  r.rt.beacon_deaf.clear(2);
  r.net.coord_unicast(2, msg(MsgKind::kFilterAssign, 10));
  EXPECT_FALSE(r.net.node_mail_is_broadcast_only(2));
  std::vector<Message> out;
  r.net.drain_node(2, out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].kind, MsgKind::kFilterAssign);

  // Same after another skipped run, through a non-beacon broadcast and
  // the bulk path.
  r.rt.beacon_deaf.set(2);
  r.net.coord_broadcast(msg(MsgKind::kRoundBeacon, 20));
  r.net.coord_broadcast(msg(MsgKind::kRoundBeacon, 21));
  r.net.coord_broadcast(msg(MsgKind::kFilterUpdate, 22));
  ASSERT_TRUE(r.net.node_mail_is_broadcast_only(2));
  const auto suffix = r.net.unread_broadcasts(2);
  ASSERT_EQ(suffix.size(), 1u);
  EXPECT_EQ(suffix[0].kind, MsgKind::kFilterUpdate);
  EXPECT_EQ(suffix[0].a, 22);
  r.net.ack_broadcasts(2);
  for (NodeId id = 0; id < 2; ++id) {
    EXPECT_EQ(bulk_or_drain(r.net, id).size(), 6u) << "node " << id;
  }
  EXPECT_EQ(r.net.pending_deliveries(), 0u);

  // And a beacon once the node hears again.
  r.rt.beacon_deaf.set(2);
  r.net.coord_broadcast(msg(MsgKind::kRoundBeacon, 30));
  r.rt.beacon_deaf.clear(2);
  r.net.coord_broadcast(msg(MsgKind::kRoundBeacon, 31));
  const auto got = bulk_or_drain(r.net, 2);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].a, 31);
}

TEST(BulkBroadcast, HearingNodesDeliveriesMatchANetworkWithNoDeafNodes) {
  // Nodes 0-3 hear everything; 4-7 turn deaf and hearing on a fixed
  // schedule. The hearing nodes' mail and the pending count over them
  // must match a network where nobody is ever deaf.
  constexpr std::size_t kN = 8;
  constexpr NodeId kHearing = 4;
  RuntimeNet mixed(kN);
  RuntimeNet plain(kN);
  std::int64_t payload = 0;
  for (int round = 0; round < 40; ++round) {
    for (NodeId id = kHearing; id < kN; ++id) {
      mixed.rt.beacon_deaf.assign(id, (round + id) % 3 != 0);
    }
    for (RuntimeNet* r : {&mixed, &plain}) {
      r->net.coord_broadcast(msg(MsgKind::kRoundBeacon, payload));
      if (round % 4 == 1) {
        r->net.coord_broadcast(msg(MsgKind::kWinnerAnnounce, payload + 1));
      }
      if (round % 5 == 2) r->net.coord_unicast(1, msg(MsgKind::kProbe, 7));
      if (round % 7 == 3) r->net.coord_unicast(6, msg(MsgKind::kProbe, 8));
    }
    ++payload;
    if (round % 3 == 2) continue;  // let mail pile up across rounds
    std::uint64_t plain_deaf_side = 0;
    for (NodeId id = 0; id < kN; ++id) {
      const auto want = bulk_or_drain(plain.net, id);
      const auto got = bulk_or_drain(mixed.net, id);
      if (id < kHearing) {
        expect_same(got, want);
      } else {
        // A deaf-side node gets a subset: never more than the plain one.
        EXPECT_LE(got.size(), want.size());
        plain_deaf_side += want.size();
      }
    }
    EXPECT_EQ(plain.net.pending_deliveries(), 0u);
    EXPECT_EQ(mixed.net.pending_deliveries(), 0u);
    EXPECT_GT(plain_deaf_side, 0u);
  }
  EXPECT_EQ(mixed.net.dropped_deliveries(), 0u);
}

TEST(BulkBroadcast, NodeDownDropsNoSkippedBeacon) {
  RuntimeNet r(3);
  r.rt.beacon_deaf.set(2);
  for (int i = 0; i < 5; ++i) {
    r.net.coord_broadcast(msg(MsgKind::kRoundBeacon, i));
  }
  r.net.set_node_down(2);
  EXPECT_EQ(r.net.dropped_deliveries(), 0u);
  EXPECT_EQ(r.net.pending_deliveries(), 10u);  // nodes 0 and 1 only

  // A hearing node taken down drops exactly its unread beacons.
  r.net.set_node_down(1);
  EXPECT_EQ(r.net.dropped_deliveries(), 5u);
  EXPECT_EQ(r.net.pending_deliveries(), 5u);

  // Back up and hearing: delivery resumes with the next send only.
  r.rt.beacon_deaf.clear(2);
  r.net.set_node_up(2);
  r.net.coord_broadcast(msg(MsgKind::kRoundBeacon, 9));
  const auto got = bulk_or_drain(r.net, 2);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].a, 9);
}

TEST(BulkBroadcast, DeafNodeDoesNotPinCompaction) {
  // Node 2 is deaf and never visited for 10k beacons; unlike the
  // straggler above, it must not hold back the log prefix.
  constexpr std::size_t kBeacons = 10'000;
  RuntimeNet r(3);
  r.rt.beacon_deaf.set(2);
  for (std::size_t i = 0; i < kBeacons; ++i) {
    r.net.coord_broadcast(
        msg(MsgKind::kRoundBeacon, static_cast<std::int64_t>(i)));
    EXPECT_FALSE(r.net.node_has_mail(2));
    for (NodeId id = 0; id < 2; ++id) r.net.ack_broadcasts(id);
    r.net.compact_broadcast_log();
  }
  EXPECT_EQ(r.net.broadcast_log_size(), kBeacons);
  EXPECT_LT(r.net.broadcast_log().size(), 4096u);
  EXPECT_EQ(r.net.pending_deliveries(), 0u);

  // Its cursor now lies before the retained log; the next mail still
  // reaches it as exactly that mail.
  r.net.coord_broadcast(msg(MsgKind::kFilterUpdate, 42));
  ASSERT_TRUE(r.net.node_has_mail(2));
  const auto got = bulk_or_drain(r.net, 2);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].a, 42);
}

}  // namespace
}  // namespace topkmon
