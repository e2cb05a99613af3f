// Tests for the structured message trace (EventLog + Network tap).
#include "sim/event_log.hpp"

#include <gtest/gtest.h>

#include "../core/role_drive.hpp"
#include "sim/cluster.hpp"

namespace topkmon {
namespace {

Message mk(MsgKind kind, std::int64_t a = 0) {
  Message m;
  m.kind = kind;
  m.a = a;
  return m;
}

TEST(EventLog, StartsEmpty) {
  EventLog log;
  EXPECT_TRUE(log.empty());
  EXPECT_EQ(log.size(), 0u);
}

TEST(EventLog, RecordsWithCurrentStep) {
  EventLog log;
  log.begin_step(3);
  log.record(MsgDirection::kUpstream, mk(MsgKind::kValueReport, 7));
  log.begin_step(4);
  log.record(MsgDirection::kBroadcast, mk(MsgKind::kRoundBeacon, 9));
  ASSERT_EQ(log.size(), 2u);
  EXPECT_EQ(log.events()[0].step, 3u);
  EXPECT_EQ(log.events()[0].message.a, 7);
  EXPECT_EQ(log.events()[1].step, 4u);
  EXPECT_EQ(log.events()[1].direction, MsgDirection::kBroadcast);
}

TEST(EventLog, CountsByKindAndDirection) {
  EventLog log;
  log.record(MsgDirection::kUpstream, mk(MsgKind::kValueReport));
  log.record(MsgDirection::kUpstream, mk(MsgKind::kValueReport));
  log.record(MsgDirection::kBroadcast, mk(MsgKind::kRoundBeacon));
  EXPECT_EQ(log.count_kind(MsgKind::kValueReport), 2u);
  EXPECT_EQ(log.count_kind(MsgKind::kRoundBeacon), 1u);
  EXPECT_EQ(log.count_kind(MsgKind::kProbe), 0u);
  EXPECT_EQ(log.count_direction(MsgDirection::kUpstream), 2u);
  EXPECT_EQ(log.count_direction(MsgDirection::kUnicast), 0u);
}

TEST(EventLog, PerStepQueries) {
  EventLog log;
  log.begin_step(1);
  log.record(MsgDirection::kUpstream, mk(MsgKind::kValueReport));
  log.begin_step(5);
  log.record(MsgDirection::kUpstream, mk(MsgKind::kValueReport));
  log.record(MsgDirection::kBroadcast, mk(MsgKind::kFilterUpdate));
  EXPECT_EQ(log.at_step(1).size(), 1u);
  EXPECT_EQ(log.at_step(5).size(), 2u);
  EXPECT_TRUE(log.at_step(3).empty());
  EXPECT_EQ(log.count_kind_at(MsgKind::kFilterUpdate, 5), 1u);
  EXPECT_EQ(log.count_kind_at(MsgKind::kFilterUpdate, 1), 0u);
  EXPECT_EQ(log.active_steps(), (std::vector<TimeStep>{1, 5}));
}

TEST(EventLog, DumpAndLimit) {
  EventLog log;
  for (int i = 0; i < 5; ++i) {
    log.record(MsgDirection::kBroadcast, mk(MsgKind::kRoundBeacon, i));
  }
  const auto full = log.dump();
  EXPECT_EQ(std::count(full.begin(), full.end(), '\n'), 5);
  const auto limited = log.dump(2);
  EXPECT_NE(limited.find("more"), std::string::npos);
}

TEST(EventLog, ClearResets) {
  EventLog log;
  log.record(MsgDirection::kUpstream, mk(MsgKind::kValueReport));
  log.clear();
  EXPECT_TRUE(log.empty());
}

TEST(EventLog, TapsNetworkTraffic) {
  // One MAXIMUMPROTOCOL(4) session: recompute with k = 1.
  EventLog log;
  testing::Deployed d("recompute", 1, 1, {10, 20, 30, 40}, false, &log);
  const CommStats& comm = d.cluster().stats();
  // Every counted message must have been tapped.
  EXPECT_EQ(log.size(), comm.total());
  EXPECT_EQ(log.count_direction(MsgDirection::kUpstream), comm.upstream());
  EXPECT_EQ(log.count_direction(MsgDirection::kBroadcast), comm.broadcast());
  EXPECT_EQ(log.count_kind(MsgKind::kValueReport),
            comm.by_kind(MsgKind::kValueReport));
  EXPECT_EQ(log.count_kind(MsgKind::kRoundBeacon),
            comm.by_kind(MsgKind::kRoundBeacon));
  EXPECT_EQ(log.count_kind(MsgKind::kWinnerAnnounce), 1u);
}

TEST(EventLog, TapSeesUpstreamSenderIds) {
  Cluster c(3, 2);
  EventLog log;
  c.net().set_tap(log.tap());
  Message m;
  m.kind = MsgKind::kValueReport;
  m.a = 42;
  c.net().node_send(2, m);
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(log.events()[0].message.from, 2u);
}

}  // namespace
}  // namespace topkmon
