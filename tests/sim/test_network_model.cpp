// NetworkSpec parsing/naming and the scheduled delivery modes of the
// rebuilt Network: fixed delay, per-link jitter, deterministic drops,
// batch coalescing, and the pending-delivery accounting that drives
// event-loop quiescence.
#include <gtest/gtest.h>

#include "sim/cluster.hpp"
#include "sim/network_model.hpp"

namespace topkmon {
namespace {

Message value_report(Value v) {
  Message m;
  m.kind = MsgKind::kValueReport;
  m.a = v;
  return m;
}

TEST(NetworkSpecTest, ParseAndNameRoundTrip) {
  EXPECT_EQ(parse_network_spec("instant"), NetworkSpec{});
  EXPECT_EQ(parse_network_spec(""), NetworkSpec{});
  EXPECT_TRUE(parse_network_spec("instant").is_instant());
  EXPECT_EQ(NetworkSpec{}.name(), "instant");

  const auto spec = parse_network_spec("delay=2,jitter=1,drop=0.05,batch=4");
  EXPECT_EQ(spec.delay, 2u);
  EXPECT_EQ(spec.jitter, 1u);
  EXPECT_DOUBLE_EQ(spec.drop_rate, 0.05);
  EXPECT_EQ(spec.batch_window, 4u);
  EXPECT_FALSE(spec.is_instant());
  EXPECT_EQ(parse_network_spec(spec.name()), spec);

  const auto budget = parse_network_spec("ticks=8");
  EXPECT_EQ(budget.ticks_per_step, 8u);
  EXPECT_TRUE(budget.is_instant());  // budget alone keeps instant delivery

  EXPECT_THROW(parse_network_spec("delay"), std::invalid_argument);
  EXPECT_THROW(parse_network_spec("warp=9"), std::invalid_argument);
  EXPECT_THROW(parse_network_spec("drop=1.5"), std::invalid_argument);
  EXPECT_THROW(parse_network_spec("delay=x"), std::invalid_argument);
  // 32-bit knobs must reject (not truncate) out-of-range values — a
  // silently wrapped "delay=2^32" would masquerade as the instant model.
  EXPECT_THROW(parse_network_spec("delay=4294967296"), std::invalid_argument);
  EXPECT_THROW(parse_network_spec("jitter=99999999999"),
               std::invalid_argument);
  // NaN fails every range comparison: it must not slip into drop_rate,
  // where it would run the scheduled path yet be named "instant".
  EXPECT_THROW(parse_network_spec("drop=nan"), std::invalid_argument);
}

TEST(NetworkSpecTest, TinyDropRatesKeepTheirIdentityInNames) {
  // std::to_string-style 6-decimal formatting would report drop=1e-7 as
  // "drop=0" — a lossy run labelled lossless. name() must round-trip.
  NetworkSpec spec;
  spec.drop_rate = 1e-7;
  EXPECT_FALSE(spec.is_instant());
  EXPECT_EQ(parse_network_spec(spec.name()), spec);
  spec.drop_rate = 0.12345678;
  EXPECT_EQ(parse_network_spec(spec.name()), spec);
}

TEST(ScheduledNetworkTest, FixedDelayHoldsDeliveries) {
  CommStats stats;
  Network net(2, &stats, parse_network_spec("delay=2"), 1);

  net.node_send(0, value_report(7));
  EXPECT_EQ(net.pending_deliveries(), 1u);
  std::vector<Message> mail;
  net.drain_coordinator(mail);
  EXPECT_TRUE(mail.empty());  // due at tick 2

  net.advance_clock();
  net.drain_coordinator(mail);
  EXPECT_TRUE(mail.empty());
  net.advance_clock();
  net.drain_coordinator(mail);
  ASSERT_EQ(mail.size(), 1u);
  EXPECT_EQ(mail[0].a, 7);
  EXPECT_EQ(net.pending_deliveries(), 0u);
  EXPECT_EQ(stats.upstream(), 1u);  // charged at send time
}

TEST(ScheduledNetworkTest, DelayedDeliveriesArriveInSendOrder) {
  CommStats stats;
  Network net(2, &stats, parse_network_spec("delay=1"), 1);
  net.node_send(0, value_report(1));
  net.node_send(1, value_report(2));
  net.advance_clock();
  std::vector<Message> mail;
  net.drain_coordinator(mail);
  ASSERT_EQ(mail.size(), 2u);
  EXPECT_EQ(mail[0].a, 1);
  EXPECT_EQ(mail[1].a, 2);
}

TEST(ScheduledNetworkTest, BroadcastFansOutPerLink) {
  CommStats stats;
  Network net(3, &stats, parse_network_spec("delay=1"), 1);
  net.coord_broadcast(value_report(5));
  EXPECT_EQ(stats.broadcast(), 1u);          // charged once (paper's model)
  EXPECT_EQ(net.pending_deliveries(), 3u);   // one delivery per link
  net.advance_clock();
  std::vector<Message> mail;
  for (NodeId id = 0; id < 3; ++id) {
    net.drain_node(id, mail);
    ASSERT_EQ(mail.size(), 1u) << id;
    EXPECT_EQ(mail[0].a, 5);
  }
  EXPECT_EQ(net.pending_deliveries(), 0u);
}

TEST(ScheduledNetworkTest, JitterIsDeterministicAndBounded) {
  const auto spec = parse_network_spec("delay=1,jitter=3");
  const auto run = [&](std::uint64_t seed) {
    CommStats stats;
    Network net(4, &stats, spec, seed);
    for (int i = 0; i < 32; ++i) net.node_send(0, value_report(i));
    std::vector<int> arrival_tick(32, -1);
    std::vector<Message> mail;
    for (int tick = 0; tick <= 5; ++tick) {
      net.drain_coordinator(mail);
      for (const auto& m : mail) {
        arrival_tick[static_cast<std::size_t>(m.a)] = tick;
      }
      net.advance_clock();
    }
    return arrival_tick;
  };
  const auto a = run(9);
  EXPECT_EQ(a, run(9));   // same seed, same schedule
  EXPECT_NE(a, run(10));  // jitter depends on the link-hash seed
  bool saw_spread = false;
  for (const int t : a) {
    ASSERT_GE(t, 1);  // at least the fixed delay
    ASSERT_LE(t, 4);  // at most delay + jitter
    if (t != a[0]) saw_spread = true;
  }
  EXPECT_TRUE(saw_spread);
}

TEST(ScheduledNetworkTest, DropsAreDeterministicAndCharged) {
  const auto spec = parse_network_spec("drop=0.5");
  const auto run = [&](std::uint64_t seed) {
    CommStats stats;
    Network net(2, &stats, spec, seed);
    for (int i = 0; i < 200; ++i) net.node_send(0, value_report(i));
    std::vector<Message> mail;
    net.drain_coordinator(mail);
    EXPECT_EQ(stats.upstream(), 200u);  // sends charged even when lost
    EXPECT_EQ(mail.size() + net.dropped_deliveries(), 200u);
    std::vector<Value> got;
    for (const auto& m : mail) got.push_back(m.a);
    return got;
  };
  const auto a = run(4);
  EXPECT_EQ(a, run(4));
  // Half the messages, within loose binomial bounds.
  EXPECT_GT(a.size(), 60u);
  EXPECT_LT(a.size(), 140u);
}

TEST(ScheduledNetworkTest, BatchWindowCoalescesDeliveries) {
  CommStats stats;
  Network net(2, &stats, parse_network_spec("batch=4"), 1);
  net.node_send(0, value_report(1));  // sent at tick 0 -> due tick 0 (0 % 4)
  net.advance_clock();                // tick 1
  net.node_send(0, value_report(2));  // due tick 4
  net.advance_clock();                // tick 2
  net.node_send(0, value_report(3));  // due tick 4
  std::vector<Message> mail;
  net.drain_coordinator(mail);
  EXPECT_EQ(mail.size(), 1u);  // only the tick-0 send
  net.advance_clock_to(3);
  net.drain_coordinator(mail);
  EXPECT_TRUE(mail.empty());
  net.advance_clock_to(4);
  net.drain_coordinator(mail);
  EXPECT_EQ(mail.size(), 2u);  // the window's batch
}

TEST(ScheduledNetworkTest, EarliestPendingReportsNextDeliveryTick) {
  CommStats stats;
  Network net(2, &stats, parse_network_spec("delay=3"), 1);
  EXPECT_FALSE(net.earliest_pending().has_value());
  net.coord_unicast(1, value_report(1));
  ASSERT_TRUE(net.earliest_pending().has_value());
  EXPECT_EQ(*net.earliest_pending(), 3u);
}

TEST(InstantNetworkTest, PendingAccountingTracksDrains) {
  CommStats stats;
  Network net(2, &stats);  // instant
  net.node_send(0, value_report(1));
  net.coord_broadcast(value_report(2));
  net.coord_unicast(1, value_report(3));
  EXPECT_EQ(net.pending_deliveries(), 1u + 2u + 1u);
  std::vector<Message> mail;
  net.drain_coordinator(mail);
  EXPECT_EQ(net.pending_deliveries(), 3u);
  net.drain_node(0, mail);
  EXPECT_EQ(net.pending_deliveries(), 2u);
  net.drain_node(1, mail);
  EXPECT_EQ(net.pending_deliveries(), 0u);
}

}  // namespace
}  // namespace topkmon
