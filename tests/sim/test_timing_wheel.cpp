// Property tests for the slab/timing-wheel scheduled transport: per-
// recipient delivery order is (delivery tick, send order) no matter how
// sends, clock advances and drains interleave; far-future deliveries
// (beyond the wheel span) take the overflow path and interleave with
// in-wheel deliveries correctly; the slab recycles nodes so repeated
// bursts do not grow memory without bound.
#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "sim/network.hpp"
#include "sim/network_model.hpp"
#include "util/rng.hpp"

namespace topkmon {
namespace {

Message payload(std::int64_t tag) {
  Message m;
  m.kind = MsgKind::kValueReport;
  m.a = tag;
  return m;
}

TEST(TimingWheel, PerRecipientOrderIsDueThenSendOrder) {
  // Random traffic under jitter: each recipient must see its messages
  // sorted by delivery tick, and within a tick in send order. The send
  // tag encodes the global send index; delivery ticks are recovered by
  // replaying schedule decisions through a reference map keyed by drain
  // tick.
  NetworkSpec spec;
  spec.delay = 1;
  spec.jitter = 7;
  CommStats stats;
  Network net(5, &stats, spec, 99);
  Rng rng(4);

  std::map<NodeId, std::vector<std::pair<SimTime, std::int64_t>>> seen;
  std::int64_t tag = 0;
  std::vector<Message> buf;
  for (int round = 0; round < 200; ++round) {
    const int sends = static_cast<int>(rng.uniform_below(4));
    for (int s = 0; s < sends; ++s) {
      switch (rng.uniform_below(3)) {
        case 0:
          net.node_send(static_cast<NodeId>(rng.uniform_below(5)),
                        payload(++tag));
          break;
        case 1:
          net.coord_unicast(static_cast<NodeId>(rng.uniform_below(5)),
                            payload(++tag));
          break;
        default:
          net.coord_broadcast(payload(++tag));
          break;
      }
    }
    // Advance exactly one tick and drain: each drain then surfaces the
    // messages due at precisely this tick, where send order must hold.
    // (Multi-tick strides mix due ticks inside one drain — covered by
    // the conservation test below.)
    net.advance_clock();
    for (NodeId id = 0; id < 5; ++id) {
      net.drain_node(id, buf);
      for (const Message& m : buf) seen[id].emplace_back(net.now(), m.a);
    }
    net.drain_coordinator(buf);
    for (const Message& m : buf) {
      seen[static_cast<NodeId>(5)].emplace_back(net.now(), m.a);
    }
  }
  // Flush everything still in flight, still tick by tick.
  while (net.pending_deliveries() > 0) {
    net.advance_clock();
    for (NodeId id = 0; id < 5; ++id) {
      net.drain_node(id, buf);
      for (const Message& m : buf) seen[id].emplace_back(net.now(), m.a);
    }
    net.drain_coordinator(buf);
    for (const Message& m : buf) {
      seen[static_cast<NodeId>(5)].emplace_back(net.now(), m.a);
    }
  }

  for (const auto& [id, deliveries] : seen) {
    for (std::size_t i = 1; i < deliveries.size(); ++i) {
      // Drain ticks are non-decreasing by construction; within one drain
      // the send tags must ascend (equal-due messages replay send order,
      // distinct-due messages were sorted by due).
      ASSERT_LE(deliveries[i - 1].first, deliveries[i].first) << "id " << id;
      if (deliveries[i - 1].first == deliveries[i].first) {
        EXPECT_LT(deliveries[i - 1].second, deliveries[i].second)
            << "id " << id << " delivery " << i;
      }
    }
  }
}

TEST(TimingWheel, FarFutureDeliveriesUseOverflowAndArriveOnTime) {
  // delay far beyond the wheel span (4096 ticks) forces the overflow
  // heap; deliveries must still surface exactly at their due tick.
  NetworkSpec spec;
  spec.delay = 10'000;
  CommStats stats;
  Network net(2, &stats, spec, 1);

  net.node_send(0, payload(1));
  ASSERT_TRUE(net.earliest_pending().has_value());
  EXPECT_EQ(*net.earliest_pending(), 10'000u);

  net.advance_clock_to(9'999);
  std::vector<Message> mail;
  net.drain_coordinator(mail);
  EXPECT_TRUE(mail.empty());
  net.advance_clock();
  net.drain_coordinator(mail);
  ASSERT_EQ(mail.size(), 1u);
  EXPECT_EQ(mail[0].a, 1);
  EXPECT_EQ(net.pending_deliveries(), 0u);
}

TEST(TimingWheel, OverflowAndWheelMixDeliverWithinBoundsLosingNothing) {
  // Jitter span far beyond the wheel cap (4096): per-message schedules
  // land on both the wheel and the overflow heap, interleaved. Each
  // message carries its send tick; every delivery must land inside
  // [send + delay, send + delay + jitter] and nothing may be lost.
  NetworkSpec spec;
  spec.delay = 1'000;
  spec.jitter = 8'000;
  CommStats stats;
  Network net(2, &stats, spec, 21);
  Rng rng(8);

  constexpr int kSends = 300;
  int sent = 0;
  std::size_t got = 0;
  std::vector<Message> mail;
  while (sent < kSends || net.pending_deliveries() > 0) {
    if (sent < kSends) {
      net.node_send(0, payload(static_cast<std::int64_t>(net.now())));
      ++sent;
    }
    net.advance_clock_to(net.now() + 1 + rng.uniform_below(40));
    net.drain_coordinator(mail);
    for (const Message& m : mail) {
      const auto send_tick = static_cast<SimTime>(m.a);
      EXPECT_GE(net.now(), send_tick + 1'000);
      // Drains lag deliveries by up to the advance stride (40).
      EXPECT_LE(net.now(), send_tick + 1'000 + 8'000 + 40);
      ++got;
    }
  }
  EXPECT_EQ(got, static_cast<std::size_t>(kSends) - net.dropped_deliveries());
  EXPECT_EQ(net.dropped_deliveries(), 0u);
}

TEST(TimingWheel, JitterSpansWheelBoundary) {
  // delay + jitter straddling the wheel cap: some messages take the
  // wheel, some the overflow, on the same link. Total delivered must
  // match total scheduled, each within [delay, delay + jitter].
  NetworkSpec spec;
  spec.delay = 4'000;
  spec.jitter = 500;  // span 4502 > wheel cap 4096
  CommStats stats;
  Network net(2, &stats, spec, 7);

  constexpr int kSends = 200;
  for (int i = 0; i < kSends; ++i) net.node_send(0, payload(i));
  std::size_t got = 0;
  SimTime first = 0;
  SimTime last = 0;
  std::vector<Message> mail;
  for (SimTime t = 1; t <= 4'500; ++t) {
    net.advance_clock();
    net.drain_coordinator(mail);
    if (!mail.empty() && first == 0) first = t;
    if (!mail.empty()) last = t;
    got += mail.size();
  }
  EXPECT_EQ(got, static_cast<std::size_t>(kSends));
  EXPECT_GE(first, 4'000u);
  EXPECT_LE(last, 4'500u);
  EXPECT_EQ(net.pending_deliveries(), 0u);
}

TEST(TimingWheel, RepeatedBurstsRecycleSlabNodes) {
  // The slab must reuse freed nodes: after a warm-up burst, identical
  // bursts keep pending/dropped accounting exact and deliver everything
  // (a leak would eventually misindex the free list — this is the
  // functional canary; the allocation count itself is covered by the
  // perf suite's alloc hook).
  NetworkSpec spec;
  spec.delay = 3;
  CommStats stats;
  Network net(4, &stats, spec, 3);
  std::vector<Message> buf;
  for (int burst = 0; burst < 50; ++burst) {
    for (int i = 0; i < 32; ++i) {
      net.coord_broadcast(payload(burst * 100 + i));
    }
    EXPECT_EQ(net.pending_deliveries(), 4u * 32u);
    net.advance_clock_to(net.now() + 3);
    for (NodeId id = 0; id < 4; ++id) {
      net.drain_node(id, buf);
      EXPECT_EQ(buf.size(), 32u) << "burst " << burst << " node " << id;
    }
    EXPECT_EQ(net.pending_deliveries(), 0u);
  }
}

}  // namespace
}  // namespace topkmon
