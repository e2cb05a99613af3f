// Property tests for the timing-wheel scheduled transport: per-recipient
// delivery order is (delivery tick, send order) no matter how sends,
// clock advances and drains interleave; far-future deliveries (beyond
// the wheel span) take the overflow path and interleave with in-wheel
// deliveries correctly; repeated bursts through the same slots keep the
// accounting exact; a seeded mix pins the whole delivery sequence; the
// coordinator's column of each slot drains in (due, send) order when
// wheel, overflow and due-now deliveries meet in one drain.
#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <utility>
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

/// FNV-1a (64-bit) over the little-endian bytes of each folded word.
class Fnv1a {
 public:
  void add(std::uint64_t x) noexcept {
    for (int byte = 0; byte < 8; ++byte) {
      h_ ^= (x >> (8 * byte)) & 0xFFu;
      h_ *= 0x100000001b3ull;
    }
  }
  std::uint64_t value() const noexcept { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

/// Drives one seeded random mix of node sends, coordinator unicasts and
/// broadcasts, one-tick clock advances, crashes and recoveries through a
/// 6-node network under `spec_text`, draining every recipient every tick
/// until nothing is in flight. Asserts per-recipient (drain tick, send
/// counter) order, the spec's delay window, conservation of deliveries,
/// earliest_pending() and the due-mail bits on every tick, and returns an
/// FNV-1a digest of the whole delivery sequence (with each tick's
/// earliest_pending() and drop count folded in).
std::uint64_t drive_seeded_mix(const char* spec_text, std::uint64_t seed) {
  constexpr std::size_t kN = 6;
  constexpr SimTime kSendTicks = 300;
  const NetworkSpec spec = parse_network_spec(spec_text);
  CommStats stats;
  Network net(kN, &stats, spec, seed);
  Rng rng(seed);
  Fnv1a digest;

  // Per-link deliveries issued: one per unicast / upstream send, one per
  // node per broadcast (down and dropped links included).
  std::uint64_t issued = 0;
  std::uint64_t delivered = 0;
  std::int64_t counter = 0;
  std::vector<std::pair<SimTime, std::int64_t>> last(kN + 1, {0, -1});
  std::optional<SimTime> promised;  // earliest_pending() after last drain
  std::vector<Message> mail;

  const SimTime w = spec.batch_window > 1 ? spec.batch_window : 1;
  const auto check_delivery = [&](std::size_t recipient, const Message& m) {
    const SimTime now = net.now();
    EXPECT_LT(last[recipient], std::make_pair(now, m.a))
        << spec_text << ": recipient " << recipient << " out of order";
    last[recipient] = {now, m.a};
    const auto sent = static_cast<SimTime>(m.b);
    const SimTime latest = (sent + spec.max_delay() + w - 1) / w * w;
    EXPECT_GE(now, sent + spec.delay) << spec_text << ": early delivery";
    EXPECT_LE(now, latest) << spec_text << ": late delivery";
    EXPECT_EQ(now % w, 0u) << spec_text << ": off the batch grid";
    digest.add(recipient);
    digest.add(now);
    digest.add(static_cast<std::uint64_t>(m.kind));
    digest.add(m.from);
    digest.add(static_cast<std::uint64_t>(m.a));
    ++delivered;
  };
  const auto make = [&](MsgKind kind) {
    Message m;
    m.kind = kind;
    m.a = counter++;
    m.b = static_cast<std::int64_t>(net.now());
    return m;
  };

  while (net.now() < kSendTicks || net.pending_deliveries() > 0) {
    if (rng.uniform_below(2) == 0) {
      net.advance_clock();
    } else {
      net.advance_clock_to(net.now() + 1);
    }
    const SimTime now = net.now();
    if (promised && *promised > now) {
      // Nothing sent since the last drain can be due yet (delay >= 1):
      // the promise must hold.
      EXPECT_FALSE(net.coordinator_has_mail()) << spec_text << " t=" << now;
      for (const std::uint64_t word : net.due_mail_words()) {
        EXPECT_EQ(word, 0u) << spec_text << " t=" << now;
      }
    }
    if (now < kSendTicks) {
      if (rng.uniform_below(16) == 0) {
        const auto id = static_cast<NodeId>(rng.uniform_below(kN));
        if (net.node_alive(id)) {
          net.set_node_down(id);
        } else {
          net.set_node_up(id);
        }
      }
      const std::uint64_t ops = rng.uniform_below(5);
      for (std::uint64_t op = 0; op < ops; ++op) {
        const auto id = static_cast<NodeId>(rng.uniform_below(kN));
        switch (rng.uniform_below(4)) {
          case 0:
          case 1:
            if (!net.node_alive(id)) break;  // a down node cannot send
            net.node_send(id, make(MsgKind::kValueReport));
            ++issued;
            break;
          case 2:
            net.coord_unicast(id, make(MsgKind::kProbe));
            ++issued;
            break;
          default:
            net.coord_broadcast(make(MsgKind::kRoundBeacon));
            issued += kN;
            break;
        }
      }
    }
    // Due bits and earliest_pending() agree with what the drains find.
    const std::optional<SimTime> before = net.earliest_pending();
    bool any = false;
    for (NodeId id = 0; id < kN; ++id) {
      const bool flagged = net.node_has_mail(id);
      net.drain_node(id, mail);
      EXPECT_EQ(flagged, !mail.empty()) << spec_text << " t=" << now;
      EXPECT_TRUE(mail.empty() || net.node_alive(id)) << spec_text;
      any = any || !mail.empty();
      for (const Message& m : mail) check_delivery(id, m);
    }
    const bool coord_flagged = net.coordinator_has_mail();
    net.drain_coordinator(mail);
    EXPECT_EQ(coord_flagged, !mail.empty()) << spec_text << " t=" << now;
    any = any || !mail.empty();
    for (const Message& m : mail) check_delivery(kN, m);
    if (any) {
      EXPECT_EQ(before, std::optional<SimTime>(now)) << spec_text;
    }
    promised = net.earliest_pending();
    EXPECT_EQ(promised.has_value(), net.pending_deliveries() > 0);
    EXPECT_GT(promised.value_or(now + 1), now) << spec_text;
    EXPECT_EQ(issued, delivered + net.dropped_deliveries() +
                          net.pending_deliveries())
        << spec_text << " t=" << now;
    digest.add(promised.value_or(0));
    digest.add(net.dropped_deliveries());
  }
  EXPECT_GT(delivered, 0u) << spec_text;
  EXPECT_EQ(stats.total(), issued - (kN - 1) * stats.broadcast());
  return digest.value();
}

TEST(TimingWheel, SeededMixMatchesPinnedDeliverySequence) {
  // The pinned digests fix every delivery's recipient, due tick and
  // payload, every tick's earliest_pending() and the drop count: any
  // change to the transport's schedule or ordering shows here.
  struct Case {
    const char* spec;
    std::uint64_t digest;
  };
  const Case cases[] = {
      {"delay=2", 14479910183473475475ull},
      {"delay=1,jitter=6", 11066732084098183449ull},
      {"delay=1,jitter=2,drop=0.2", 3947240698398729645ull},
      {"delay=1,jitter=3,batch=4", 9669400802628013676ull},
      {"delay=2,jitter=4,ticks=8", 4217142053570372788ull},
      // Straddles the 4096-tick wheel span: wheel and overflow heap mix.
      {"delay=4093,jitter=6", 11407514331904731393ull},
      // Beyond the span: every delivery takes the overflow heap.
      {"delay=5000,jitter=3", 16638165974108685094ull},
  };
  for (const Case& c : cases) {
    EXPECT_EQ(drive_seeded_mix(c.spec, 17), c.digest) << c.spec;
  }
}

/// Nodes of the scripted runs below (node 0 always up).
constexpr std::size_t kVisitNodes = 5;

/// One visit of a scripted run: advance the clock to `t`, make the
/// sends, drain every recipient, then apply the liveness toggles (with
/// every inbox empty, so a crash drops only in-flight mail, at its due
/// tick, however the clock got there).
struct Visit {
  SimTime t = 0;
  std::vector<NodeId> toggles;  ///< node ids taken down / brought up
  /// (sender or recipient, upstream?) per send.
  std::vector<std::pair<NodeId, bool>> sends;
};

/// What one visit drained and left behind.
struct VisitRecord {
  /// Per recipient (the nodes, then the coordinator): (due tick, payload)
  /// per delivery, in drain order. The due tick is only known to the
  /// one-tick reference (it drains every tick), so the scripted side
  /// records 0.
  std::vector<std::vector<std::pair<SimTime, std::int64_t>>> mail;
  std::uint64_t pending = 0;
  std::optional<SimTime> earliest;
  std::uint64_t dropped = 0;
};

using VisitPlan = std::vector<Visit>;

/// Runs `plan` on a fresh network. With `one_tick` the clock visits every
/// tick and each recipient drains every tick, so each delivery's drain
/// tick is its due tick; otherwise the clock jumps straight to each
/// visit with one advance_clock_to call, and each drain takes everything
/// that fell due since the previous visit.
std::vector<VisitRecord> run_visits(const NetworkSpec& spec,
                                    const VisitPlan& plan, bool one_tick) {
  CommStats stats;
  Network net(kVisitNodes, &stats, spec, 23);
  std::vector<VisitRecord> out;
  std::vector<Message> mail;
  std::int64_t payload_tag = 0;
  VisitRecord rec;
  rec.mail.resize(kVisitNodes + 1);
  const auto drain_all = [&] {
    for (NodeId id = 0; id < kVisitNodes; ++id) {
      net.drain_node(id, mail);
      for (const Message& m : mail) {
        rec.mail[id].emplace_back(one_tick ? net.now() : 0, m.a);
      }
    }
    net.drain_coordinator(mail);
    for (const Message& m : mail) {
      rec.mail[kVisitNodes].emplace_back(one_tick ? net.now() : 0, m.a);
    }
  };
  for (const Visit& v : plan) {
    if (one_tick) {
      while (net.now() < v.t) {
        net.advance_clock();
        if (net.now() < v.t) drain_all();
      }
    } else {
      net.advance_clock_to(v.t);
    }
    for (const auto& [id, upstream] : v.sends) {
      Message m;
      m.kind = upstream ? MsgKind::kValueReport : MsgKind::kProbe;
      m.a = payload_tag++;
      m.b = static_cast<std::int64_t>(v.t);
      if (upstream) {
        net.node_send(id, m);
      } else {
        net.coord_unicast(id, m);
      }
    }
    drain_all();
    for (const NodeId id : v.toggles) {
      if (net.node_alive(id)) {
        net.set_node_down(id);
      } else {
        net.set_node_up(id);
      }
    }
    rec.pending = net.pending_deliveries();
    rec.earliest = net.earliest_pending();
    rec.dropped = net.dropped_deliveries();
    out.push_back(std::move(rec));
    rec = VisitRecord{};
    rec.mail.resize(kVisitNodes + 1);
  }
  return out;
}

TEST(TimingWheel, CoordinatorColumnDrainsInDueThenSendOrder) {
  // A slot keeps coordinator mail in its own column, appended to the
  // inbox in bulk, while overflow and due-now coordinator deliveries go
  // one by one. A scripted run that jumps the clock by one or several
  // ticks before each drain must drain exactly what a run visiting every
  // tick drains over the same ticks, in the same order, which is (due,
  // send) order, and leave the same pending, earliest and dropped counts.
  constexpr std::size_t kN = kVisitNodes;
  constexpr SimTime kSendTicks = 200;
  struct Case {
    const char* spec;
    bool due_now;   ///< some drain mixes a due-now send with older mail
    bool overflow;  ///< some drain mixes overflow with wheel mail
  };
  const Case cases[] = {
      {"delay=0,jitter=2", true, false},
      {"delay=2,jitter=4", false, false},
      {"delay=4093,jitter=6", false, true},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.spec);
    const NetworkSpec spec = parse_network_spec(c.spec);
    Rng rng(31);
    VisitPlan plan;
    std::vector<char> up(kN, 1);
    const SimTime end = kSendTicks + spec.max_delay() + 2;
    for (SimTime t = 0; t < end;) {
      // One-tick and multi-tick jumps, about evenly.
      t += rng.uniform_below(2) == 0 ? 1 : 2 + rng.uniform_below(8);
      Visit v;
      v.t = t;
      if (t < kSendTicks) {
        const std::uint64_t sends = 1 + rng.uniform_below(6);
        for (std::uint64_t i = 0; i < sends; ++i) {
          const auto id = static_cast<NodeId>(rng.uniform_below(kN));
          const bool upstream = rng.uniform_below(3) != 0;
          if (upstream && up[id] == 0) continue;  // a down node cannot send
          v.sends.emplace_back(id, upstream);
        }
        if (rng.uniform_below(8) == 0) {
          // Node 0 stays up: it keeps the coordinator's inbox busy.
          const auto id = static_cast<NodeId>(1 + rng.uniform_below(kN - 1));
          v.toggles.push_back(id);
          up[id] ^= 1;
        }
      }
      plan.push_back(std::move(v));
    }

    const auto ref = run_visits(spec, plan, /*one_tick=*/true);
    const auto got = run_visits(spec, plan, /*one_tick=*/false);
    ASSERT_EQ(ref.size(), got.size());
    bool mixed_due_now = false;
    bool mixed_overflow = false;
    std::size_t multi_due_drains = 0;
    std::vector<SimTime> sent_at;  // by payload tag
    for (const Visit& v : plan) {
      sent_at.insert(sent_at.end(), v.sends.size(), v.t);
    }
    for (std::size_t i = 0; i < ref.size(); ++i) {
      const SimTime t = plan[i].t;
      for (std::size_t r = 0; r <= kN; ++r) {
        const auto& want = ref[i].mail[r];
        const auto& have = got[i].mail[r];
        ASSERT_EQ(want.size(), have.size()) << "t=" << t << " r=" << r;
        for (std::size_t j = 0; j < want.size(); ++j) {
          EXPECT_EQ(want[j].second, have[j].second)
              << "t=" << t << " r=" << r << " #" << j;
          if (j > 0) {
            // (due, send) order: payload tags follow send order.
            EXPECT_LT(want[j - 1], want[j]) << "t=" << t << " r=" << r;
          }
        }
        if (r != kN || want.empty()) continue;
        // Route of each coordinator delivery, from its schedule offset:
        // 0 is due at the send, beyond the 4096-tick wheel cap overflows.
        bool due_now = false, wheel = false, overflow = false;
        for (const auto& [due, tag] : want) {
          const SimTime offset = due - sent_at[static_cast<std::size_t>(tag)];
          if (offset == 0) {
            due_now = true;
          } else if (offset >= 4096) {
            overflow = true;
          } else {
            wheel = true;
          }
        }
        mixed_due_now = mixed_due_now || (due_now && wheel);
        mixed_overflow = mixed_overflow || (overflow && wheel);
        if (want.front().first != want.back().first) ++multi_due_drains;
      }
      EXPECT_EQ(ref[i].pending, got[i].pending) << "t=" << t;
      EXPECT_EQ(ref[i].earliest, got[i].earliest) << "t=" << t;
      EXPECT_EQ(ref[i].dropped, got[i].dropped) << "t=" << t;
    }
    EXPECT_EQ(got.back().pending, 0u);
    EXPECT_EQ(got.back().earliest, std::nullopt);
    EXPECT_GT(got.back().dropped, 0u);  // node-bound mail to down nodes
    EXPECT_GT(multi_due_drains, 0u);
    EXPECT_EQ(mixed_due_now, c.due_now);
    EXPECT_EQ(mixed_overflow, c.overflow);
  }
}

TEST(TimingWheel, RepeatedBurstsReuseWheelSlots) {
  // Slots are reused tick after tick: after a warm-up burst, identical
  // bursts keep pending/dropped accounting exact and deliver everything
  // (this is the functional canary; the allocation count itself is
  // covered by the perf suite's alloc hook).
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
