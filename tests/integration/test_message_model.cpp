// Model-conformance tests: the communication observed through the EventLog
// tap must obey the paper's model — quiescent steps are silent for
// filter-based algorithms, accounting channels agree with the tap, message
// kinds flow only in their legal directions, and payloads fit the model's
// word budget by construction.
#include <gtest/gtest.h>

#include "../core/role_drive.hpp"
#include "core/runner.hpp"
#include "sim/event_log.hpp"
#include "streams/factory.hpp"

namespace topkmon {
namespace {

/// Runs Algorithm 1 with a tap attached; returns the log and final stats.
struct TappedRun {
  EventLog log;
  CommStats stats;
  MonitorStats monitor;
  std::vector<TimeStep> violation_steps;
};

TappedRun run_tapped(std::size_t n, std::size_t k, std::size_t steps,
                     std::uint64_t seed) {
  StreamSpec spec;
  spec.family = StreamFamily::kRandomWalk;
  spec.walk.max_step = 4'000;
  auto streams = make_stream_set(spec, n, seed);
  TappedRun out;
  std::vector<Value> values(n);
  streams.advance_all(values);
  testing::Deployed m("topk_filter", k, seed, values, false, &out.log);
  for (TimeStep t = 1; t <= steps; ++t) {
    streams.advance_all(values);
    const auto before = m.stats().violation_steps;
    m.step(values, t);
    if (m.stats().violation_steps != before) {
      out.violation_steps.push_back(t);
    }
  }
  out.stats = m.cluster().stats();
  out.monitor = m.stats();
  return out;
}

TEST(MessageModel, TapAgreesWithAccounting) {
  const auto r = run_tapped(12, 3, 400, 5);
  EXPECT_EQ(r.log.size(), r.stats.total());
  EXPECT_EQ(r.log.count_direction(MsgDirection::kUpstream), r.stats.upstream());
  EXPECT_EQ(r.log.count_direction(MsgDirection::kUnicast), r.stats.unicast());
  EXPECT_EQ(r.log.count_direction(MsgDirection::kBroadcast),
            r.stats.broadcast());
}

TEST(MessageModel, QuiescentStepsAreSilent) {
  const auto r = run_tapped(12, 3, 400, 7);
  // Messages may only appear at step 0 (initialization) or at steps the
  // monitor reported a violation.
  std::vector<char> allowed(401, 0);
  allowed[0] = 1;
  for (const auto t : r.violation_steps) allowed[t] = 1;
  for (const auto t : r.log.active_steps()) {
    EXPECT_TRUE(allowed[t]) << "unexpected traffic at step " << t;
  }
}

TEST(MessageModel, KindsFlowInLegalDirectionsOnly) {
  const auto r = run_tapped(12, 3, 400, 9);
  for (const auto& e : r.log.events()) {
    switch (e.message.kind) {
      case MsgKind::kValueReport:
      case MsgKind::kViolation:
        EXPECT_EQ(e.direction, MsgDirection::kUpstream);
        break;
      case MsgKind::kRoundBeacon:
      case MsgKind::kWinnerAnnounce:
      case MsgKind::kFilterUpdate:
      case MsgKind::kProtocolStart:
        EXPECT_EQ(e.direction, MsgDirection::kBroadcast);
        break;
      case MsgKind::kFilterAssign:
      case MsgKind::kProbe:
        EXPECT_EQ(e.direction, MsgDirection::kUnicast);
        break;
      case MsgKind::kKindCount:
        FAIL() << "invalid kind on the wire";
    }
  }
}

TEST(MessageModel, UpstreamMessagesCarryTrueSender) {
  const auto r = run_tapped(8, 2, 200, 11);
  for (const auto& e : r.log.events()) {
    if (e.direction != MsgDirection::kUpstream) continue;
    EXPECT_LT(e.message.from, 8u);
  }
}

TEST(MessageModel, EveryViolationStepBroadcastsExactlyOneResolution) {
  // Each handler invocation ends in either a kFilterUpdate (midpoint) or a
  // reset whose final broadcast is also a kFilterUpdate — so every
  // violation step carries exactly one kFilterUpdate.
  const auto r = run_tapped(12, 3, 400, 13);
  for (const auto t : r.violation_steps) {
    EXPECT_EQ(r.log.count_kind_at(MsgKind::kFilterUpdate, t), 1u)
        << "step " << t;
  }
  EXPECT_EQ(r.log.count_kind(MsgKind::kFilterUpdate),
            r.violation_steps.size() + 1)  // +1 for initialization
      << "one resolution broadcast per violation step plus init";
}

TEST(MessageModel, NaiveBreakdownIsPureUpstream) {
  StreamSpec spec;
  spec.family = StreamFamily::kRandomWalk;
  auto streams = make_stream_set(spec, 6, 15);
  EventLog log;
  std::vector<Value> values(6);
  streams.advance_all(values);
  testing::Deployed m("naive", 2, 15, values, false, &log);
  for (TimeStep t = 1; t <= 50; ++t) {
    streams.advance_all(values);
    m.step(values, t);
  }
  EXPECT_EQ(log.size(), 6u * 51u);
  EXPECT_EQ(log.count_direction(MsgDirection::kUpstream), log.size());
  EXPECT_EQ(log.count_kind(MsgKind::kValueReport), log.size());
}

}  // namespace
}  // namespace topkmon
