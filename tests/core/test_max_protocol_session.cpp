// Algorithm 2 (MAXIMUMPROTOCOL(n)) as the monitors run it: the extremum
// sessions of core/role_session.hpp. A `recompute` role pair with k = 1
// convenes exactly one maximum session in SimDriver::initialize() (suites
// e1-e3 measure exactly this path); with k = m it runs the repeated-
// extremum selection of FILTERRESET. The minimum direction runs on a
// one-session role pair defined here over the same session structs.
// Participants are the live nodes; N is always the cluster size, so a
// cluster with down nodes runs the protocol under a loose upper bound N.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <memory>
#include <numeric>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "core/role_session.hpp"
#include "role_drive.hpp"
#include "util/statistics.hpp"

namespace topkmon {
namespace {

using testing::Deployed;

/// Message counts and answer of one initialization of a role pair.
struct SessionRun {
  std::uint64_t reports = 0;
  std::uint64_t beacons = 0;
  std::uint64_t announces = 0;
  std::uint64_t total = 0;
  std::vector<NodeId> topk;
};

SessionRun collect(const Cluster& c, const CoordinatorAlgo& coord) {
  const CommStats& comm = c.stats();
  return {comm.by_kind(MsgKind::kValueReport),
          comm.by_kind(MsgKind::kRoundBeacon),
          comm.by_kind(MsgKind::kWinnerAnnounce), comm.total(), coord.topk()};
}

/// Initializes the registry's `spec` role pair over `values`, with the
/// nodes in `down` down from the start.
SessionRun run_spec_pair(const std::string& spec, std::size_t k,
                         const std::vector<Value>& values, std::uint64_t seed,
                         const std::vector<NodeId>& down = {}) {
  Cluster c(values, seed);
  for (const NodeId id : down) c.net().set_node_down(id);
  const exp::RolePair pair = exp::make_role_pair(c, spec, k);
  SimDriver(c, *pair.coordinator, pair.nodes).initialize();
  return collect(c, *pair.coordinator);
}

/// MAXIMUMPROTOCOL(n): one recompute session with k = 1.
SessionRun run_max(const std::vector<Value>& values, std::uint64_t seed,
                   const std::vector<NodeId>& down = {}) {
  return run_spec_pair("recompute", 1, values, seed, down);
}

// -- a one-session role pair in a chosen direction ----------------------------

class SessionNode final : public NodeAlgo {
 public:
  void on_init(NodeCtx& ctx, Value) override {
    ctx.set_quiet_range(kMinusInf, kPlusInf);
  }
  void on_message(NodeCtx&, const Message& m) override {
    if (m.kind == MsgKind::kRoundBeacon) sess_.handle_beacon(m);
  }
  void on_control(NodeCtx& ctx, const Control& c) override {
    if (c.op == kStartSessionOp) sess_.join(ctx, unpack_session_start(c));
  }
  void on_timer(NodeCtx& ctx) override { sess_.run_round(ctx, ctx.value()); }

 private:
  NodeProtoSession sess_;
};

/// Convenes one session over every live node at initialization and at
/// each step; topk() holds the last session's winner.
class SessionCoordinator final : public CoordinatorAlgo {
 public:
  explicit SessionCoordinator(Direction dir) : dir_(dir) {}
  std::string_view name() const override { return "session"; }
  void on_init(CoordCtx& ctx) override { begin(ctx); }
  void on_step_begin(CoordCtx& ctx, TimeStep) override { begin(ctx); }
  void on_message(CoordCtx&, const Message& m) override {
    if (m.kind == MsgKind::kValueReport) sess_.fold(m);
  }
  void on_timer(CoordCtx& ctx) override {
    if (sess_.active && sess_.advance(ctx) && sess_.have_best) {
      winner_ = {sess_.best_holder};
    }
  }
  const std::vector<NodeId>& topk() const override { return winner_; }

 private:
  void begin(CoordCtx& ctx) {
    winner_.clear();
    sess_.begin(ctx, dir_, 0, ctx.n());
  }

  Direction dir_;
  CoordProtoSession sess_;
  std::vector<NodeId> winner_;
};

/// A SessionCoordinator deployment driven step by step.
class SessionDeployed {
 public:
  SessionDeployed(Direction dir, const std::vector<Value>& v0,
                  std::uint64_t seed)
      : cluster_(v0, seed), coord_(dir), nodes_(make_nodes(v0.size())),
        driver_(cluster_, coord_, nodes_) {
    driver_.initialize();
  }

  /// Observation step t with the given values: one fresh session.
  NodeId step(const std::vector<Value>& values, TimeStep t) {
    for (NodeId id = 0; id < values.size(); ++id) {
      cluster_.set_value(id, values[id]);
    }
    driver_.step(t);
    return winner();
  }

  NodeId winner() const { return coord_.topk().at(0); }
  SessionRun run() const { return collect(cluster_, coord_); }

 private:
  static std::vector<std::unique_ptr<NodeAlgo>> make_nodes(std::size_t n) {
    std::vector<std::unique_ptr<NodeAlgo>> nodes;
    for (std::size_t i = 0; i < n; ++i) {
      nodes.push_back(std::make_unique<SessionNode>());
    }
    return nodes;
  }

  Cluster cluster_;
  SessionCoordinator coord_;
  std::vector<std::unique_ptr<NodeAlgo>> nodes_;
  SimDriver driver_;
};

/// MINIMUMPROTOCOL(n) over every node.
SessionRun run_min(const std::vector<Value>& values, std::uint64_t seed) {
  return SessionDeployed(Direction::kMin, values, seed).run();
}

std::uint32_t log2_n(std::size_t n) { return floor_log2(next_pow2(n)); }

std::vector<Value> iota_values(std::size_t n, Value scale = 1) {
  std::vector<Value> values(n);
  for (std::size_t i = 0; i < n; ++i) {
    values[i] = static_cast<Value>(i) * scale;
  }
  return values;
}

/// The winner ids of a selection in announcement (selection) order.
std::vector<NodeId> announced(const EventLog& log) {
  std::vector<NodeId> ids;
  for (const MessageEvent& e : log.events()) {
    if (e.message.kind == MsgKind::kWinnerAnnounce) {
      ids.push_back(unpack_beacon_b(e.message.b).holder);
    }
  }
  return ids;
}

enum class Layout { kUniform, kAscending, kDescending, kAllEqual };

/// Node values of e1's first trial at suite seed `seed`.
std::vector<Value> e1_values(std::uint64_t seed, std::uint32_t exp2,
                             Layout layout) {
  const std::size_t n = std::size_t{1} << exp2;
  Rng rng(seed * 1000 + exp2 * 8 + static_cast<std::uint64_t>(layout));
  std::vector<Value> values(n);
  for (NodeId i = 0; i < n; ++i) {
    switch (layout) {
      case Layout::kUniform:
        values[i] = rng.uniform_int(0, 1'000'000'000);
        break;
      case Layout::kAscending:
        values[i] = static_cast<Value>(i);
        break;
      case Layout::kDescending:
        values[i] = static_cast<Value>(n - i);
        break;
      case Layout::kAllEqual:
        values[i] = 42;
        break;
    }
  }
  return values;
}

struct E1Cell {
  std::uint64_t seed;
  std::uint32_t exp2;
  Layout layout;
  std::uint64_t reports;
  std::uint64_t beacons;
  NodeId winner;
};

// Frozen from the lock-step MAXIMUMPROTOCOL implementation that e1
// measured before it moved onto the session path: e1's first trial
// (cluster seed seed·7919 + exp2) of every layout at n = 2^4..2^12.
constexpr E1Cell kE1Cells[] = {
    {1, 4, Layout::kUniform, 3, 4, 6},
    {1, 4, Layout::kAscending, 4, 4, 15},
    {1, 4, Layout::kDescending, 4, 4, 0},
    {1, 4, Layout::kAllEqual, 4, 4, 0},
    {1, 6, Layout::kUniform, 3, 6, 43},
    {1, 6, Layout::kAscending, 9, 6, 63},
    {1, 6, Layout::kDescending, 6, 6, 0},
    {1, 6, Layout::kAllEqual, 6, 6, 0},
    {1, 8, Layout::kUniform, 9, 8, 209},
    {1, 8, Layout::kAscending, 9, 8, 255},
    {1, 8, Layout::kDescending, 11, 8, 0},
    {1, 8, Layout::kAllEqual, 11, 8, 0},
    {1, 10, Layout::kUniform, 11, 10, 92},
    {1, 10, Layout::kAscending, 5, 10, 1023},
    {1, 10, Layout::kDescending, 8, 10, 0},
    {1, 10, Layout::kAllEqual, 8, 10, 0},
    {1, 12, Layout::kUniform, 7, 12, 1491},
    {1, 12, Layout::kAscending, 11, 12, 4095},
    {1, 12, Layout::kDescending, 17, 12, 0},
    {1, 12, Layout::kAllEqual, 17, 12, 0},
    {2, 4, Layout::kUniform, 5, 4, 15},
    {2, 4, Layout::kAscending, 6, 4, 15},
    {2, 4, Layout::kDescending, 4, 4, 0},
    {2, 4, Layout::kAllEqual, 4, 4, 0},
    {2, 6, Layout::kUniform, 6, 6, 5},
    {2, 6, Layout::kAscending, 8, 6, 63},
    {2, 6, Layout::kDescending, 6, 6, 0},
    {2, 6, Layout::kAllEqual, 6, 6, 0},
    {2, 8, Layout::kUniform, 6, 8, 181},
    {2, 8, Layout::kAscending, 10, 8, 255},
    {2, 8, Layout::kDescending, 11, 8, 0},
    {2, 8, Layout::kAllEqual, 11, 8, 0},
    {2, 10, Layout::kUniform, 6, 10, 203},
    {2, 10, Layout::kAscending, 13, 10, 1023},
    {2, 10, Layout::kDescending, 3, 10, 0},
    {2, 10, Layout::kAllEqual, 3, 10, 0},
    {2, 12, Layout::kUniform, 18, 12, 1762},
    {2, 12, Layout::kAscending, 10, 12, 4095},
    {2, 12, Layout::kDescending, 7, 12, 0},
    {2, 12, Layout::kAllEqual, 7, 12, 0},
    {3, 4, Layout::kUniform, 7, 4, 5},
    {3, 4, Layout::kAscending, 5, 4, 15},
    {3, 4, Layout::kDescending, 4, 4, 0},
    {3, 4, Layout::kAllEqual, 4, 4, 0},
    {3, 6, Layout::kUniform, 10, 6, 47},
    {3, 6, Layout::kAscending, 5, 6, 63},
    {3, 6, Layout::kDescending, 8, 6, 0},
    {3, 6, Layout::kAllEqual, 8, 6, 0},
    {3, 8, Layout::kUniform, 6, 8, 58},
    {3, 8, Layout::kAscending, 6, 8, 255},
    {3, 8, Layout::kDescending, 8, 8, 0},
    {3, 8, Layout::kAllEqual, 8, 8, 0},
    {3, 10, Layout::kUniform, 17, 10, 483},
    {3, 10, Layout::kAscending, 4, 10, 1023},
    {3, 10, Layout::kDescending, 19, 10, 0},
    {3, 10, Layout::kAllEqual, 19, 10, 0},
    {3, 12, Layout::kUniform, 14, 12, 1058},
    {3, 12, Layout::kAscending, 8, 12, 4095},
    {3, 12, Layout::kDescending, 5, 12, 0},
    {3, 12, Layout::kAllEqual, 5, 12, 0},
};

TEST(MaxProtocolSession, RecomputeK1MatchesFrozenE1Cells) {
  for (const E1Cell& cell : kE1Cells) {
    Deployed d("recompute", 1, cell.seed * 7919 + cell.exp2,
               e1_values(cell.seed, cell.exp2, cell.layout));
    const CommStats& comm = d.cluster().stats();
    SCOPED_TRACE(::testing::Message()
                 << "seed " << cell.seed << " n=2^" << cell.exp2
                 << " layout " << static_cast<int>(cell.layout));
    EXPECT_EQ(comm.by_kind(MsgKind::kValueReport), cell.reports);
    EXPECT_EQ(comm.by_kind(MsgKind::kRoundBeacon), cell.beacons);
    EXPECT_EQ(comm.by_kind(MsgKind::kWinnerAnnounce), 1u);
    EXPECT_EQ(comm.total(), cell.reports + cell.beacons + 1);
    EXPECT_EQ(d.topk(), std::vector<NodeId>{cell.winner});
  }
}

// -- tie break ----------------------------------------------------------------

TEST(Beats, MaxDirection) {
  EXPECT_TRUE(beats(Direction::kMax, 5, 0, 3, 1));
  EXPECT_FALSE(beats(Direction::kMax, 3, 0, 5, 1));
  // Ties: smaller id wins.
  EXPECT_TRUE(beats(Direction::kMax, 5, 0, 5, 1));
  EXPECT_FALSE(beats(Direction::kMax, 5, 1, 5, 0));
}

TEST(Beats, MinDirection) {
  EXPECT_TRUE(beats(Direction::kMin, 3, 0, 5, 1));
  EXPECT_FALSE(beats(Direction::kMin, 5, 0, 3, 1));
  EXPECT_TRUE(beats(Direction::kMin, 5, 0, 5, 1));
}

// -- exactness ----------------------------------------------------------------

TEST(MaxProtocol, SingleParticipant) {
  // One live node of three: N = 3 still sets log2 N = 2 rounds of beacons.
  const SessionRun r = run_max({10, 20, 30}, 1, {0, 2});
  EXPECT_EQ(r.topk, std::vector<NodeId>{1});
  EXPECT_EQ(r.reports, 1u);  // p = 1 in the final round
  EXPECT_EQ(r.beacons, 2u);
}

TEST(MaxProtocol, AlwaysExactOverManySeeds) {
  // Las Vegas: the returned maximum is exact for every random seed.
  const std::vector<Value> values{3, 141, 59, 26, 535, 89, 79, 323};
  for (std::uint64_t seed = 0; seed < 200; ++seed) {
    EXPECT_EQ(run_max(values, seed).topk, std::vector<NodeId>{4})
        << "seed " << seed;
  }
}

TEST(MinProtocol, AlwaysExactOverManySeeds) {
  const std::vector<Value> values{42, -7, 100, 0, 13, -7 + 1};
  for (std::uint64_t seed = 0; seed < 200; ++seed) {
    EXPECT_EQ(run_min(values, seed).topk, std::vector<NodeId>{1})
        << "seed " << seed;
  }
}

TEST(MaxProtocol, TieBreaksTowardSmallerId) {
  const std::vector<Value> values{5, 9, 9, 2};
  for (std::uint64_t seed = 0; seed < 100; ++seed) {
    EXPECT_EQ(run_max(values, seed).topk, std::vector<NodeId>{1})
        << "seed " << seed;
  }
}

TEST(MaxProtocol, SubsetParticipantsIgnoreOthers) {
  // A down node takes no part, however large its value.
  EXPECT_EQ(run_max({1000, 5, 3, 8}, 1, {0}).topk, std::vector<NodeId>{3});
}

TEST(MaxProtocol, NegativeValuesWork) {
  EXPECT_EQ(run_max({-50, -3, -77, -1, -20}, 5).topk, std::vector<NodeId>{3});
}

TEST(ProtocolExtremes, HugeMagnitudesExact) {
  // Values near the integer limits survive the beacon/report path
  // unchanged (the session computes no midpoints).
  const Value big = std::numeric_limits<Value>::max() / 2;
  const std::vector<Value> values{-big, big, 0, big - 1, -big + 1};
  for (std::uint64_t seed = 0; seed < 40; ++seed) {
    EXPECT_EQ(run_max(values, seed).topk, std::vector<NodeId>{1});
    EXPECT_EQ(run_min(values, seed).topk, std::vector<NodeId>{0});
  }
}

class LooseUpperBound
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::uint64_t>> {
};

TEST_P(LooseUpperBound, StillExactAndBounded) {
  // N = 8·slack while only the first eight nodes are live: Algorithm 1
  // runs sessions whose N only upper-bounds the participants.
  const auto [slack_factor, seed] = GetParam();
  std::vector<Value> values{12, 99, 5, 40, 77, 63, 8, 21};
  const std::size_t n = values.size() * slack_factor;
  values.resize(n, 1000);
  std::vector<NodeId> down(n - 8);
  std::iota(down.begin(), down.end(), NodeId{8});
  const SessionRun r = run_max(values, seed, down);
  EXPECT_EQ(r.topk, std::vector<NodeId>{1});
  EXPECT_EQ(r.beacons, log2_n(n));
}

INSTANTIATE_TEST_SUITE_P(
    Slack, LooseUpperBound,
    ::testing::Combine(::testing::Values<std::size_t>(1, 2, 16, 1024),
                       ::testing::Range<std::uint64_t>(1, 6)));

TEST(ProtocolSubsets, RandomSubsetsAlwaysExact) {
  Rng rng(99);
  for (int trial = 0; trial < 60; ++trial) {
    const std::size_t n = 24;
    std::vector<Value> values(n);
    for (auto& v : values) v = rng.uniform_int(-1'000, 1'000);
    std::vector<NodeId> ids(n);
    std::iota(ids.begin(), ids.end(), 0);
    rng.shuffle(ids.begin(), ids.end());
    const std::size_t take = 1 + rng.uniform_below(n);
    NodeId expect = kNoHolder;
    for (std::size_t i = 0; i < take; ++i) {
      if (expect == kNoHolder ||
          beats(Direction::kMax, values[ids[i]], ids[i], values[expect],
                expect)) {
        expect = ids[i];
      }
    }
    const std::vector<NodeId> down(ids.begin() + take, ids.end());
    EXPECT_EQ(run_max(values, 1'000 + trial, down).topk,
              std::vector<NodeId>{expect})
        << "trial " << trial;
  }
}

class ProtocolExactness
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::uint64_t>> {
};

TEST_P(ProtocolExactness, MaxAndMinAlwaysExact) {
  const auto [n, seed] = GetParam();
  Rng values_rng(seed * 7919 + 13);
  std::vector<Value> values(n);
  NodeId best = 0;
  NodeId worst = 0;
  for (NodeId i = 0; i < n; ++i) {
    values[i] = values_rng.uniform_int(-1'000'000, 1'000'000);
    if (values[i] > values[best]) best = i;
    if (values[i] < values[worst]) worst = i;
  }
  EXPECT_EQ(run_max(values, seed).topk, std::vector<NodeId>{best});
  EXPECT_EQ(run_min(values, seed).topk, std::vector<NodeId>{worst});
}

INSTANTIATE_TEST_SUITE_P(
    SizesAndSeeds, ProtocolExactness,
    ::testing::Combine(::testing::Values<std::size_t>(1, 2, 5, 17, 64, 200),
                       ::testing::Range<std::uint64_t>(1, 11)));

// -- consecutive runs ---------------------------------------------------------

TEST(MaxProtocol, ConsecutiveRunsIsolatedByEpochs) {
  // The first two sessions of a k = 3 selection beacon 1000 and 900. The
  // third runs over {2, 3}; a beacon of an earlier epoch must not
  // deactivate them, or the session would end without a report.
  const std::vector<Value> values{1000, 900, 5, 3};
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    EXPECT_EQ(run_spec_pair("recompute", 3, values, seed).topk,
              (std::vector<NodeId>{0, 1, 2}))
        << "seed " << seed;
  }
}

TEST(ProtocolSequencing, ValueChangesBetweenRunsRespected) {
  std::vector<Value> values{10, 20, 30, 40};
  Deployed max("recompute", 1, 7, values);
  SessionDeployed min(Direction::kMin, values, 7);
  EXPECT_EQ(max.topk(), std::vector<NodeId>{3});
  EXPECT_EQ(min.winner(), 0u);
  values[3] = -5;
  values[0] = 35;
  max.step(values, 1);
  EXPECT_EQ(max.topk(), std::vector<NodeId>{0});
  EXPECT_EQ(min.step(values, 1), 3u);
}

TEST(ProtocolSequencing, ManyAlternatingRunsStayExact) {
  const std::vector<Value> a{3, 1, 4, 1, 5, 9, 2, 6};
  const std::vector<Value> b{9, 2, 6, 5, 3, 5, 8, 1};
  Deployed max("recompute", 1, 11, a);
  SessionDeployed min(Direction::kMin, a, 11);
  for (TimeStep t = 1; t <= 50; ++t) {
    const bool odd = t % 2 == 1;
    max.step(odd ? b : a, t);
    EXPECT_EQ(max.topk(), std::vector<NodeId>{odd ? 0u : 5u}) << "t=" << t;
    // Min with a tie at 1 on `a`: ids 1 and 3 -> smaller id wins.
    EXPECT_EQ(min.step(odd ? b : a, t), odd ? 7u : 1u) << "t=" << t;
  }
}

// -- message costs ------------------------------------------------------------

TEST(MaxProtocol, RoundsAreLogNPlusOne) {
  // log2 N + 1 rounds, each but the last closed by one beacon.
  for (const std::size_t n : {1u, 2u, 3u, 4u, 7u, 8u, 9u, 64u}) {
    const SessionRun r = run_max(iota_values(n), 1);
    EXPECT_EQ(r.beacons, log2_n(n)) << "n=" << n;
    EXPECT_EQ(r.topk, std::vector<NodeId>{static_cast<NodeId>(n - 1)});
  }
}

TEST(MaxProtocol, MessageAccountingMatchesNetwork) {
  Cluster c(std::vector<Value>{8, 1, 6, 3, 5, 7, 4, 9}, 11);
  const exp::RolePair pair = exp::make_role_pair(c, "recompute", 1);
  SimDriver(c, *pair.coordinator, pair.nodes).initialize();
  const SessionRun r = collect(c, *pair.coordinator);
  EXPECT_EQ(c.stats().upstream(), r.reports);
  EXPECT_EQ(c.stats().broadcast(), r.beacons + r.announces);
  EXPECT_EQ(c.stats().unicast(), 0u);
  EXPECT_EQ(r.total, r.reports + r.beacons + r.announces);
}

// -- beacon fan-out -----------------------------------------------------------

/// Forwards every callback to the wrapped node and counts the round
/// beacons it receives, flagging any that reach a node outside
/// `hearers` (the nodes in an active session when the beacon was sent).
class BeaconCountingNode final : public NodeAlgo {
 public:
  BeaconCountingNode(std::unique_ptr<NodeAlgo> inner,
                     const std::vector<char>& hearers,
                     std::uint64_t& delivered, std::uint64_t& unexpected)
      : inner_(std::move(inner)),
        hearers_(hearers),
        delivered_(delivered),
        unexpected_(unexpected) {}

  void on_init(NodeCtx& ctx, Value v0) override { inner_->on_init(ctx, v0); }
  void on_observe(NodeCtx& ctx, Value v, TimeStep t) override {
    inner_->on_observe(ctx, v, t);
  }
  void on_message(NodeCtx& ctx, const Message& m) override {
    if (m.kind == MsgKind::kRoundBeacon) {
      ++delivered_;
      if (hearers_[ctx.id()] == 0) ++unexpected_;
    }
    inner_->on_message(ctx, m);
  }
  void on_control(NodeCtx& ctx, const Control& c) override {
    inner_->on_control(ctx, c);
  }
  void on_timer(NodeCtx& ctx) override { inner_->on_timer(ctx); }
  void on_recover(NodeCtx& ctx) override { inner_->on_recover(ctx); }

 private:
  std::unique_ptr<NodeAlgo> inner_;
  const std::vector<char>& hearers_;
  std::uint64_t& delivered_;
  std::uint64_t& unexpected_;
};

TEST(MaxProtocolSession, BeaconsReachOnlyNodesActiveInTheSession) {
  // MAXIMUMPROTOCOL(4096) on recompute k = 1. A node is in an active
  // session exactly while its next round is armed, so the armed set when
  // a beacon is sent is the set the beacon must reach: no more (the
  // beacon-deaf skip) and no fewer.
  constexpr std::size_t kN = 4096;
  Cluster c(e1_values(1, 12, Layout::kUniform), 1 * 7919 + 12);
  exp::RolePair pair = exp::make_role_pair(c, "recompute", 1);
  std::vector<char> hearers(kN, 0);
  std::uint64_t delivered = 0;
  std::uint64_t unexpected = 0;
  std::vector<std::uint64_t> expected;  // per beacon: active at the send
  std::vector<std::uint64_t> got;       // per beacon: on_message calls
  std::uint64_t deaf_mismatches = 0;
  const NodeRuntime& rt = c.runtime();
  c.net().set_tap([&](MsgDirection dir, const Message& m) {
    if (dir != MsgDirection::kBroadcast || m.kind != MsgKind::kRoundBeacon) {
      return;
    }
    if (!expected.empty()) got.push_back(delivered);
    delivered = 0;
    std::uint64_t active = 0;
    for (NodeId id = 0; id < kN; ++id) {
      const bool armed = rt.armed.test(id);
      hearers[id] = armed ? 1 : 0;
      active += armed ? 1 : 0;
      if (rt.beacon_deaf.test(id) == armed) ++deaf_mismatches;
    }
    expected.push_back(active);
  });
  std::vector<std::unique_ptr<NodeAlgo>> nodes;
  for (auto& inner : pair.nodes) {
    nodes.push_back(std::make_unique<BeaconCountingNode>(
        std::move(inner), hearers, delivered, unexpected));
  }
  SimDriver(c, *pair.coordinator, nodes).initialize();
  got.push_back(delivered);

  ASSERT_EQ(expected.size(), log2_n(kN));
  EXPECT_EQ(got, expected);
  EXPECT_EQ(unexpected, 0u);
  // The session's own bookkeeping agrees: deaf exactly when not active.
  EXPECT_EQ(deaf_mismatches, 0u);
  // The first beacon still reaches nearly everyone; by the last one the
  // session has shrunk to a handful of nodes.
  EXPECT_GT(expected.front(), kN / 2);
  EXPECT_LT(expected.back(), kN / 64);
  // Same run as the frozen e1 cell (seed 1, n = 2^12, uniform).
  EXPECT_EQ(c.stats().by_kind(MsgKind::kValueReport), 7u);
  EXPECT_EQ(pair.coordinator->topk(), std::vector<NodeId>{1491});
}

TEST(MaxProtocol, AnnounceWinnerAddsOneBroadcast) {
  EventLog log;
  Deployed d("recompute", 1, 13, {8, 1, 6}, false, &log);
  EXPECT_EQ(log.count_kind(MsgKind::kWinnerAnnounce), 1u);
  const MessageEvent& last = log.events().back();
  EXPECT_EQ(last.direction, MsgDirection::kBroadcast);
  EXPECT_EQ(last.message.kind, MsgKind::kWinnerAnnounce);
  EXPECT_EQ(last.message.a, 8);
  EXPECT_EQ(unpack_beacon_b(last.message.b).holder, 0u);
}

TEST(MaxProtocol, SuppressIdleBroadcastsSendsFewerBeacons) {
  const std::vector<Value> values = iota_values(256);
  std::uint64_t beacons_normal = 0;
  std::uint64_t beacons_suppressed = 0;
  for (std::uint64_t seed = 0; seed < 50; ++seed) {
    beacons_normal += run_max(values, seed).beacons;
    const SessionRun r = run_spec_pair("recompute?nobeacon", 1, values, seed);
    beacons_suppressed += r.beacons;
    EXPECT_EQ(r.topk, std::vector<NodeId>{255})
        << "suppression must not affect correctness";
  }
  EXPECT_LT(beacons_suppressed, beacons_normal);
}

TEST(RecomputeNoBeacon, SuppressionPlusAnnounceStillAnnounces) {
  const SessionRun r = run_spec_pair("recompute?nobeacon", 1, {5, 10, 15}, 13);
  EXPECT_EQ(r.announces, 1u);
  EXPECT_EQ(r.topk, std::vector<NodeId>{2});
}

TEST(ProtocolCosts, StructuralUpperBounds) {
  Rng rng(23);
  for (int trial = 0; trial < 40; ++trial) {
    const std::size_t n = 1 + rng.uniform_below(100);
    std::vector<Value> values(n);
    for (auto& v : values) v = rng.uniform_int(0, 1'000'000);
    const SessionRun r =
        run_max(values, 31 + static_cast<std::uint64_t>(trial));
    EXPECT_LE(r.reports, n);           // each node reports at most once
    EXPECT_LE(r.beacons, log2_n(n));   // at most one beacon per round
    EXPECT_GE(r.reports, 1u);          // final round has p = 1
  }
}

TEST(MaxProtocol, ExpectedReportsWithinTheorem42Bound) {
  // Theorem 4.2: E[#reports] <= 2 log N + 1. Check the empirical mean over
  // many trials with a safety margin for sampling noise.
  for (const std::size_t n : {16u, 64u, 256u}) {
    const std::vector<Value> values = iota_values(n, 10);
    OnlineStats reports;
    for (std::uint64_t seed = 0; seed < 400; ++seed) {
      reports.add(static_cast<double>(run_max(values, seed).reports));
    }
    const double bound = 2.0 * log2_n(n) + 1.0;
    EXPECT_LE(reports.mean(), bound * 1.05) << "n=" << n;
    EXPECT_GE(reports.mean(), 1.0);
  }
}

TEST(ProtocolCosts, MeanReportsStableAtN128) {
  // The mean report count at n = 128 stays near log N + ~2.5, well under
  // 2 log N + 1: guards the coin schedule.
  const std::vector<Value> values = iota_values(128);
  OnlineStats reports;
  for (std::uint64_t seed = 0; seed < 600; ++seed) {
    reports.add(static_cast<double>(run_max(values, seed).reports));
  }
  EXPECT_GT(reports.mean(), 6.0);
  EXPECT_LT(reports.mean(), 15.0);  // 2 log 128 + 1 = 15
}

TEST(MaxProtocol, ReportsGrowLogarithmically) {
  // 512/32 = 16x more nodes; log-growth adds ~8 reports, linear would
  // add ~480. Require clearly sublinear growth.
  std::vector<double> means;
  for (const std::size_t n : {32u, 512u}) {
    const std::vector<Value> values = iota_values(n);
    OnlineStats reports;
    for (std::uint64_t seed = 0; seed < 300; ++seed) {
      reports.add(static_cast<double>(run_max(values, seed).reports));
    }
    means.push_back(reports.mean());
  }
  EXPECT_LT(means[1], means[0] + 12.0);
}

TEST(MinProtocol, MirrorsMaxCost) {
  // The min protocol on values is distributionally the max protocol on
  // negated values; its cost is in the same ballpark.
  const std::vector<Value> values = iota_values(128);
  OnlineStats max_reports;
  OnlineStats min_reports;
  for (std::uint64_t seed = 0; seed < 200; ++seed) {
    max_reports.add(static_cast<double>(run_max(values, seed).reports));
    min_reports.add(static_cast<double>(run_min(values, seed).reports));
  }
  EXPECT_NEAR(max_reports.mean(), min_reports.mean(), 2.5);
}

// -- repeated-extremum selection (k = m) --------------------------------------

TEST(SelectExtreme, FullDescendingOrder) {
  EventLog log;
  Deployed d("recompute", 5, 1, {30, 50, 10, 40, 20}, false, &log);
  EXPECT_EQ(announced(log), (std::vector<NodeId>{1, 3, 0, 4, 2}));
  EXPECT_EQ(d.topk(), (std::vector<NodeId>{0, 1, 2, 3, 4}));
}

TEST(SelectExtreme, TopMOnly) {
  const SessionRun r = run_spec_pair("recompute", 2, {30, 50, 10, 40, 20}, 3);
  EXPECT_EQ(r.topk, (std::vector<NodeId>{1, 3}));
}

TEST(SelectExtreme, AnnouncesEveryWinner) {
  EventLog log;
  Deployed d("recompute", 3, 5, {4, 9, 1, 7, 3}, false, &log);
  EXPECT_EQ(log.count_kind(MsgKind::kWinnerAnnounce), 3u);
  EXPECT_EQ(announced(log), (std::vector<NodeId>{1, 3, 0}));
}

TEST(SelectExtreme, MessageTotalsMatchNetwork) {
  const SessionRun r =
      run_spec_pair("recompute", 4, {9, 8, 7, 6, 5, 4, 3, 2}, 9);
  EXPECT_EQ(r.announces, 4u);
  EXPECT_EQ(r.total, r.reports + r.beacons + r.announces);
}

TEST(SelectExtreme, CostScalesLinearlyInM) {
  const std::vector<Value> values = iota_values(64);
  double cost1 = 0;
  double cost8 = 0;
  for (std::uint64_t seed = 0; seed < 60; ++seed) {
    cost1 += static_cast<double>(
        run_spec_pair("recompute", 1, values, seed).total);
    cost8 += static_cast<double>(
        run_spec_pair("recompute", 8, values, seed).total);
  }
  // 8 iterations should cost roughly 8x one iteration (within 2x slack).
  EXPECT_GT(cost8, 4.0 * cost1);
  EXPECT_LT(cost8, 16.0 * cost1);
}

TEST(SelectExtreme, WinnersAreDistinct) {
  EventLog log;
  Deployed d("recompute", 4, 11, {4, 4, 4, 4}, false, &log);  // all tied
  // Tie-break order: smaller ids first, each winner once.
  EXPECT_EQ(announced(log), (std::vector<NodeId>{0, 1, 2, 3}));
}

TEST(RecomputeNoBeacon, SelectionWorksWithSuppression) {
  EventLog log;
  Deployed d("recompute?nobeacon", 5, 17, {50, 10, 40, 20, 30}, false, &log);
  EXPECT_EQ(announced(log), (std::vector<NodeId>{0, 2, 4, 3, 1}));
}

}  // namespace
}  // namespace topkmon
