// The SimDriver's quiet-range contract, pinned with a stub NodeAlgo that
// declares ranges and records every on_observe it receives:
//
//   * step(t, changed) observes exactly the live ids whose value lies
//     outside their declared range;
//   * set_needs_observe(false) is the point range [v, v], and
//     set_needs_observe(true) the empty range (observed every step);
//   * a recovery resets the range to empty (forced observe), and a down
//     node is never observed;
//   * an out-of-range changed id throws std::out_of_range before any node
//     callback runs, through both SimDriver::step and
//     ShardedDeployment::step.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <random>
#include <stdexcept>
#include <string_view>
#include <vector>

#include "core/driver.hpp"
#include "core/root_merge.hpp"
#include "sim/cluster.hpp"
#include "sim/fault_plan.hpp"

namespace topkmon {
namespace {

/// How a stub node declares its quiet range (in on_init and after every
/// observe, around the value it just saw).
enum class Declare : std::uint8_t {
  kBand,    ///< set_quiet_range(v - kHalfWidth, v + kHalfWidth)
  kPoint,   ///< set_quiet_range(v, v)
  kFalse,   ///< set_needs_observe(false)
  kTrue,    ///< set_needs_observe(true)
};

constexpr Value kHalfWidth = 8;

struct Observe {
  TimeStep t;
  Value v;
  friend bool operator==(const Observe&, const Observe&) = default;
};

/// Records its own observes (one log per node: the parallel scan runs
/// nodes of different shards concurrently, and each node's log is only
/// ever touched by its owning shard).
class RangeNode final : public NodeAlgo {
 public:
  explicit RangeNode(Declare mode) : mode_(mode) {}

  void on_init(NodeCtx& ctx, Value v0) override { declare(ctx, v0); }
  void on_observe(NodeCtx& ctx, Value v, TimeStep t) override {
    log_.push_back(Observe{t, v});
    declare(ctx, v);
  }

  const std::vector<Observe>& log() const noexcept { return log_; }

 private:
  void declare(NodeCtx& ctx, Value v) {
    switch (mode_) {
      case Declare::kBand:
        ctx.set_quiet_range(v - kHalfWidth, v + kHalfWidth);
        break;
      case Declare::kPoint:
        ctx.set_quiet_range(v, v);
        break;
      case Declare::kFalse:
        ctx.set_needs_observe(false);
        break;
      case Declare::kTrue:
        ctx.set_needs_observe(true);
        break;
    }
  }

  Declare mode_;
  std::vector<Observe> log_;
};

class StubCoordinator final : public CoordinatorAlgo {
 public:
  std::string_view name() const override { return "stub"; }
  const std::vector<NodeId>& topk() const override { return topk_; }

 private:
  std::vector<NodeId> topk_;
};

/// One driver over `modes.size()` stub nodes (initial value 1000 * id).
struct Rig {
  explicit Rig(const std::vector<Declare>& modes) : cluster(modes.size(), 5) {
    for (const Declare mode : modes) {
      nodes.push_back(std::make_unique<RangeNode>(mode));
    }
    for (NodeId id = 0; id < modes.size(); ++id) {
      cluster.set_value(id, 1000 * static_cast<Value>(id));
    }
    driver = std::make_unique<SimDriver>(cluster, coord, nodes);
  }

  const RangeNode& node(NodeId id) const {
    return static_cast<const RangeNode&>(*nodes[id]);
  }
  /// Ids observed at step t, ascending.
  std::vector<NodeId> observed_at(TimeStep t) const {
    std::vector<NodeId> out;
    for (NodeId id = 0; id < nodes.size(); ++id) {
      const auto& log = node(id).log();
      if (!log.empty() && log.back().t == t) out.push_back(id);
    }
    return out;
  }
  std::vector<std::vector<Observe>> logs() const {
    std::vector<std::vector<Observe>> out;
    for (NodeId id = 0; id < nodes.size(); ++id) out.push_back(node(id).log());
    return out;
  }

  Cluster cluster;
  StubCoordinator coord;
  std::vector<std::unique_ptr<NodeAlgo>> nodes;
  std::unique_ptr<SimDriver> driver;
};

/// Drives 200 steps of seeded random moves (about a third of the
/// nodes change per step, by 1..12 either way) and checks every step's
/// observe set against a model of the declared ranges. Returns the logs.
std::vector<std::vector<Observe>> drive_random() {
  constexpr std::size_t kN = 300;  // five bit words, the last one partial
  std::vector<Declare> modes;
  for (std::size_t i = 0; i < kN; ++i) {
    modes.push_back(static_cast<Declare>(i % 4));
  }
  Rig rig(modes);
  rig.driver->initialize();

  // The model: each node's current range, re-declared around the value
  // it saw at its last observe (or at init).
  struct Range {
    Value lo, hi;
  };
  std::vector<Range> range(kN);
  const auto declare = [&](NodeId id, Value v) {
    switch (modes[id]) {
      case Declare::kBand:
        range[id] = {v - kHalfWidth, v + kHalfWidth};
        break;
      case Declare::kPoint:
      case Declare::kFalse:
        range[id] = {v, v};
        break;
      case Declare::kTrue:
        range[id] = {1, 0};  // empty
        break;
    }
  };
  for (NodeId id = 0; id < kN; ++id) declare(id, rig.cluster.value(id));

  std::mt19937_64 rng(99);
  std::vector<NodeId> changed;
  for (TimeStep t = 1; t <= 200; ++t) {
    changed.clear();
    for (NodeId id = 0; id < kN; ++id) {
      if (rng() % 3 != 0) continue;
      const auto mag = static_cast<Value>(1 + rng() % 12);
      const Value v = rig.cluster.value(id) + (rng() % 2 == 0 ? mag : -mag);
      rig.cluster.set_value(id, v);
      changed.push_back(id);
    }
    std::shuffle(changed.begin(), changed.end(), rng);  // any order
    rig.driver->step(t, changed);

    std::vector<NodeId> expected;
    for (NodeId id = 0; id < kN; ++id) {
      const Value v = rig.cluster.value(id);
      if (v < range[id].lo || v > range[id].hi) {
        expected.push_back(id);
        declare(id, v);
      }
    }
    EXPECT_EQ(rig.observed_at(t), expected) << "step " << t;
    for (const NodeId id : expected) {
      const auto& log = rig.node(id).log();
      if (!log.empty()) {
        EXPECT_EQ(log.back().v, rig.cluster.value(id));
      }
    }
  }
  return rig.logs();
}

TEST(DriverQuietRange, ObservesExactlyTheIdsOutsideTheirRange) {
  const auto logs = drive_random();
  // Both outcomes were exercised: the empty-range nodes were observed
  // every step, and the band nodes skipped the small moves the point-
  // range nodes (same move distribution) were observed for.
  std::size_t band = 0;
  std::size_t point = 0;
  for (NodeId id = 0; id < logs.size(); ++id) {
    const auto mode = static_cast<Declare>(id % 4);
    if (mode == Declare::kTrue) {
      EXPECT_EQ(logs[id].size(), 200u) << id;
    } else if (mode == Declare::kBand) {
      band += logs[id].size();
    } else if (mode == Declare::kPoint) {
      point += logs[id].size();
    }
  }
  EXPECT_GT(band, 0u);
  EXPECT_LT(band, point);
}

TEST(DriverQuietRange, NeedsObserveFalseIsThePointRange) {
  // Same moves through set_needs_observe(false) nodes and explicit
  // [v, v] nodes: identical observe logs. An unchanged value is never
  // observed; any change is.
  Rig via_flag(std::vector<Declare>(70, Declare::kFalse));
  Rig via_range(std::vector<Declare>(70, Declare::kPoint));
  via_flag.driver->initialize();
  via_range.driver->initialize();
  for (TimeStep t = 1; t <= 30; ++t) {
    std::vector<NodeId> changed;
    for (NodeId id = 0; id < 70; ++id) {
      if ((id + t) % 5 != 0) continue;
      const Value v = via_flag.cluster.value(id) + (t % 2 == 0 ? 1 : -1);
      via_flag.cluster.set_value(id, v);
      via_range.cluster.set_value(id, v);
      changed.push_back(id);
    }
    via_flag.driver->step(t, changed);
    via_range.driver->step(t, changed);
    EXPECT_EQ(via_flag.observed_at(t), changed) << "step " << t;
  }
  EXPECT_EQ(via_flag.logs(), via_range.logs());
}

TEST(DriverQuietRange, NeedsObserveTrueObservesEveryStep) {
  Rig rig({Declare::kTrue, Declare::kBand, Declare::kTrue});
  rig.driver->initialize();
  for (TimeStep t = 1; t <= 5; ++t) {
    rig.driver->step(t, {});  // nothing changed
    EXPECT_EQ(rig.observed_at(t), (std::vector<NodeId>{0, 2})) << t;
  }
}

TEST(DriverQuietRange, DownNodesSkippedAndRecoveryForcesObserve) {
  constexpr std::size_t kN = 130;
  Rig rig(std::vector<Declare>(kN, Declare::kBand));
  // Faults fire in the settle phase of their step, after its observes.
  const FaultPlan plan("churn?crash=65@3,crash=66@3,recover=65@6,recover=66@6",
                       kN, 1, 5);
  rig.driver->set_fault_plan(&plan);
  rig.driver->initialize();
  // Node 65 leaves its band at steps 1..3 and then holds still; node 66
  // leaves it at step 2 and, while down, at steps 4 and 5.
  const auto moves = [](NodeId id, TimeStep t) {
    return id == 65 ? t <= 3 : (t == 2 || t == 4 || t == 5);
  };
  for (TimeStep t = 1; t <= 8; ++t) {
    std::vector<NodeId> changed;
    for (const NodeId id : {NodeId{65}, NodeId{66}}) {
      if (!moves(id, t)) continue;
      rig.cluster.set_value(id, rig.cluster.value(id) + 100);
      changed.push_back(id);
    }
    rig.driver->step(t, changed);
  }
  const auto steps_of = [&](NodeId id) {
    std::vector<TimeStep> out;
    for (const Observe& o : rig.node(id).log()) out.push_back(o.t);
    return out;
  };
  // Observed while up, never while down (4..6). The recovery at step 6
  // resets both ranges to empty, so step 7 observes node 65's unchanged
  // value too; both re-declare, and step 8 is quiet.
  EXPECT_EQ(steps_of(65), (std::vector<TimeStep>{1, 2, 3, 7}));
  EXPECT_EQ(steps_of(66), (std::vector<TimeStep>{2, 7}));
  for (NodeId id = 0; id < kN; ++id) {
    if (id != 65 && id != 66) {
      EXPECT_TRUE(rig.node(id).log().empty()) << id;
    }
  }
}

TEST(DriverQuietRange, OutOfRangeChangedIdThrowsBeforeAnyCallback) {
  Rig rig({Declare::kTrue, Declare::kBand, Declare::kBand});
  rig.driver->initialize();
  rig.cluster.set_value(1, 5'000);  // far outside node 1's band
  const std::vector<NodeId> bad{1, 3};
  EXPECT_THROW(rig.driver->step(1, bad), std::out_of_range);
  EXPECT_THROW(rig.driver->step(1, std::vector<NodeId>{1'000'000}),
               std::out_of_range);
  for (NodeId id = 0; id < 3; ++id) {
    EXPECT_TRUE(rig.node(id).log().empty()) << id;
  }
  // The driver is still usable: the next valid step observes node 0
  // (empty range) and node 1 (outside its band).
  rig.driver->step(1, std::vector<NodeId>{1});
  EXPECT_EQ(rig.observed_at(1), (std::vector<NodeId>{0, 1}));
}

TEST(DriverQuietRange, ShardedStepRejectsOutOfRangeIdBeforeAnyShard) {
  ShardedSpec spec;
  spec.n = 16;
  spec.k = 4;
  spec.shards = 4;
  spec.seed = 3;
  ShardedDeployment dep(spec);
  for (NodeId id = 0; id < 16; ++id) {
    dep.set_value(id, static_cast<Value>(1000 * (id + 1)));
  }
  dep.initialize();
  const std::uint64_t msgs = dep.node_shard_comm().total();
  const std::vector<NodeId> answer = dep.topk();
  // Node 0 jumps to the top: had shard 0 stepped, it would have
  // signalled and repaired (charged traffic, a new answer).
  dep.set_value(0, 1'000'000);
  EXPECT_THROW(dep.step(1, std::vector<NodeId>{0, 16}), std::out_of_range);
  EXPECT_EQ(dep.node_shard_comm().total(), msgs);
  EXPECT_EQ(dep.topk(), answer);
  dep.step(1, std::vector<NodeId>{0});
  EXPECT_GT(dep.node_shard_comm().total(), msgs);
  EXPECT_NE(dep.topk(), answer);
}

}  // namespace
}  // namespace topkmon
