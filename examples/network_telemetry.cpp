// Network telemetry scenario: 64 edge routers export per-interface byte
// counters with heavy-tailed (Pareto) traffic and flash-crowd bursts; the
// NOC continuously tracks the 8 most loaded routers. Demonstrates
// (a) live use of the role API — a Cluster, the registry's role pair and
// a SimDriver you step yourself (rather than through run_scenario) — and
// (b) per-kind message accounting.
#include <iomanip>
#include <iostream>

#include "topkmon.hpp"

int main() {
  using namespace topkmon;

  constexpr std::size_t kRouters = 64;
  constexpr std::size_t kTop = 8;
  constexpr std::size_t kSteps = 4'000;
  constexpr std::uint64_t kSeed = 99;

  // Heavy-tailed load with regime switches: mix Pareto levels with bursts
  // by alternating two generators per router via the bursty family.
  StreamSpec spec;
  spec.family = StreamFamily::kBursty;
  spec.bursty.start = 500'000;
  spec.bursty.calm_step = 800;
  spec.bursty.burst_step = 60'000;
  spec.bursty.p_enter_burst = 0.002;
  spec.bursty.p_exit_burst = 0.05;
  auto streams = make_stream_set(spec, kRouters, kSeed);

  // The paper's Algorithm 1: one coordinator plus one node algorithm per
  // router, driven by the event loop over the cluster's network.
  Cluster cluster(kRouters, kSeed);
  exp::RolePair monitor = exp::make_role_pair(cluster, "topk_filter", kTop);
  SimDriver driver(cluster, *monitor.coordinator, monitor.nodes,
                   monitor.native);
  const CoordinatorAlgo& coordinator = *monitor.coordinator;

  // Drive the cluster manually: observe, then let the monitor react.
  for (NodeId r = 0; r < kRouters; ++r) {
    cluster.set_value(r, streams.advance(r));
  }
  driver.initialize();

  std::size_t topset_changes = 0;
  auto last_top = coordinator.topk();
  for (TimeStep t = 1; t <= kSteps; ++t) {
    for (NodeId r = 0; r < kRouters; ++r) {
      cluster.set_value(r, streams.advance(r));
    }
    driver.step(t);
    if (coordinator.topk() != last_top) {
      ++topset_changes;
      last_top = coordinator.topk();
    }
    // Spot-check the coordinator's answer like the test-suite would.
    if (t % 500 == 0 && !is_valid_topk(cluster, coordinator.topk())) {
      std::cerr << "DIVERGED at t=" << t << "\n";
      return 1;
    }
  }

  std::cout << "network telemetry: " << kRouters << " routers, top-" << kTop
            << ", " << kSteps << " steps\n\n";
  std::cout << "hot set changed " << topset_changes << " times; final top-"
            << kTop << " routers:";
  for (const NodeId id : coordinator.topk()) std::cout << " R" << id;
  std::cout << "\n\n";

  const auto& stats = cluster.stats();
  std::cout << "message bill: " << stats.summary() << "  ("
            << fmt(static_cast<double>(stats.total()) / kSteps, 2)
            << "/step vs " << kRouters << "/step naive)\n\n";

  Table by_kind({"message kind", "count", "direction"});
  const struct {
    MsgKind kind;
    const char* dir;
  } kinds[] = {
      {MsgKind::kValueReport, "node -> coordinator"},
      {MsgKind::kViolation, "node -> coordinator"},
      {MsgKind::kRoundBeacon, "broadcast"},
      {MsgKind::kWinnerAnnounce, "broadcast"},
      {MsgKind::kFilterUpdate, "broadcast"},
      {MsgKind::kProtocolStart, "broadcast"},
      {MsgKind::kFilterAssign, "coordinator -> node"},
      {MsgKind::kProbe, "coordinator -> node"},
  };
  for (const auto& row : kinds) {
    by_kind.add_row({std::string(msg_kind_name(row.kind)),
                     fmt_count(stats.by_kind(row.kind)), row.dir});
  }
  by_kind.print(std::cout);

  const auto& ms = coordinator.monitor_stats();
  std::cout << "\nalgorithm events: " << ms.filter_resets << " resets, "
            << ms.midpoint_updates << " midpoint updates, "
            << ms.protocol_runs << " protocol executions\n";
  return 0;
}
