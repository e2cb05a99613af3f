// Datacenter scheduler scenario: a placement service must always know the
// k *least* loaded machines (top-k of negated load). Demonstrates
// (a) min-side monitoring by negation, (b) the ordered variant feeding a
// real decision loop (place each incoming job on the currently
// least-loaded machine), and (c) reading the coordinator's rank order.
#include <algorithm>
#include <iostream>
#include <memory>

#include "topkmon.hpp"

int main() {
  using namespace topkmon;

  constexpr std::size_t kMachines = 40;
  constexpr std::size_t kCandidates = 4;  // scheduler keeps 4 backups warm
  constexpr std::size_t kSteps = 3'000;
  constexpr std::uint64_t kSeed = 31337;

  // Machine load: bounded random walk per machine (CPU utilization in
  // millipercent); values are negated at observation time below so that
  // "largest" means "least loaded".
  StreamSpec spec;
  spec.family = StreamFamily::kRandomWalk;
  spec.walk.lo = 0;
  spec.walk.hi = 100'000;
  spec.walk.max_step = 300;
  auto raw = make_stream_set(spec, kMachines, kSeed);

  // The ordered top-k monitor as a role pair driven by a SimDriver.
  Cluster cluster(kMachines, kSeed);
  exp::RolePair pair = exp::make_role_pair(cluster, "ordered", kCandidates);
  SimDriver driver(cluster, *pair.coordinator, pair.nodes, pair.native);
  const auto& monitor =
      dynamic_cast<const OrderedCoordinator&>(*pair.coordinator);

  auto observe = [&] {
    for (NodeId m = 0; m < kMachines; ++m) {
      cluster.set_value(m, -raw.advance(m));  // negate: min-load tracking
    }
  };

  observe();
  driver.initialize();

  std::uint64_t placements = 0;
  std::vector<std::uint64_t> placed_on(kMachines, 0);
  for (TimeStep t = 1; t <= kSteps; ++t) {
    observe();
    driver.step(t);
    // A job arrives every step; place it on the least-loaded machine (the
    // coordinator's rank-1 answer) without polling anyone.
    const NodeId target = monitor.ordered_topk().front();
    ++placed_on[target];
    ++placements;
  }

  std::cout << "datacenter scheduler: " << kMachines << " machines, "
            << placements << " placements over " << kSteps << " steps\n\n";

  std::cout << "communication: " << cluster.stats().summary() << " ("
            << fmt(static_cast<double>(cluster.stats().total()) / kSteps, 2)
            << " msgs/step; a poll-per-placement scheduler would pay >= "
            << kMachines << "/step)\n\n";

  // Show the most frequently chosen machines.
  std::vector<std::pair<std::uint64_t, NodeId>> ranking;
  for (NodeId m = 0; m < kMachines; ++m) {
    if (placed_on[m]) ranking.emplace_back(placed_on[m], m);
  }
  std::sort(ranking.rbegin(), ranking.rend());
  Table t({"machine", "placements", "share"});
  for (std::size_t i = 0; i < std::min<std::size_t>(8, ranking.size()); ++i) {
    t.add_row({'M' + std::to_string(ranking[i].second),
               fmt_count(ranking[i].first),
               fmt(100.0 * static_cast<double>(ranking[i].first) /
                       static_cast<double>(placements),
                   1) + "%"});
  }
  t.print(std::cout);

  std::cout << "\ncurrent least-loaded candidates (best first):";
  for (const NodeId id : monitor.ordered_topk()) std::cout << " M" << id;
  std::cout << "\nplacement decisions were served entirely from coordinator "
               "state — no per-job polling.\n";
  return 0;
}
