// Approximate-monitoring dashboard: a fleet of 32 build machines reports
// queue depths; the dashboard needs the 5 busiest machines but tolerates
// being off by up to 3 jobs — an ε-approximate answer. Demonstrates the
// "approx?eps=" monitor's trade-off and the EventLog tap for auditing
// exactly which messages flowed.
#include <iostream>

#include "topkmon.hpp"

int main() {
  using namespace topkmon;

  constexpr std::size_t kMachines = 32;
  constexpr std::size_t kBusiest = 5;
  constexpr std::size_t kSteps = 2'880;  // a day at 30s resolution
  constexpr Value kToleranceJobs = 3;
  constexpr std::uint64_t kSeed = 4242;

  // Queue depth: bursty walk in [0, 400] jobs.
  StreamSpec spec;
  spec.family = StreamFamily::kBursty;
  spec.bursty.lo = 0;
  spec.bursty.hi = 400;
  spec.bursty.start = 60;
  spec.bursty.calm_step = 2;
  spec.bursty.burst_step = 40;
  spec.bursty.p_enter_burst = 0.004;
  spec.bursty.p_exit_burst = 0.08;
  spec.enforce_distinct = false;  // keep the jobs scale for epsilon

  std::cout << "approx dashboard: " << kMachines << " machines, busiest-"
            << kBusiest << ", tolerance " << kToleranceJobs << " jobs, "
            << kSteps << " steps\n\n";

  Table t({"epsilon (jobs)", "msgs", "msgs/step", "worst regret (jobs)"});
  for (const Value eps : {Value{0}, kToleranceJobs, Value{10}, Value{40}}) {
    auto streams = make_stream_set(spec, kMachines, kSeed);
    Cluster cluster(kMachines, kSeed);
    EventLog log;
    cluster.net().set_tap(log.tap());

    exp::RolePair monitor = exp::make_role_pair(
        cluster, "approx?eps=" + std::to_string(eps), kBusiest);
    SimDriver driver(cluster, *monitor.coordinator, monitor.nodes,
                     monitor.native);

    for (NodeId i = 0; i < kMachines; ++i) {
      cluster.set_value(i, streams.advance(i));
    }
    log.begin_step(0);
    driver.initialize();

    Value worst_regret = 0;
    std::vector<Value> values(kMachines);
    for (TimeStep step = 1; step <= kSteps; ++step) {
      log.begin_step(step);
      for (NodeId i = 0; i < kMachines; ++i) {
        values[i] = streams.advance(i);
        cluster.set_value(i, values[i]);
      }
      driver.step(step);
      worst_regret = std::max(worst_regret,
                              topk_regret(values, monitor.coordinator->topk()));
    }

    t.add_row({std::to_string(eps), fmt_count(cluster.stats().total()),
               fmt(static_cast<double>(cluster.stats().total()) / kSteps, 3),
               std::to_string(worst_regret)});

    if (eps == kToleranceJobs) {
      std::cout << "audit trail sample at tolerance " << eps
                << " (first 6 messages via EventLog tap):\n"
                << log.dump(6) << "\n";
    }
  }

  t.print(std::cout);
  std::cout << "\nThe 3-job tolerance dashboard never strays more than 3 "
               "jobs from the exact busiest set while sending a fraction of "
               "the exact monitor's messages.\n";
  return 0;
}
