// Parallel sweep in ~40 lines: expand a declarative grid (monitors ×
// workloads × trials), fan the trials out across all cores, aggregate
// into mean/stddev rows, and write CSV + JSON.
//
//   $ ./parallel_sweep [jobs]
//
// The same grid run with 1 job or 16 jobs produces identical message
// statistics (only the wall_ms column varies): every trial's seed is
// derived from its grid coordinates, and the result sink folds samples in
// grid order, not completion order.
#include <cstdlib>
#include <iostream>

#include "topkmon.hpp"

int main(int argc, char** argv) {
  using namespace topkmon;
  const std::size_t jobs =
      argc > 1 ? static_cast<std::size_t>(std::atoi(argv[1])) : 0;

  // Grid: 3 algorithms × 3 workloads × 5 trials = 45 independent trials.
  exp::SweepGrid grid;
  grid.ns = {64};
  grid.ks = {4};
  grid.monitors = {"topk_filter", "recompute", "naive"};
  grid.families = {StreamFamily::kRandomWalk, StreamFamily::kBursty,
                   StreamFamily::kIidUniform};
  grid.trials = 5;
  grid.base.steps = 500;
  grid.base.seed = 7;

  exp::SweepRunner runner(jobs);  // 0 = one worker per hardware thread
  std::cout << "running " << grid.size() << " trials on " << runner.jobs()
            << " thread(s)...\n";

  const auto specs = grid.expand();
  const auto results = runner.run(specs);

  exp::ResultSink sink({"monitor", "workload"},
                       {"msgs_per_step", "wall_ms"});
  for (std::size_t i = 0; i < specs.size(); ++i) {
    sink.add({specs[i].monitor,
              std::string(family_name(specs[i].stream.family))},
             i,
             {results[i].messages_per_step(),
              results[i].wall_seconds * 1e3});
  }

  const Table table = sink.to_table(2);
  table.print(std::cout);
  exp::write_csv(table, "parallel_sweep.csv");
  exp::write_json(table, "parallel_sweep.json");
  std::cout << "\nwrote parallel_sweep.csv / parallel_sweep.json\n";
  return 0;
}
