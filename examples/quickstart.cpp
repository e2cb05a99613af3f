// Quickstart: monitor the top-3 of 10 random-walk streams and print what
// the coordinator knows, what it cost, and how that compares to the
// offline optimum.
//
//   $ ./quickstart
//
// Walk-through of the core API:
//   1. describe the workload (a StreamSpec),
//   2. pick an algorithm by registry name ("topk_filter" = the paper's
//      Algorithm 1),
//   3. run the Scenario with run_scenario (validates every step against
//      ground truth), and
//   4. inspect CommStats / MonitorStats / the competitive ratio.
#include <iostream>
#include <vector>

#include "topkmon.hpp"

int main() {
  using namespace topkmon;

  // 1. Ten nodes, each observing a private random-walk stream.
  StreamSpec spec;
  spec.family = StreamFamily::kRandomWalk;
  spec.walk.max_step = 250;      // temporal similarity: filters shine here
  spec.walk.lo = 0;
  spec.walk.hi = 60'000;

  constexpr std::size_t kNodes = 10;
  constexpr std::size_t kK = 3;
  constexpr std::uint64_t kSeed = 2024;

  // 2. The paper's filter-based algorithm.
  exp::Scenario sc;
  sc.monitor = "topk_filter";
  sc.stream = spec;
  sc.n = kNodes;
  sc.k = kK;
  sc.seed = kSeed;

  // 3. Run 5000 steps; the scenario checks the coordinator's answer
  //    against the ground truth after every observation and records the
  //    trace so we can compare against the offline optimum afterwards.
  sc.steps = 5'000;
  sc.record_trace = true;
  std::vector<NodeId> answer;
  sc.on_step = [&answer](TimeStep, const std::vector<Value>&,
                         const std::vector<NodeId>& topk) { answer = topk; };
  const RunResult result = exp::run_scenario(sc);

  // 4. What do we know, and what did it cost?
  std::cout << "correct at every step: " << (result.correct ? "yes" : "NO")
            << "\n";
  std::cout << "current top-" << kK << " node ids:";
  for (const NodeId id : answer) std::cout << " " << id;
  std::cout << "\n\n";

  std::cout << "communication: " << result.comm.summary() << "\n";
  std::cout << "  messages per step: " << fmt(result.messages_per_step(), 3)
            << " (naive forwarding would pay " << kNodes << " per step)\n";
  std::cout << "  filter resets: " << result.monitor.filter_resets
            << ", midpoint updates: " << result.monitor.midpoint_updates
            << ", violation steps: " << result.monitor.violation_steps << "\n";

  const auto opt = compute_offline_opt(*result.trace, kK);
  std::cout << "\noffline optimum (Lemma 3.2 greedy): " << opt.updates()
            << " filter updates\n";
  std::cout << "empirical competitive ratio: "
            << fmt(competitive_ratio(result, kK), 1) << "  (Theorem 4.4 bound"
            << " scale: (log Delta + k) * log n)\n";
  return 0;
}
