// The benchmark's workloads: each is one exp::Scenario at a fixed size,
// parameterised only by the workload seed. README.md gives the reason
// each one exists and which layers it stresses.
#pragma once

#include <cstdint>
#include <span>
#include <string_view>

#include "exp/scenario.hpp"

namespace perfbench {

struct Workload {
  std::string_view name;
  /// Observation steps per repeat (after the step-0 initialization).
  std::size_t steps;
  /// Leading steps excluded from every steady-state figure: caches warm,
  /// lazily grown buffers reach their working size.
  std::size_t warmup;
  /// Steady steps per throughput window (steps_per_s_p10 in main.cpp).
  std::size_t window;
  /// The scenario run_scenario executes, for workload seed `seed`.
  topkmon::exp::Scenario (*scenario)(std::uint64_t seed);
};

/// The workload's scenario at `seed`, sized to `w.steps`, recording
/// validation errors instead of throwing on them.
topkmon::exp::Scenario make_scenario(const Workload& w, std::uint64_t seed);

/// All workloads, in BENCHMARK.json order.
std::span<const Workload> workloads();

/// The workload named `name`, or nullptr.
const Workload* find_workload(std::string_view name);

}  // namespace perfbench
