// Shared helpers for the experiment suites registered in topkmon_bench.
//
// Each bench_e*.cpp defines one TOPKMON_SUITE(...) body; the SuiteContext
// carries the parsed CLI options (--trials/--steps/--seed/--jobs/--out-dir),
// the parallel SweepRunner, and ctx.emit() for table output (console +
// CSV + JSON). Suites describe single runs declaratively as Scenarios
// (monitor spec × stream × network × n/k/steps/seed) and execute them
// through run_scenario — the same path the SweepGrid engine uses.
#pragma once

#include <array>
#include <cctype>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "topkmon.hpp"

namespace topkmon::bench {

using exp::Scenario;
using exp::SuiteContext;
using exp::SuiteOptions;
using exp::SweepGrid;
using exp::SweepRunner;
using exp::TrialSpec;
using exp::run_scenario;

/// Declarative single-run description with the suite defaults filled in.
inline Scenario scenario(std::string monitor, const StreamSpec& stream,
                         std::size_t n, std::size_t k, std::uint64_t steps,
                         std::uint64_t seed) {
  Scenario sc;
  sc.monitor = std::move(monitor);
  sc.stream = stream;
  sc.n = n;
  sc.k = k;
  sc.steps = steps;
  sc.seed = seed;
  return sc;
}

/// Label for BENCH_*.json file names (shared by the perf and e16 suites):
/// env override, else git describe, else the UTC date. Sanitized to
/// [A-Za-z0-9._-].
inline std::string bench_label() {
  std::string label;
  if (const char* env = std::getenv("TOPKMON_BENCH_LABEL")) {
    label = env;
  }
  if (label.empty()) {
    if (std::FILE* pipe =
            popen("git describe --always --dirty 2>/dev/null", "r")) {
      std::array<char, 128> buf{};
      if (std::fgets(buf.data(), buf.size(), pipe) != nullptr) {
        label = buf.data();
      }
      pclose(pipe);
    }
  }
  while (!label.empty() &&
         (label.back() == '\n' || label.back() == '\r')) {
    label.pop_back();
  }
  if (label.empty()) {
    std::time_t now = std::time(nullptr);
    std::tm tm{};
    gmtime_r(&now, &tm);
    std::array<char, 32> buf{};
    std::strftime(buf.data(), buf.size(), "%Y%m%d-%H%M%S", &tm);
    label = buf.data();
  }
  for (char& c : label) {
    const auto u = static_cast<unsigned char>(c);
    if (!std::isalnum(u) && c != '.' && c != '_' && c != '-') c = '_';
  }
  return label;
}

}  // namespace topkmon::bench
