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

#include "alloc_hook.hpp"
#include "bench_json.hpp"
#include "topkmon.hpp"

namespace topkmon::bench {

using exp::Scenario;
using exp::SuiteContext;
using exp::SuiteOptions;
using exp::SweepGrid;
using exp::SweepRunner;
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

/// Message cost of one MAXIMUMPROTOCOL(n) run (Algorithm 2).
struct MaxProtocolRun {
  std::uint64_t reports = 0;  ///< node -> coordinator value reports
  std::uint64_t beacons = 0;  ///< coordinator round-beacon broadcasts
};

/// Runs MAXIMUMPROTOCOL(n) over every node of `c` (values already set)
/// on the code the monitors run: the recompute role pair with k = 1
/// convenes exactly one extremum session in SimDriver::initialize(). Its
/// one winner announcement is left out of the counts; session-start
/// controls are uncharged.
inline MaxProtocolRun run_max_session(Cluster& c) {
  const exp::RolePair pair = exp::make_role_pair(c, "recompute", 1);
  SimDriver(c, *pair.coordinator, pair.nodes).initialize();
  return {c.stats().by_kind(MsgKind::kValueReport),
          c.stats().by_kind(MsgKind::kRoundBeacon)};
}

/// Label for BENCH_*.json file names (shared by every BENCH suite):
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

/// Writes a suite's wall-clock rows to <out-dir>/BENCH_<kind>_<label>.json
/// (BENCH_<label>.json for an empty `kind`) through write_bench_file and
/// logs "<tag>: wrote <path>", or "<tag>: cannot write <path>".
inline void emit_bench_file(SuiteContext& ctx, const char* tag,
                            const std::string& kind, std::uint64_t steps,
                            const std::vector<BenchRow>& rows) {
  const std::string label = bench_label();
  const std::string dir =
      ctx.opts().out_dir.empty() ? std::string(".") : ctx.opts().out_dir;
  const std::string path =
      dir + "/BENCH_" + (kind.empty() ? "" : kind + "_") + label + ".json";
  const bool ok =
      write_bench_file(path, label, alloc_hook_enabled(), steps, rows);
  ctx.out() << tag << (ok ? ": wrote " : ": cannot write ") << path << "\n";
}

}  // namespace topkmon::bench
