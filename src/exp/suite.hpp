// Named experiment suites behind one CLI.
//
// Each paper experiment registers itself (TOPKMON_SUITE) into a global
// registry; the topkmon_bench binary looks suites up by name, hands them
// a SuiteContext (shared CLI options + the parallel SweepRunner + output
// plumbing) and runs them. ctx.emit() is the single exit point for result
// tables: it prints the aligned table and mirrors it to CSV and JSON
// under --out-dir.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "exp/sweep_runner.hpp"
#include "util/table.hpp"

namespace topkmon::exp {

/// Shared knobs parsed from the topkmon_bench command line.
struct SuiteOptions {
  std::uint64_t trials = 0;  ///< 0: keep the suite's default
  std::uint64_t steps = 0;   ///< 0: keep the suite's default
  std::uint64_t seed = 1;    ///< base seed
  /// Trial-level worker threads (0: hardware concurrency), the one
  /// parallel grain; outputs are byte-identical for every value.
  std::size_t jobs = 1;
  std::string out_dir;       ///< empty: don't write CSV/JSON artifacts
  /// Path to a previous BENCH_*.json; the perf suite diffs against it
  /// (Δ steps/sec, Δ allocs) and fails on regressions. Empty: no diff.
  std::string compare;

  std::uint64_t trials_or(std::uint64_t dflt) const {
    return trials ? trials : dflt;
  }
  std::uint64_t steps_or(std::uint64_t dflt) const {
    return steps ? steps : dflt;
  }
};

/// Everything a suite needs: options, the engine, and output sinks.
class SuiteContext {
 public:
  SuiteContext(SuiteOptions opts, SweepRunner& runner, std::ostream& out);

  const SuiteOptions& opts() const noexcept { return opts_; }
  SweepRunner& runner() noexcept { return runner_; }
  std::ostream& out() noexcept { return out_; }

  /// Prints `table` and, when --out-dir is set, writes `<dir>/<name>.csv`
  /// and `<dir>/<name>.json`.
  void emit(const Table& table, const std::string& name);

  /// Only the file half of emit(): mirrors `table` to CSV + JSON under
  /// --out-dir (no console print). For full-resolution companions of a
  /// decimated console table. No-op when --out-dir is unset.
  void emit_files(const Table& table, const std::string& name);

 private:
  SuiteOptions opts_;
  SweepRunner& runner_;
  std::ostream& out_;
};

using SuiteFn = void (*)(SuiteContext&);

struct SuiteInfo {
  std::string name;
  std::string description;
  SuiteFn fn = nullptr;
};

/// Global suite registry (populated by static registrars at load time).
class SuiteRegistry {
 public:
  static SuiteRegistry& instance();

  void add(SuiteInfo info);
  const SuiteInfo* find(const std::string& name) const;

  /// All suites in natural order (e1, e2, ..., e10, ..., micro).
  std::vector<SuiteInfo> sorted() const;

 private:
  std::vector<SuiteInfo> suites_;
};

/// Static-initialization hook used by TOPKMON_SUITE.
struct SuiteRegistrar {
  SuiteRegistrar(const char* name, const char* description, SuiteFn fn);
};

/// Defines and registers a suite function:
///   TOPKMON_SUITE(e7, "algorithms × workloads matrix") { ... use ctx ... }
#define TOPKMON_SUITE(id, desc)                                          \
  static void topkmon_suite_##id(::topkmon::exp::SuiteContext& ctx);     \
  static const ::topkmon::exp::SuiteRegistrar topkmon_suite_reg_##id{    \
      #id, desc, &topkmon_suite_##id};                                   \
  static void topkmon_suite_##id(::topkmon::exp::SuiteContext& ctx)

}  // namespace topkmon::exp
