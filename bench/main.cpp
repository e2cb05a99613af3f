// topkmon_bench — the unified experiment CLI.
//
// Every paper experiment (e1..e13, micro) is a named suite registered via
// TOPKMON_SUITE; this driver parses the shared flags, builds one parallel
// SweepRunner, and executes the requested suites against it.
//
//   topkmon_bench --list
//   topkmon_bench --suite e7 --jobs 8
//   topkmon_bench --all --jobs 0 --out-dir results   (0 = all cores)
#include <algorithm>
#include <cctype>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.hpp"

namespace {

using topkmon::exp::SuiteContext;
using topkmon::exp::SuiteInfo;
using topkmon::exp::SuiteOptions;
using topkmon::exp::SuiteRegistry;
using topkmon::exp::SweepRunner;

void print_usage(std::ostream& out) {
  out << "usage: topkmon_bench [--suite NAME]... [--all] [options]\n"
         "\n"
         "suite selection:\n"
         "  --suite NAME   run one suite (repeatable; comma lists work too)\n"
         "  --all          run every registered suite\n"
         "  --list         print the registered suites and exit\n"
         "\n"
         "options:\n"
         "  --jobs N       worker threads across trials (default 1;\n"
         "                 0 = all cores; at most "
      << SweepRunner::kMaxJobs
      << "); output is\n"
         "                 byte-identical for every value\n"
         "  --trials N     override each suite's default trial count\n"
         "  --steps N      override each suite's default step count\n"
         "  --seed N       base seed (default 1)\n"
         "  --out-dir DIR  write each table as DIR/<name>.csv and .json\n"
         "  --compare F    perf suite: diff against a previous BENCH_*.json\n"
         "                 and exit non-zero on regression\n"
         "  --help         this message\n";
}

/// Strict full-string parse (to_u64 rejects signs, junk and overflow, so
/// a negative --jobs can't wrap into billions of threads).
std::uint64_t parse_u64(const std::string& value) {
  const auto parsed = topkmon::to_u64(value);
  if (!parsed) {
    throw std::invalid_argument("'" + value +
                                "' is not a non-negative integer");
  }
  return *parsed;
}

void list_suites(std::ostream& out) {
  // Pad to the widest registered name so long names ("e18_shards") don't
  // run into their descriptions.
  const auto& sorted = SuiteRegistry::instance().sorted();
  std::size_t width = 0;
  for (const auto& s : sorted) width = std::max(width, s.name.size());
  out << "registered suites:\n";
  for (const auto& s : sorted) {
    out << "  " << s.name;
    for (std::size_t pad = s.name.size(); pad < width + 2; ++pad) out << ' ';
    out << s.description << "\n";
  }
}

/// Registered suite names closest to `name` (util/strings.hpp edit
/// distance).
std::vector<std::string> closest_suites(const std::string& name) {
  std::vector<std::string> candidates;
  for (const auto& s : SuiteRegistry::instance().sorted()) {
    candidates.push_back(s.name);
  }
  return topkmon::closest_matches(name, candidates);
}

}  // namespace

int main(int argc, char** argv) {
  SuiteOptions opts;
  std::vector<std::string> requested;
  bool run_all = false;

  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::cerr << "missing value for " << flag << "\n";
        std::exit(2);
      }
      return argv[++i];
    };
    try {
      if (flag == "--suite") {
        // Accept comma-separated lists: --suite e5,e7
        const std::string value = next();
        for (const std::string_view name : topkmon::split(value, ',')) {
          requested.emplace_back(name);
        }
      } else if (flag == "--all") {
        run_all = true;
      } else if (flag == "--list") {
        list_suites(std::cout);
        return 0;
      } else if (flag == "--jobs") {
        opts.jobs = static_cast<std::size_t>(parse_u64(next()));
        if (opts.jobs > SweepRunner::kMaxJobs) {
          throw std::invalid_argument(
              "at most " + std::to_string(SweepRunner::kMaxJobs) +
              " jobs are supported");
        }
      } else if (flag == "--trials") {
        opts.trials = parse_u64(next());
      } else if (flag == "--steps") {
        opts.steps = parse_u64(next());
      } else if (flag == "--seed") {
        opts.seed = parse_u64(next());
      } else if (flag == "--out-dir" || flag == "--csv-dir") {
        opts.out_dir = next();
      } else if (flag == "--compare") {
        opts.compare = next();
      } else if (flag == "--help" || flag == "-h") {
        print_usage(std::cout);
        return 0;
      } else {
        std::cerr << "unknown flag " << flag << "\n";
        print_usage(std::cerr);
        return 2;
      }
    } catch (const std::exception& e) {
      std::cerr << "bad value for " << flag << ": " << e.what() << "\n";
      return 2;
    }
  }

  auto& registry = SuiteRegistry::instance();
  std::vector<const SuiteInfo*> to_run;
  if (run_all) {
    static const auto all = registry.sorted();
    for (const auto& s : all) to_run.push_back(&s);
  } else {
    for (const auto& name : requested) {
      const auto* s = registry.find(name);
      if (s == nullptr) {
        std::cerr << "unknown suite '" << name << "'";
        const auto near = closest_suites(name);
        if (!near.empty()) {
          std::cerr << " — did you mean ";
          for (std::size_t i = 0; i < near.size(); ++i) {
            if (i != 0) std::cerr << (i + 1 == near.size() ? " or " : ", ");
            std::cerr << "'" << near[i] << "'";
          }
          std::cerr << "?";
        }
        std::cerr << "\n\n";
        list_suites(std::cerr);
        return 2;
      }
      to_run.push_back(s);
    }
  }
  if (to_run.empty()) {
    print_usage(std::cerr);
    std::cerr << "\n";
    list_suites(std::cerr);
    return 2;
  }

  if (!opts.out_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(opts.out_dir, ec);
    if (ec) {
      std::cerr << "cannot create --out-dir " << opts.out_dir << ": "
                << ec.message() << "\n";
      return 2;
    }
  }

  SweepRunner runner(opts.jobs);
  std::cout << "topkmon_bench: " << to_run.size() << " suite(s), "
            << runner.jobs() << " job(s), seed " << opts.seed << "\n\n";

  int failures = 0;
  for (const auto* suite : to_run) {
    std::cout << "==== " << suite->name << ": " << suite->description
              << " ====\n";
    const auto start = std::chrono::steady_clock::now();
    try {
      SuiteContext ctx(opts, runner, std::cout);
      suite->fn(ctx);
    } catch (const std::exception& e) {
      std::cerr << "suite " << suite->name << " FAILED: " << e.what() << "\n";
      ++failures;
    }
    const std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - start;
    std::cout << "---- " << suite->name << " done in "
              << topkmon::fmt(elapsed.count(), 2) << "s ----\n\n";
  }
  return failures == 0 ? 0 : 1;
}
