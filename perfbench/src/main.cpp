// perfbench_run: runs one benchmark workload for a fixed wall-time budget
// and prints its metrics. See ../README.md for the workloads, metrics and
// the correctness checks.
//
//   perfbench_run --workload NAME --seed N --seconds S --trace 0|1
//
// --trace 0 measures the end-to-end metrics through exp::run_scenario
// only. --trace 1 alternates untraced repeats with traced re-drives
// (traced.hpp) and reports the per-layer metrics. Either way the last
// line of stdout is one JSON object; the exit code is 0 only when every
// correctness and determinism check passed.
#include <malloc.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "alloc_count.hpp"
#include "exp/scenario.hpp"
#include "traced.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using topkmon::NodeId;
using topkmon::TimeStep;
using topkmon::Value;
using Clock = std::chrono::steady_clock;

/// Repeats a run always makes, whatever --seconds says (medians need
/// more than one sample; the determinism check needs a second repeat).
constexpr int kMinRepeats = 3;
constexpr int kMinTracedPairs = 2;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

/// Nearest-rank percentile of a sorted sample.
double percentile(const std::vector<double>& sorted, double p) {
  const auto rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(sorted.size())));
  return sorted[std::clamp<std::size_t>(rank, 1, sorted.size()) - 1];
}

/// Log-bucketed histogram of step times, 0.2% wide buckets from 0.05 us
/// to about 24 s. Its size is fixed however long the run, so it adds the
/// same to peak_rss_mb on every run. Each bucket also sums its samples: a
/// percentile reads the mean of its bucket's samples, within 0.2% of the
/// exact nearest-rank value, not a bucket edge.
class StepHistogram {
 public:
  StepHistogram() : counts_(kBuckets), sums_(kBuckets) {}

  void add(double us) {
    const double at = std::log(std::max(us, kMinUs) / kMinUs) / kLogRatio;
    const auto i = std::min(static_cast<std::size_t>(at), kBuckets - 1);
    ++counts_[i];
    sums_[i] += us;
    ++total_;
  }

  /// Nearest-rank percentile over every sample added.
  double percentile(double p) const {
    const auto rank = std::clamp<std::uint64_t>(
        static_cast<std::uint64_t>(std::ceil(p * static_cast<double>(total_))),
        1, total_);
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < kBuckets; ++i) {
      seen += counts_[i];
      if (seen >= rank) return sums_[i] / static_cast<double>(counts_[i]);
    }
    throw std::logic_error("percentile of an empty histogram");
  }

 private:
  static constexpr double kMinUs = 0.05;
  static constexpr std::size_t kBuckets = 10'000;
  static inline const double kLogRatio = std::log(1.002);
  std::vector<std::uint64_t> counts_;
  std::vector<double> sums_;
  std::uint64_t total_ = 0;
};

/// Steady-window step times pooled over every untraced repeat of a run.
struct SteadyTimes {
  StepHistogram steps_us;
  /// Mean step time of each window of Workload::window steady steps.
  std::vector<double> window_us;
  double steps = 0;
  double seconds = 0;
};

/// One run_scenario call with per-step timestamps and allocation counts
/// taken from Scenario::on_step.
struct UntracedRun {
  Outcome outcome;
  double steps_per_s = 0;
  double setup_s = 0;
  double msgs_per_step = 0;
  double error_rate = 0;
  double steady_allocs_per_step = 0;
  std::uint64_t setup_allocs = 0;
  std::uint64_t steps_executed = 0;
};

/// Runs one repeat and pools its steady step times into `times`.
UntracedRun run_untraced(const Workload& w, std::uint64_t seed,
                         SteadyTimes& times) {
  struct Probe {
    std::size_t warmup = 0;
    std::size_t steps = 0;
    std::vector<Clock::time_point> stamps;
    std::uint64_t allocs_setup = 0;
    std::uint64_t allocs_warm = 0;
    std::uint64_t allocs_end = 0;
    std::vector<NodeId> final_answer;
  } probe;
  probe.warmup = w.warmup;
  probe.steps = w.steps;
  probe.stamps.resize(w.steps + 1);

  topkmon::exp::Scenario sc = make_scenario(w, seed);
  // One captured pointer keeps the std::function in its small buffer:
  // the observer itself never allocates.
  sc.on_step = [p = &probe](TimeStep t, const std::vector<Value>&,
                            const std::vector<NodeId>& topk) {
    p->stamps[t] = Clock::now();
    if (t == 0) p->allocs_setup = alloc_count();
    if (t == p->warmup) p->allocs_warm = alloc_count();
    if (t == p->steps) {
      p->allocs_end = alloc_count();
      p->final_answer.assign(topk.begin(), topk.end());
    }
  };

  const std::uint64_t allocs_start = alloc_count();
  const topkmon::RunResult r = topkmon::exp::run_scenario(sc);

  UntracedRun u;
  const double steady = static_cast<double>(w.steps - w.warmup);
  const double steady_s =
      seconds_between(probe.stamps[w.warmup], probe.stamps[w.steps]);
  u.steps_per_s = steady / steady_s;
  times.steps += steady;
  times.seconds += steady_s;
  for (std::size_t t = w.warmup + 1; t <= w.steps; ++t) {
    times.steps_us.add(seconds_between(probe.stamps[t - 1], probe.stamps[t]) *
                       1e6);
  }
  for (std::size_t last = w.warmup + w.window; last <= w.steps;
       last += w.window) {
    times.window_us.push_back(
        seconds_between(probe.stamps[last - w.window], probe.stamps[last]) *
        1e6 / static_cast<double>(w.window));
  }
  u.setup_s = r.init_seconds;
  u.steps_executed = r.steps_executed;
  u.msgs_per_step = static_cast<double>(r.comm.total() + r.root_comm.total()) /
                    static_cast<double>(r.steps_executed);
  u.error_rate = r.error_rate();
  u.steady_allocs_per_step =
      static_cast<double>(probe.allocs_end - probe.allocs_warm) / steady;
  u.setup_allocs = probe.allocs_setup - allocs_start;
  for (std::size_t i = 0; i < topkmon::kNumMsgKinds; ++i) {
    const auto kind = static_cast<topkmon::MsgKind>(i);
    u.outcome.msgs_by_kind[i] = r.comm.by_kind(kind) + r.root_comm.by_kind(kind);
  }
  u.outcome.error_steps = r.error_steps;
  u.outcome.final_answer = std::move(probe.final_answer);
  return u;
}

/// Peak resident set size of this process: VmHWM from /proc/self/status.
/// (getrusage's ru_maxrss would also count the parent's footprint at
/// fork time, since it survives exec.)
double peak_rss_mb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) throw std::runtime_error("cannot read /proc/self/status");
  char line[256];
  double kib = -1;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %lf kB", &kib) == 1) break;
  }
  std::fclose(f);
  if (kib < 0) throw std::runtime_error("no VmHWM in /proc/self/status");
  return kib / 1024.0;
}

struct Metric {
  std::string name;
  std::string unit;
  double value;
};

/// Collects check failures; any one makes the run incorrect.
struct Checks {
  bool ok = true;
  void require(bool cond, const std::string& what) {
    if (!cond) {
      ok = false;
      std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", what.c_str());
    }
  }
};

/// The checks every untraced repeat must pass against the first one.
void check_untraced(const Workload& w, const std::vector<UntracedRun>& runs,
                    Checks& checks) {
  const UntracedRun& ref = runs.front();
  // Instant, fault-free delivery: every answer must be exact.
  if (w.scenario(0).network.is_instant()) {
    checks.require(ref.error_rate == 0.0,
                   std::string(w.name) + ": instant workload has error steps");
  }
  for (std::size_t i = 1; i < runs.size(); ++i) {
    const UntracedRun& r = runs[i];
    const std::string at =
        std::string(w.name) + " repeat " + std::to_string(i) + ": ";
    checks.require(r.msgs_per_step == ref.msgs_per_step,
                   at + "msgs_per_step drifted");
    checks.require(r.error_rate == ref.error_rate, at + "error_rate drifted");
    checks.require(r.steady_allocs_per_step == ref.steady_allocs_per_step,
                   at + "steady_allocs_per_step drifted");
    checks.require(r.outcome == ref.outcome,
                   at + "messages by kind / error steps / answer drifted");
  }
}

/// The end-to-end metrics (BENCHMARK.json "end_to_end"), measured with
/// tracing off. On a shared host, other tenants make every step up to 1.7
/// times slower for stretches of milliseconds to whole runs, and the share
/// of a run so slowed changes from run to run. Mean throughput and the
/// median step move with that share; the slower tail of the run does not,
/// because some of every run is slowed. So the bounded timings read that
/// tail, pooled over all repeats: steps_per_s_p10 is the throughput that
/// 90% of the run's windows reach, and step_p95_us the 95th percentile of
/// all steady steps. setup_s is the median of the repeats' init_seconds.
std::vector<Metric> end_to_end(const std::vector<UntracedRun>& runs,
                               const SteadyTimes& times) {
  std::vector<double> windows = times.window_us;
  std::sort(windows.begin(), windows.end());
  std::vector<double> setups;
  for (const UntracedRun& r : runs) setups.push_back(r.setup_s);
  return {
      {"steps_per_s_p10", "1/s", 1e6 / percentile(windows, 0.90)},
      {"step_p95_us", "us", times.steps_us.percentile(0.95)},
      {"setup_s", "s", median(setups)},
      {"msgs_per_step", "msg/step", runs.front().msgs_per_step},
      {"peak_rss_mb", "MB", peak_rss_mb()},
  };
}

/// Untraced figures reported with the per-layer metrics: mean throughput,
/// the median and 99th-percentile step, which move too far with the host's
/// load to hold a bound, and exact counts that are 0 on some workloads (an
/// end-to-end bound is a share of the median).
std::vector<Metric> untraced_extras(const std::vector<UntracedRun>& runs,
                                    const SteadyTimes& times) {
  const UntracedRun& ref = runs.front();
  return {
      {"steps_per_s", "1/s", times.steps / times.seconds},
      {"step_p50_us", "us", times.steps_us.percentile(0.50)},
      {"step_p99_us", "us", times.steps_us.percentile(0.99)},
      {"error_rate", "ratio", ref.error_rate},
      {"steady_allocs_per_step", "1/step", ref.steady_allocs_per_step},
      {"alloc.setup_count", "count", static_cast<double>(ref.setup_allocs)},
  };
}

std::vector<Metric> per_layer(const std::vector<UntracedRun>& untraced,
                              const SteadyTimes& times,
                              const std::vector<TracedRun>& traced) {
  std::vector<double> sps_untraced, sps_traced;
  for (const UntracedRun& r : untraced) sps_untraced.push_back(r.steps_per_s);
  for (const TracedRun& r : traced) sps_traced.push_back(r.steps_per_s);
  // Median of one field across the traced repeats.
  const auto med = [&](double LayerFigures::*field) {
    std::vector<double> v;
    for (const TracedRun& r : traced) v.push_back(r.layers.*field);
    return median(v);
  };
  using L = LayerFigures;
  std::vector<Metric> out = untraced_extras(untraced, times);
  out.insert(out.end(), {
      {"streams.advance_us_per_step", "us/step", med(&L::streams_advance_us)},
      {"streams.changed_per_step", "1/step", med(&L::streams_changed)},
      {"sim.observe_write_us_per_step", "us/step",
       med(&L::sim_observe_write_us)},
      {"truth.update_us_per_step", "us/step", med(&L::truth_update_us)},
      {"truth.validate_us_per_step", "us/step", med(&L::truth_validate_us)},
      {"truth.full_rebuilds_per_step", "1/step", med(&L::truth_full_rebuilds)},
      {"truth.boundary_rescans_per_step", "1/step",
       med(&L::truth_boundary_rescans)},
      {"driver.step_us_per_step", "us/step", med(&L::driver_step_us)},
      {"driver.self_us_per_step", "us/step", med(&L::driver_self_us)},
      {"driver.ticks_per_step", "1/step", med(&L::driver_ticks)},
      {"driver.node_callbacks_per_step.observe", "1/step",
       med(&L::node_observe)},
      {"driver.node_callbacks_per_step.message", "1/step",
       med(&L::node_message)},
      {"driver.node_callbacks_per_step.control", "1/step",
       med(&L::node_control)},
      {"driver.node_callbacks_per_step.timer", "1/step", med(&L::node_timer)},
      {"roles.coord_us_per_step", "us/step", med(&L::coord_us)},
      {"roles.coord_callbacks_per_step", "1/step", med(&L::coord_callbacks)},
      {"roles.protocol_runs_per_step", "1/step", med(&L::protocol_runs)},
      {"roles.filter_resets_per_step", "1/step", med(&L::filter_resets)},
      {"roles.violations_per_step", "1/step", med(&L::violations)},
      {"net.upstream_per_step", "1/step", med(&L::net_upstream)},
      {"net.unicast_per_step", "1/step", med(&L::net_unicast)},
      {"net.broadcast_per_step", "1/step", med(&L::net_broadcast)},
      {"shard.step_us_per_step", "us/step", med(&L::shard_step_us)},
      {"shard.ticks_per_step", "1/step", med(&L::shard_ticks)},
      {"shard.root_msgs_per_step", "1/step", med(&L::shard_root_msgs)},
      {"shard.initialize_s", "s", med(&L::shard_initialize_s)},
      {"setup.streams_s", "s", med(&L::setup_streams_s)},
      {"setup.deploy_s", "s", med(&L::setup_deploy_s)},
      {"setup.initialize_s", "s", med(&L::setup_initialize_s)},
      {"trace.coverage", "ratio", med(&L::coverage)},
      {"trace.overhead_pct", "%",
       (median(sps_untraced) / median(sps_traced) - 1.0) * 100.0},
  });
  return out;
}

void print_table(const Workload& w, std::uint64_t seed, int trace,
                 const std::vector<UntracedRun>& untraced,
                 const std::vector<Metric>& metrics) {
  std::printf("# workload %s  seed %llu  trace %d  steps %zu (warm-up %zu)\n",
              std::string(w.name).c_str(),
              static_cast<unsigned long long>(seed), trace, w.steps, w.warmup);
  std::printf("# untraced steps/s by repeat:");
  for (const UntracedRun& r : untraced) std::printf(" %.1f", r.steps_per_s);
  std::printf("\n# untraced setup ms by repeat:");
  for (const UntracedRun& r : untraced) std::printf(" %.3f", r.setup_s * 1e3);
  std::printf("\n");
  for (const Metric& m : metrics) {
    std::printf("%-42s %16.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
}

void print_json(bool correct, std::uint64_t attempted, std::uint64_t failed,
                const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  char buf[64];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::snprintf(buf, sizeof buf, "%.17g", metrics[i].value);
    if (i != 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " + buf +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
};

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view key = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " +
                                                   std::string(key));
    const std::string value = argv[++i];
    if (key == "--workload") {
      a.workload = value;
      have_workload = true;
    } else if (key == "--seed") {
      a.seed = std::stoull(value);
    } else if (key == "--seconds") {
      a.seconds = std::stod(value);
    } else if (key == "--trace") {
      a.trace = std::stoi(value);
      if (a.trace != 0 && a.trace != 1) {
        throw std::invalid_argument("--trace must be 0 or 1");
      }
    } else {
      throw std::invalid_argument("unknown argument " + std::string(key));
    }
  }
  if (!have_workload) throw std::invalid_argument("--workload is required");
  return a;
}

int run(const Args& args) {
  const Workload* w = find_workload(args.workload);
  if (w == nullptr) {
    std::string names;
    for (const Workload& x : workloads()) {
      names += ' ';
      names += x.name;
    }
    throw std::invalid_argument("unknown workload '" + args.workload +
                                "' (have:" + names + ")");
  }

  const auto start = Clock::now();
  const auto elapsed = [&] { return seconds_between(start, Clock::now()); };
  std::vector<UntracedRun> untraced;
  std::vector<TracedRun> traced;
  SteadyTimes times;
  std::uint64_t attempted = 0, failed = 0;
  Checks checks;

  if (args.trace == 0) {
    // Keep starting repeats while the next one (judged by the mean so far)
    // still ends inside the budget.
    while (static_cast<int>(untraced.size()) < kMinRepeats ||
           elapsed() * (1.0 + 1.0 / static_cast<double>(untraced.size())) <=
               args.seconds) {
      untraced.push_back(run_untraced(*w, args.seed, times));
    }
  } else {
    // Untraced and traced repeats alternate so drift in the machine hits
    // both sides of trace.overhead_pct alike.
    while (static_cast<int>(traced.size()) < kMinTracedPairs ||
           elapsed() * (1.0 + 1.0 / static_cast<double>(traced.size())) <=
               args.seconds) {
      untraced.push_back(run_untraced(*w, args.seed, times));
      traced.push_back(run_traced(*w, args.seed));
    }
    for (std::size_t i = 0; i < traced.size(); ++i) {
      checks.require(traced[i].outcome == untraced.front().outcome,
                     std::string(w->name) + " traced repeat " +
                         std::to_string(i) +
                         ": messages by kind / error steps / final answer "
                         "differ from the untraced run");
    }
  }
  check_untraced(*w, untraced, checks);

  for (const UntracedRun& r : untraced) {
    attempted += r.steps_executed;
    failed += r.outcome.error_steps;
  }
  for (const TracedRun& r : traced) {
    attempted += w->steps + 1;
    failed += r.outcome.error_steps;
  }

  const std::vector<Metric> metrics =
      args.trace == 0 ? end_to_end(untraced, times)
                      : per_layer(untraced, times, traced);
  std::vector<Metric> table = metrics;
  if (args.trace == 0) {
    const std::vector<Metric> extras = untraced_extras(untraced, times);
    table.insert(table.end(), extras.begin(), extras.end());
  }
  print_table(*w, args.seed, args.trace, untraced, table);
  print_json(checks.ok, attempted, failed, metrics);
  return checks.ok ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  // A fixed mmap threshold turns off glibc's dynamic one: large buffers
  // are mapped and unmapped by every repeat alike, so peak_rss_mb does
  // not depend on how the heap fragmented over earlier repeats, and each
  // repeat's set-up pays the page faults a single run would.
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
  try {
    return perfbench::run(perfbench::parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
