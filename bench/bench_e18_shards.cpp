// e18 — sharding suite: the two-tier hierarchical deployment
// (core/root_merge.hpp) swept over the shard count c, with per-tier
// message accounting.
//
// The claim under test: partitioning n nodes across c shard coordinators
// under a root coordinator keeps steady-state traffic *within* shards —
// the shard<->root tier only speaks when a shard's local top-k boundary
// crosses the root filter. The suite runs c ∈ {1, 2, 4, 8, 16} on the
// same paired streams (the shards axis never enters the seed) and prints
// both tiers side by side; on the default workload (seed 1, 120 steps)
// the node<->shard tier carries >= 10x the shard<->root tier at every
// c >= 2 — 14-32x for topk_filter, whose shards answer set-up quota
// moves from their ranking, and >= 65x for naive_chg.
//
// On that workload the ratio compares set-up traffic with the root
// bootstrap. The drift is too gentle to cross a filter after time 0, so
// every root-tier count (67/101/121/137 at c = 2/4/8/16, both monitors)
// and every topk_filter node<->shard count is the same at --steps 60 as
// at --steps 120 (n65536 c4: 2037 at both; --steps 1 gives the same
// counts). Only naive_chg's node<->shard column grows with the run
// (n65536: 104491 -> 143515), so only its ratio reflects steady-state
// traffic.
//
// The c = 1 rows are the monolithic single-coordinator run (a two-tier
// deployment needs c >= 2): the timing table's reference column, with an
// empty root tier.
//
// Outputs:
//   * ctx.emit("e18_shards"): deterministic fingerprint (per-tier message
//     counts, error steps per case) — byte-identical across --jobs,
//     diffed by CI.
//   * BENCH_shards_<label>.json: wall-clock record (steps/sec per case),
//     next to e16's BENCH files in the perf trajectory.
#include <string>
#include <vector>

#include "bench_common.hpp"

namespace topkmon::bench {
namespace {

struct ShardCase {
  std::string name;
  std::size_t n;
  const char* monitor;
  const char* mon_tag;
  std::size_t shards;
};

TOPKMON_SUITE(e18_shards,
              "sharded two-tier deployment: per-tier messages vs shard "
              "count (c=1 is the monolithic path)") {
  const std::uint64_t steps = ctx.opts().steps_or(120);
  const std::uint64_t seed = ctx.opts().seed;
  constexpr std::size_t kK = 32;

  const std::vector<std::size_t> ns = {1u << 12, 1u << 16, 1u << 20};
  const std::vector<std::size_t> cs = {1, 2, 4, 8, 16};
  const std::vector<std::pair<const char*, const char*>> monitors = {
      {"topk_filter?nobeacon", "filter"},
      {"naive_chg", "naive_chg"},
  };

  // c innermost: each (n, monitor) group is contiguous, its first row is
  // the c = 1 reference for the timing table.
  std::vector<ShardCase> cases;
  for (const std::size_t n : ns) {
    for (const auto& [mon, tag] : monitors) {
      for (const std::size_t c : cs) {
        cases.push_back(ShardCase{"n" + std::to_string(n) + "_" + tag + "_c" +
                                      std::to_string(c),
                                  n, mon, tag, c});
      }
    }
  }

  const auto outcomes =
      ctx.runner().map<RunResult>(cases.size(), [&](std::size_t i) {
        const ShardCase& c = cases[i];
        StreamSpec stream;
        stream.family = StreamFamily::kSparse;
        stream.sparse.rate = 0.01;
        stream.sparse_inner = StreamFamily::kRandomWalk;
        // e16's drift regime: wide range (values stay pairwise
        // distinct in practice), gentle steps, 1% activity.
        stream.walk.hi = 100'000'000;
        stream.walk.max_step = 64;
        Scenario sc = scenario(c.monitor, stream, c.n, kK, steps, seed);
        sc.shards = c.shards;
        // Sharded exactness is an invariant, not an assumption: record
        // any divergence as error steps (part of the fingerprint, so a
        // regression shows up as a diff AND a nonzero column).
        sc.validation = RunConfig::Validation::kWeak;
        sc.throw_on_error = false;
        return run_scenario(sc);
      });

  Table fingerprint({"case", "n", "k", "monitor", "shards", "steps",
                     "msgs_node_shard", "msgs_shard_root", "tier_ratio",
                     "msgs_per_step", "error_steps"});
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const ShardCase& c = cases[i];
    const RunResult& r = outcomes[i];
    const double ratio =
        r.root_comm.total() > 0
            ? static_cast<double>(r.comm.total()) /
                  static_cast<double>(r.root_comm.total())
            : 0.0;
    fingerprint.add_row(
        {c.name, std::to_string(c.n), std::to_string(kK), c.mon_tag,
         std::to_string(c.shards), std::to_string(r.steps_executed),
         std::to_string(r.comm.total()), std::to_string(r.root_comm.total()),
         r.root_comm.total() > 0 ? fmt(ratio, 1) : "inf",
         fmt(r.messages_per_step(), 3), std::to_string(r.error_steps)});
  }
  ctx.emit(fingerprint, "e18_shards");

  // Timing summary: steady-state steps/s per shard count (console + BENCH
  // file; machine-dependent, not diffed). Initialization excluded as in
  // e16.
  std::vector<std::string> header = {"config"};
  for (const std::size_t c : cs) {
    header.push_back("c" + std::to_string(c) + " steps/s");
  }
  Table timing(header);
  for (std::size_t g = 0; g < cases.size(); g += cs.size()) {
    std::vector<std::string> row = {
        cases[g].name.substr(0, cases[g].name.rfind('_'))};
    for (std::size_t ci = 0; ci < cs.size(); ++ci) {
      row.push_back(fmt(outcomes[g + ci].steady_steps_per_second(), 0));
    }
    timing.add_row(row);
  }
  ctx.out() << "\n";
  timing.print(ctx.out());

  std::vector<BenchRow> rows;
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const ShardCase& c = cases[i];
    const RunResult& r = outcomes[i];
    const double sps = r.steady_steps_per_second();
    rows.emplace_back()
        .text("name", c.name)
        .count("n", c.n)
        .count("k", kK)
        .text("monitor", c.mon_tag)
        .count("shards", c.shards)
        .real("wall_seconds", r.wall_seconds, 6)
        .real("init_seconds", r.init_seconds, 6)
        .real("steps_per_sec", sps, 1)
        .real("ns_per_step", sps > 0.0 ? 1e9 / sps : 0.0, 1)
        .count("messages_node_shard", r.comm.total())
        .count("messages_shard_root", r.root_comm.total())
        .count("error_steps", r.error_steps);
  }
  emit_bench_file(ctx, "e18", "shards", steps, rows);
}

}  // namespace
}  // namespace topkmon::bench
