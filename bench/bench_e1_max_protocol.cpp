// E1 — Theorem 4.2 (upper bound): the MaximumProtocol's expected number of
// node reports is at most 2·log N + 1, and total messages are O(log N).
//
// Regenerates the scaling series: for n = 2^4 .. 2^18, the mean/max report
// count over many trials on several value layouts, next to the analytic
// bound. The paper claims the bound for every input; the layouts probe the
// extremes (uniform random, ascending = "many candidate maxima survive",
// descending, all-equal).
#include <stdexcept>
#include <string>
#include <vector>

#include "bench_common.hpp"

namespace topkmon::bench {
namespace {

enum class Layout { kUniform, kAscending, kDescending, kAllEqual };

const char* layout_name(Layout l) {
  switch (l) {
    case Layout::kUniform: return "uniform";
    case Layout::kAscending: return "ascending";
    case Layout::kDescending: return "descending";
    case Layout::kAllEqual: return "all_equal";
  }
  return "?";
}

void fill_values(Cluster& c, Layout layout, Rng& rng) {
  const std::size_t n = c.size();
  for (NodeId i = 0; i < n; ++i) {
    switch (layout) {
      case Layout::kUniform:
        c.set_value(i, rng.uniform_int(0, 1'000'000'000));
        break;
      case Layout::kAscending:
        c.set_value(i, static_cast<Value>(i));
        break;
      case Layout::kDescending:
        c.set_value(i, static_cast<Value>(n - i));
        break;
      case Layout::kAllEqual:
        c.set_value(i, 42);
        break;
    }
  }
}

TOPKMON_SUITE(e1, "MaximumProtocol message scaling (Theorem 4.2)") {
  const auto& args = ctx.opts();
  const std::uint64_t trials = args.trials_or(2'000);

  ctx.out() << "E1: MaximumProtocol message scaling (Theorem 4.2)\n"
            << "claim: E[#reports] <= 2 log2 N + 1; total = O(log N)\n"
            << "trials per cell: " << trials << "\n\n";

  struct Cell {
    std::uint32_t exp2;
    Layout layout;
  };
  std::vector<Cell> cells;
  for (std::uint32_t exp2 = 4; exp2 <= 18; exp2 += 2) {
    for (const Layout layout :
         {Layout::kUniform, Layout::kAscending, Layout::kDescending,
          Layout::kAllEqual}) {
      cells.push_back({exp2, layout});
    }
  }

  struct CellStats {
    OnlineStats reports, beacons, totals;
  };
  // One job per cell; each cell's trials share a deterministic per-cell
  // value RNG, so results don't depend on cell execution order.
  const auto stats = ctx.runner().map<CellStats>(
      cells.size(), [&](std::size_t ci) {
        const auto [exp2, layout] = cells[ci];
        const std::size_t n = 1ull << exp2;
        // Trials shrink with n to keep runtime in seconds at n = 2^18.
        const std::uint64_t cell_trials =
            std::max<std::uint64_t>(50, trials >> (exp2 / 2));
        CellStats s;
        Rng layout_rng(args.seed * 1000 + exp2 * 8 +
                       static_cast<std::uint64_t>(layout));
        for (std::uint64_t t = 0; t < cell_trials; ++t) {
          Cluster c(n, args.seed * 7919 + t * 104729 + exp2);
          fill_values(c, layout, layout_rng);
          const MaxProtocolRun r = run_max_session(c);
          s.reports.add(static_cast<double>(r.reports));
          s.beacons.add(static_cast<double>(r.beacons));
          s.totals.add(static_cast<double>(r.reports + r.beacons));
        }
        return s;
      });

  Table table({"n", "layout", "E[reports]", "max", "E[beacons]", "E[total]",
               "bound 2logN+1", "ok"});
  for (std::size_t ci = 0; ci < cells.size(); ++ci) {
    const auto [exp2, layout] = cells[ci];
    const auto& s = stats[ci];
    const double bound = 2.0 * exp2 + 1.0;
    table.add_row({std::to_string(1ull << exp2), layout_name(layout),
                   fmt(s.reports.mean()), fmt(s.reports.max(), 0),
                   fmt(s.beacons.mean()), fmt(s.totals.mean()), fmt(bound),
                   s.reports.mean() <= bound ? "yes" : "NO"});
  }

  ctx.emit(table, "e1_max_protocol");
  ctx.out() << "\nshape check: E[reports] grows ~linearly in log n and stays"
               " under the bound for every layout.\n";

  // Theorem 4.2 as a check: after the table is out, fail the suite on
  // every cell whose mean report count exceeds 2·log2 N + 1.
  std::string failed;
  for (std::size_t ci = 0; ci < cells.size(); ++ci) {
    const auto [exp2, layout] = cells[ci];
    const double mean = stats[ci].reports.mean();
    const double bound = 2.0 * exp2 + 1.0;
    if (!(mean <= bound)) {
      failed += std::string(failed.empty() ? "" : "; ") +
                "n=" + std::to_string(1ull << exp2) + " " +
                layout_name(layout) + " (" + fmt(mean) + " > " + fmt(bound) +
                ")";
    }
  }
  if (!failed.empty()) {
    throw std::logic_error(
        "e1: mean reports exceed the Theorem 4.2 bound 2 log2 N + 1 at " +
        failed);
  }
}

}  // namespace
}  // namespace topkmon::bench
