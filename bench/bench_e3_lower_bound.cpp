// E3 — Theorem 4.3 (lower bound): every randomized max-computation needs
// Ω(log n) messages in expectation. The proof distributes inputs as random
// permutations and observes that a deterministic probing algorithm's
// message count equals the length of the BST search path / the number of
// left-to-right maxima, with expectation H_n = Θ(log n).
//
// Regenerates: E[#reports] of the deterministic sequential-probe algorithm
// on random permutations vs the harmonic number H_n and vs ln n, for
// n = 2^4 .. 2^18 — alongside the randomized Algorithm 2 on the same
// inputs, showing both sit at Θ(log n) (the protocol is asymptotically
// optimal).
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench_common.hpp"

namespace topkmon::bench {
namespace {

TOPKMON_SUITE(e3, "Ω(log n) lower-bound construction (Theorem 4.3)") {
  const auto& args = ctx.opts();
  constexpr std::uint64_t kDefaultTrials = 2'000;
  const std::uint64_t trials = args.trials_or(kDefaultTrials);

  ctx.out() << "E3: lower-bound construction (Theorem 4.3)\n"
            << "claim: E[probe reports] = H_n = Theta(log n); Algorithm 2 "
               "matches up to constants\n\n";

  std::vector<std::uint32_t> exps;
  for (std::uint32_t exp2 = 4; exp2 <= 18; exp2 += 2) exps.push_back(exp2);

  struct CellStats {
    OnlineStats probe_reports, alg2_reports;
  };
  const auto stats = ctx.runner().map<CellStats>(
      exps.size(), [&](std::size_t ci) {
        const std::uint32_t exp2 = exps[ci];
        const std::size_t n = 1ull << exp2;
        const std::uint64_t cell_trials =
            std::max<std::uint64_t>(30, trials >> (exp2 / 2));
        CellStats s;
        std::vector<Value> values(n);
        std::iota(values.begin(), values.end(), 1);
        Rng shuffle_rng(args.seed * 97 + exp2);
        for (std::uint64_t t = 0; t < cell_trials; ++t) {
          shuffle_rng.shuffle(values.begin(), values.end());
          Cluster c(n, args.seed * 13 + t);
          for (NodeId i = 0; i < n; ++i) c.set_value(i, values[i]);
          s.probe_reports.add(static_cast<double>(
              run_sequential_probe_max(c, c.all_ids()).reports));
          Cluster c2(n, args.seed * 17 + t);
          for (NodeId i = 0; i < n; ++i) c2.set_value(i, values[i]);
          s.alg2_reports.add(
              static_cast<double>(run_max_session(c2).reports));
        }
        return s;
      });

  Table table({"n", "E[probe reports]", "H_n", "ratio", "E[alg2 reports]",
               "2logN+1"});
  for (std::size_t ci = 0; ci < exps.size(); ++ci) {
    const std::uint32_t exp2 = exps[ci];
    const std::size_t n = 1ull << exp2;
    const double hn = harmonic(n);
    table.add_row({std::to_string(n), fmt(stats[ci].probe_reports.mean()),
                   fmt(hn), fmt(stats[ci].probe_reports.mean() / hn, 3),
                   fmt(stats[ci].alg2_reports.mean()), fmt(2.0 * exp2 + 1)});
  }

  ctx.emit(table, "e3_lower_bound");
  ctx.out() << "\nshape check: probe reports track H_n (ratio ~1), i.e. "
               "Θ(log n) messages are necessary; Algorithm 2 stays within "
               "its 2logN+1 budget on the same inputs.\n";

  // Theorems 4.2/4.3 as checks, after the table is out. The probe band
  // was set once from the default run (seed 1: 0.979..1.034) with room
  // for seed noise: the n = 2^18 row averages 30 trials, so its ratio
  // has a standard error near 0.05. Below the default trial count the
  // small-n rows average as few trials, and the band is not evaluated.
  constexpr double kProbeBandLo = 0.85;
  constexpr double kProbeBandHi = 1.15;
  const bool band_evaluated = trials >= kDefaultTrials;
  std::string failed;
  const auto fail = [&failed](const std::string& what) {
    failed += (failed.empty() ? "" : "; ") + what;
  };
  for (std::size_t ci = 0; ci < exps.size(); ++ci) {
    const std::uint32_t exp2 = exps[ci];
    const std::string row = "n=" + std::to_string(1ull << exp2);
    const double alg2 = stats[ci].alg2_reports.mean();
    const double bound = 2.0 * exp2 + 1.0;
    if (!(alg2 <= bound)) {
      fail(row + " E[alg2 reports] " + fmt(alg2) + " > " + fmt(bound));
    }
    const double ratio =
        stats[ci].probe_reports.mean() / harmonic(std::size_t{1} << exp2);
    if (band_evaluated && !(ratio >= kProbeBandLo && ratio <= kProbeBandHi)) {
      fail(row + " E[probe reports]/H_n " + fmt(ratio, 3) + " outside [" +
           fmt(kProbeBandLo) + ", " + fmt(kProbeBandHi) + "]");
    }
  }
  ctx.out() << "claim check: E[alg2 reports] <= 2logN+1 on every row; "
            << (band_evaluated
                    ? "E[probe reports]/H_n in [" + fmt(kProbeBandLo) + ", " +
                          fmt(kProbeBandHi) + "] on every row\n"
                    : "probe band not evaluated (needs --trials >= " +
                          std::to_string(kDefaultTrials) + ")\n");
  if (!failed.empty()) throw std::logic_error("e3: " + failed);
}

}  // namespace
}  // namespace topkmon::bench
