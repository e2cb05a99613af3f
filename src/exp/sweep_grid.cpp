#include "exp/sweep_grid.hpp"

#include <utility>

#include "util/rng.hpp"

namespace topkmon::exp {

std::uint64_t derive_trial_seed(std::uint64_t seed, std::size_t n,
                                std::size_t k, std::size_t monitor_index,
                                std::size_t family_index,
                                std::size_t trial) noexcept {
  // Fold each coordinate into a SplitMix64 chain; the odd constants keep
  // zero-valued coordinates from collapsing onto each other.
  std::uint64_t state = seed ^ 0x9E3779B97F4A7C15ull;
  state += 0xBF58476D1CE4E5B9ull * (static_cast<std::uint64_t>(n) + 1);
  splitmix64(state);
  state += 0x94D049BB133111EBull * (static_cast<std::uint64_t>(k) + 1);
  splitmix64(state);
  state +=
      0xD6E8FEB86659FD93ull * (static_cast<std::uint64_t>(monitor_index) + 1);
  splitmix64(state);
  state +=
      0xA0761D6478BD642Full * (static_cast<std::uint64_t>(family_index) + 1);
  splitmix64(state);
  state += 0xE7037ED1A0B428DBull * (static_cast<std::uint64_t>(trial) + 1);
  return splitmix64(state);
}

std::size_t SweepGrid::size() const noexcept {
  std::size_t cells = 0;
  for (const auto n : ns) {
    for (const auto k : ks) {
      if (k == 0 || k > n) continue;
      ++cells;
    }
  }
  return cells * monitors.size() * families.size() * networks.size() *
         shards.size() * faults.size() * trials;
}

std::vector<Scenario> SweepGrid::expand() const {
  std::vector<Scenario> out;
  out.reserve(size());
  for (const auto n : ns) {
    for (const auto k : ks) {
      if (k == 0 || k > n) continue;
      for (std::size_t mi = 0; mi < monitors.size(); ++mi) {
        for (std::size_t fi = 0; fi < families.size(); ++fi) {
          for (std::size_t ni = 0; ni < networks.size(); ++ni) {
            for (std::size_t si = 0; si < shards.size(); ++si) {
              for (std::size_t pi = 0; pi < faults.size(); ++pi) {
                for (std::size_t t = 0; t < trials; ++t) {
                  Scenario sc = base;
                  sc.n = n;
                  sc.k = k;
                  // Neither the network, the shards nor the faults axis
                  // enters the seed: same-cell trials under different
                  // policies/shard counts/fault plans are paired
                  // replays.
                  sc.seed = derive_trial_seed(base.seed, n, k, mi, fi, t);
                  sc.stream.family = families[fi];
                  sc.network = networks[ni];
                  sc.monitor = monitors[mi];
                  sc.shards = shards[si];
                  sc.faults = faults[pi];
                  out.push_back(std::move(sc));
                }
              }
            }
          }
        }
      }
    }
  }
  return out;
}

}  // namespace topkmon::exp
