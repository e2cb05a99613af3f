#include "exp/sweep_grid.hpp"

#include <stdexcept>

#include "util/rng.hpp"
#include "util/strings.hpp"

namespace topkmon::exp {

std::uint64_t derive_trial_seed(std::uint64_t base_seed, std::size_t n,
                                std::size_t k, std::size_t monitor_index,
                                std::size_t family_index,
                                std::size_t trial) noexcept {
  // Fold each coordinate into a SplitMix64 chain; the odd constants keep
  // zero-valued coordinates from collapsing onto each other.
  std::uint64_t state = base_seed ^ 0x9E3779B97F4A7C15ull;
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

std::vector<TrialSpec> SweepGrid::expand() const {
  std::vector<TrialSpec> out;
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
                  TrialSpec spec;
                  spec.cfg.n = n;
                  spec.cfg.k = k;
                  spec.cfg.steps = steps;
                  // Neither the network, the shards nor the faults axis
                  // enters the seed: same-cell trials under different
                  // policies/shard counts/fault plans are paired
                  // replays.
                  spec.cfg.seed =
                      derive_trial_seed(base_seed, n, k, mi, fi, t);
                  spec.cfg.validation = validation;
                  spec.cfg.record_trace = record_trace;
                  spec.stream = stream_template;
                  spec.stream.family = families[fi];
                  spec.network = networks[ni];
                  spec.monitor = monitors[mi];
                  spec.shards = shards[si];
                  spec.faults = faults[pi];
                  spec.trial = t;
                  spec.ordinal = out.size();
                  spec.throw_on_error = throw_on_error;
                  out.push_back(std::move(spec));
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

void SweepGrid::set_axis(const std::string& name,
                         const std::vector<std::string>& values) {
  if (values.empty()) {
    throw std::invalid_argument("sweep axis '" + name + "': no values");
  }
  const auto parse_sizes = [&]() {
    std::vector<std::size_t> out;
    out.reserve(values.size());
    for (const auto& v : values) {
      const auto u = to_u64(v);
      if (!u) {
        throw std::invalid_argument("sweep axis '" + name +
                                    "': expected an unsigned integer, got '" +
                                    v + "'");
      }
      out.push_back(static_cast<std::size_t>(*u));
    }
    return out;
  };
  if (name == "n") {
    ns = parse_sizes();
  } else if (name == "k") {
    ks = parse_sizes();
  } else if (name == "monitor") {
    monitors = values;
  } else if (name == "family") {
    families.clear();
    for (const auto& v : values) families.push_back(family_from_name(v));
  } else if (name == "network") {
    networks.clear();
    for (const auto& v : values) networks.push_back(parse_network_spec(v));
  } else if (name == "shards") {
    shards = parse_sizes();
  } else if (name == "faults") {
    faults = values;
  } else {
    static const std::vector<std::string> known{
        "n", "k", "monitor", "family", "network", "shards", "faults"};
    std::string msg = "unknown sweep axis '" + name + "'";
    const std::vector<std::string> close = closest_matches(name, known);
    if (!close.empty()) {
      msg += "; did you mean";
      for (std::size_t i = 0; i < close.size(); ++i) {
        msg += (i == 0 ? " '" : i + 1 == close.size() ? " or '" : ", '");
        msg += close[i];
        msg += '\'';
      }
      msg += '?';
    }
    msg += " (axes: n, k, monitor, family, network, shards, faults)";
    throw std::invalid_argument(msg);
  }
}

}  // namespace topkmon::exp
