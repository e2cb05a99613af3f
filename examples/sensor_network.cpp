// Sensor network scenario (the paper's §1/§5 motivation): 48 temperature
// sensors with diurnal cycles, local fluctuations and occasional spikes;
// a base station continuously tracks the 5 hottest locations over a
// simulated week and reports the communication bill of four algorithms.
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "topkmon.hpp"

using namespace topkmon;

int main() {
  constexpr std::size_t kSensors = 48;
  constexpr std::size_t kHottest = 5;
  constexpr std::size_t kMinutesPerDay = 1'440;
  constexpr std::size_t kDays = 7;
  constexpr std::uint64_t kSeed = 7;

  // Hand-built streams (instead of the factory): co-located sensors share
  // the diurnal phase up to a few minutes of jitter, while their *bases*
  // differ by location (south wall vs shaded courtyard) — so the hottest-5
  // set is mostly stable and changes only around spikes and slow seasonal
  // crossings. This is the regime the paper's summary highlights.
  auto build_streams = [&] {
    const Rng root(kSeed);
    std::vector<std::unique_ptr<Stream>> streams;
    for (NodeId id = 0; id < kSensors; ++id) {
      SensorParams p;
      p.base = 148.0 + 4.0 * static_cast<double>(id);  // location offset
      p.diurnal_amplitude = 65.0;  // +-6.5 °C day/night swing
      p.diurnal_period = kMinutesPerDay;
      p.phase = static_cast<double>(id % 7) * 4.0;  // minutes of jitter
      p.walk_step = 1;
      p.spike_prob = 0.0003;  // rare local heat events
      p.spike_magnitude = 60;
      auto s = std::make_unique<SensorStream>(p, root.derive(id + 1));
      streams.push_back(std::make_unique<DistinctStream>(std::move(s), id,
                                                          kSensors));
    }
    return StreamSet(std::move(streams));
  };

  std::cout << "sensor network: " << kSensors << " sensors, top-" << kHottest
            << " hottest, " << kDays << " days at 1 obs/min ("
            << kMinutesPerDay * kDays << " steps)\n\n";

  struct Entry {
    const char* label;
    const char* spec;  ///< monitor registry spec
  };
  const Entry entries[] = {
      {"Algorithm 1 (filters + rand. protocol)", "topk_filter"},
      {"ordered top-k (§5 variant)", "ordered"},
      {"recompute each minute (§2.1)", "recompute"},
      {"naive forwarding", "naive"},
  };

  Table table({"algorithm", "total msgs", "msgs/min", "resets",
               "violations"});
  for (const Entry& e : entries) {
    // The same step loop as every experiment, over the hand-built
    // streams; validated against the true hottest set every minute.
    exp::Scenario sc;
    sc.monitor = e.spec;
    sc.n = kSensors;
    sc.k = kHottest;
    sc.steps = kMinutesPerDay * kDays;
    sc.seed = kSeed;
    const auto r = exp::run_scenario(sc, build_streams());
    table.add_row({e.label, fmt_count(r.comm.total()),
                   fmt(r.messages_per_step(), 2),
                   fmt_count(r.monitor.filter_resets),
                   fmt_count(r.monitor.violations)});
  }
  table.print(std::cout);

  std::cout << "\nEvery algorithm was validated against the true hottest-"
            << kHottest << " set at every minute.\n"
            << "The filter-based coordinator stays silent while the diurnal "
               "pattern keeps relative order stable and only pays around "
               "crossings and spikes — the regime the paper's summary "
               "highlights for naturally bounded sensor values.\n";
  return 0;
}
