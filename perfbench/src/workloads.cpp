#include "workloads.hpp"

#include <array>

namespace perfbench {
namespace {

using topkmon::RunConfig;
using topkmon::exp::Scenario;

Scenario base(std::uint64_t seed, std::size_t n, std::size_t k) {
  Scenario sc;
  sc.n = n;
  sc.k = k;
  sc.seed = seed;
  sc.workers = 1;
  return sc;
}

Scenario walk_strict(std::uint64_t seed) {
  Scenario sc = base(seed, 4096, 8);
  sc.with_monitor("topk_filter").with_stream_family("random_walk");
  // Starts 24414 apart, so walks of +-8 per step cross the top-k
  // boundary only rarely within a repeat: filters hold, and every seed
  // sees the same regime.
  sc.stream.walk.hi = 100'000'000;
  sc.validation = RunConfig::Validation::kStrict;
  return sc;
}

Scenario iid_storm(std::uint64_t seed) {
  Scenario sc = base(seed, 1024, 16);
  sc.with_monitor("topk_filter").with_stream_family("iid_uniform");
  sc.validation = RunConfig::Validation::kStrict;
  return sc;
}

Scenario naive_sched(std::uint64_t seed) {
  Scenario sc = base(seed, 1024, 16);
  sc.with_monitor("naive").with_stream_family("random_walk");
  sc.with_network("delay=2,jitter=4,ticks=8");
  sc.validation = RunConfig::Validation::kWeak;
  return sc;
}

Scenario sharded_sparse(std::uint64_t seed) {
  // 16384 nodes, not 65536: the larger deployment (39 MB resident) ran
  // anywhere from 6100 to 13700 steps/s on a shared host, by how busy
  // its neighbours kept the memory system.
  Scenario sc = base(seed, 16384, 32);
  sc.with_monitor("topk_filter?nobeacon")
      .with_stream_family("sparse?rate=0.01,inner=random_walk");
  sc.stream.walk.hi = 100'000'000;
  sc.stream.walk.max_step = 64;
  sc.shards = 4;
  sc.workers = 1;
  sc.validation = RunConfig::Validation::kWeak;
  return sc;
}

// Columns: steps, warm-up, window. Windows last 0.03-0.2 s on a 2.1 GHz
// Xeon VM (iid_storm's about 0.8 s).
constexpr std::array kWorkloads{
    Workload{"walk_strict", 6'000, 1'000, 1'000, walk_strict},
    Workload{"iid_storm", 1'100, 100, 200, iid_storm},
    Workload{"naive_sched", 5'000, 500, 500, naive_sched},
    Workload{"sharded_sparse", 20'000, 2'000, 2'000, sharded_sparse},
};

}  // namespace

Scenario make_scenario(const Workload& w, std::uint64_t seed) {
  Scenario sc = w.scenario(seed);
  sc.steps = w.steps;
  sc.throw_on_error = false;
  return sc;
}

std::span<const Workload> workloads() { return kWorkloads; }

const Workload* find_workload(std::string_view name) {
  for (const Workload& w : kWorkloads) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

}  // namespace perfbench
