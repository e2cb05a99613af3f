// micro — google-benchmark microbenchmarks: CPU-side throughput of the
// simulator, protocols and monitors (implementation quality; no paper
// claim attached). Message counts are the paper's metric — these
// wall-clock numbers just demonstrate the library is fast enough to run
// the larger experiment sweeps.
//
// Registered as the `micro` suite of topkmon_bench; compiled to a stub
// when google-benchmark is not available at build time.
#include "bench_common.hpp"

#ifdef TOPKMON_HAVE_BENCHMARK

#include <benchmark/benchmark.h>

#include "core/root_merge.hpp"

namespace topkmon {
namespace {

void BM_RngNextU64(benchmark::State& state) {
  Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.next_u64());
  }
}
BENCHMARK(BM_RngNextU64);

void BM_BernoulliPow2(benchmark::State& state) {
  Rng rng(2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.bernoulli_pow2(3, 10));
  }
}
BENCHMARK(BM_BernoulliPow2);

// Before/after pair for the bulk instant-broadcast fan-out: one
// broadcast delivered to n clean nodes through n individual buffer
// drains (the pre-bulk driver path) versus reading each node's log
// suffix in place and committing with an O(1) ack.
void BM_BroadcastFanoutDrain(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  CommStats stats;
  Network net(n, &stats);
  Message m;
  m.kind = MsgKind::kRoundBeacon;
  std::vector<Message> buf;
  for (auto _ : state) {
    net.coord_broadcast(m);
    for (NodeId i = 0; i < n; ++i) {
      net.drain_node(i, buf);
      benchmark::DoNotOptimize(buf.data());
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_BroadcastFanoutDrain)->Arg(1024)->Arg(65536);

void BM_BroadcastFanoutBulk(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  CommStats stats;
  Network net(n, &stats);
  Message m;
  m.kind = MsgKind::kRoundBeacon;
  for (auto _ : state) {
    net.coord_broadcast(m);
    for (NodeId i = 0; i < n; ++i) {
      const auto mail = net.unread_broadcasts(i);
      for (const Message& msg : mail) benchmark::DoNotOptimize(&msg);
      net.ack_broadcasts(i);
    }
    net.compact_broadcast_log();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_BroadcastFanoutBulk)->Arg(1024)->Arg(65536);

void BM_MaxProtocol(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::uint64_t seed = 0;
  for (auto _ : state) {
    state.PauseTiming();
    Cluster c(n, ++seed);
    Rng values(seed);
    for (NodeId i = 0; i < n; ++i) {
      c.set_value(i, values.uniform_int(0, 1'000'000));
    }
    state.ResumeTiming();
    benchmark::DoNotOptimize(run_max_protocol(c, c.all_ids(), n));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_MaxProtocol)->Arg(256)->Arg(4096)->Arg(65536);

void BM_TopkMonitorStep(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  StreamSpec spec;
  spec.family = StreamFamily::kRandomWalk;
  spec.walk.max_step = 500;
  auto streams = make_stream_set(spec, n, 7);
  Cluster c(n, 7);
  exp::RolePair m = exp::make_role_pair(c, "topk_filter", 4);
  SimDriver driver(c, *m.coordinator, m.nodes);
  for (NodeId i = 0; i < n; ++i) c.set_value(i, streams.advance(i));
  driver.initialize();
  TimeStep t = 0;
  for (auto _ : state) {
    ++t;
    for (NodeId i = 0; i < n; ++i) c.set_value(i, streams.advance(i));
    driver.step(t);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_TopkMonitorStep)->Arg(64)->Arg(1024)->Arg(8192);

void BM_GroundTruthTopk(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<Value> values(n);
  Rng rng(5);
  for (auto& v : values) v = rng.uniform_int(0, 1'000'000'000);
  for (auto _ : state) {
    benchmark::DoNotOptimize(true_topk_set(values, 8));
  }
}
BENCHMARK(BM_GroundTruthTopk)->Arg(1024)->Arg(65536);

void BM_OfflineOpt(benchmark::State& state) {
  const auto steps = static_cast<std::size_t>(state.range(0));
  constexpr std::size_t kN = 32;
  StreamSpec spec;
  spec.family = StreamFamily::kRandomWalk;
  spec.walk.max_step = 2'000;
  auto streams = make_stream_set(spec, kN, 11);
  TraceMatrix trace(kN, steps);
  for (std::size_t t = 0; t < steps; ++t) {
    for (NodeId i = 0; i < kN; ++i) trace.at(t, i) = streams.advance(i);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(compute_offline_opt(trace, 4));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(steps));
}
BENCHMARK(BM_OfflineOpt)->Arg(1024)->Arg(16384);

void BM_StreamAdvance(benchmark::State& state) {
  StreamSpec spec;
  spec.family = StreamFamily::kZipf;
  auto streams = make_stream_set(spec, 64, 13);
  NodeId i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(streams.advance(i));
    i = (i + 1) % 64;
  }
}
BENCHMARK(BM_StreamAdvance);

/// Steady-state drain traffic through the caller-owned scratch buffers:
/// n upstream reports drained by the coordinator, then one broadcast
/// drained by every node.
void BM_DrainReuse(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  CommStats stats;
  Network net(n, &stats);
  Message m;
  m.kind = MsgKind::kValueReport;
  std::vector<Message> mail;  // caller-owned scratch
  for (auto _ : state) {
    for (NodeId i = 0; i < n; ++i) net.node_send(i, m);
    net.drain_coordinator(mail);
    benchmark::DoNotOptimize(mail.data());
    net.coord_broadcast(m);
    for (NodeId i = 0; i < n; ++i) {
      net.drain_node(i, mail);
      benchmark::DoNotOptimize(mail.data());
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(2 * n));
}
BENCHMARK(BM_DrainReuse)->Arg(64)->Arg(1024);

/// One shared value-update pattern for the validation pair: a slow
/// deterministic rotation that crosses the k-boundary every few hundred
/// updates (realistic mix of cheap steps and rebuild steps).
void mutate_values(std::vector<Value>& values, std::uint64_t t) {
  const std::size_t i = t % values.size();
  values[i] = static_cast<Value>((values[i] + 7919 * (t % 13 + 1)) %
                                 1'000'000);
}

void BM_ValidationFull(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<Value> values(n);
  Rng rng(17);
  for (auto& v : values) v = rng.uniform_int(0, 1'000'000);
  std::uint64_t t = 0;
  for (auto _ : state) {
    mutate_values(values, ++t);
    // Pre-tracker shape: fresh id vector + partial sort every step.
    benchmark::DoNotOptimize(true_topk_set(values, 8));
  }
}
BENCHMARK(BM_ValidationFull)->Arg(256)->Arg(4096);

void BM_ValidationIncremental(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<Value> values(n);
  Rng rng(17);
  for (auto& v : values) v = rng.uniform_int(0, 1'000'000);
  GroundTruthTracker tracker(n, 8);
  for (NodeId i = 0; i < n; ++i) tracker.set_value(i, values[i]);
  std::uint64_t t = 0;
  for (auto _ : state) {
    mutate_values(values, ++t);
    const auto i = static_cast<NodeId>(t % n);
    tracker.set_value(i, values[i]);
    benchmark::DoNotOptimize(tracker.topk_set());
  }
}
BENCHMARK(BM_ValidationIncremental)->Arg(256)->Arg(4096);

/// One whole-set step of n random walks: a single call into the column
/// bank's vector kernel, the best one the host runs (state.range: n;
/// 1000 leaves a vector tail).
void BM_StreamSetAdvanceAll(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  StreamSpec spec;
  spec.family = StreamFamily::kRandomWalk;
  auto streams = make_stream_set(spec, n, 13);
  std::vector<Value> out(n);
  for (auto _ : state) {
    streams.advance_all(out);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_StreamSetAdvanceAll)
    ->Arg(64)
    ->Arg(1000)
    ->Arg(4096)
    ->Arg(16384);

/// The same whole-set step of 4096 walks through one kernel variant
/// (registered below as BM_WalkKernel/<variant> for each variant the host
/// CPU supports), so one binary shows the vectorization gain per ISA.
void BM_WalkKernel(benchmark::State& state, WalkKernel kernel) {
  constexpr std::size_t kN = 4096;
  StreamSpec spec;
  spec.family = StreamFamily::kRandomWalk;
  auto bank = make_walk_bank(spec, kN, 13);
  bank->set_kernel(kernel);
  std::vector<Value> out(kN);
  for (auto _ : state) {
    bank->advance_all(out);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kN));
}

[[maybe_unused]] const bool kWalkKernelsRegistered = [] {
  for (const WalkKernel kernel : RandomWalkBank::host_kernels()) {
    const std::string name =
        "BM_WalkKernel/" + std::string(kernel_name(kernel));
    benchmark::RegisterBenchmark(name.c_str(), BM_WalkKernel, kernel);
  }
  return true;
}();

// -- event loop, scheduled transport, non-member boundary --

/// One full simulation step (observe + event loop) of the native filter
/// monitor under a sparse workload, through either the activity-driven
/// sparse path or the legacy dense scan (state.range: n, activity %,
/// dense flag).
void BM_SimulationStep(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const double activity = static_cast<double>(state.range(1)) / 100.0;
  const bool dense = state.range(2) != 0;
  StreamSpec spec;
  spec.family = StreamFamily::kSparse;
  spec.sparse.rate = activity;
  spec.sparse_inner = StreamFamily::kRandomWalk;
  spec.walk.hi = 100'000'000;
  spec.walk.max_step = 64;
  auto streams = make_stream_set(spec, n, 7);
  Cluster cluster(n, 7);
  auto pair = exp::make_role_pair(cluster, "topk_filter?nobeacon", 8);
  SimDriver driver(cluster, *pair.coordinator, pair.nodes, pair.native);
  driver.set_dense_loop(dense);
  std::vector<Value> values(n, 0);
  std::vector<NodeId> changed;
  const auto observe = [&] {
    streams.advance_all_active(values, changed);
    for (const NodeId id : changed) cluster.set_value(id, values[id]);
  };
  cluster.stats().begin_step(0);
  observe();
  driver.initialize();
  TimeStep t = 0;
  for (auto _ : state) {
    ++t;
    cluster.stats().begin_step(t);
    observe();
    driver.step(t, changed);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_SimulationStep)
    ->Args({1024, 1, 0})
    ->Args({1024, 1, 1})
    ->Args({1024, 100, 0})
    ->Args({1024, 100, 1})
    ->Args({65536, 1, 0})
    ->Args({65536, 1, 1})
    ->Args({65536, 100, 0})
    ->Args({65536, 100, 1});

/// The driver's observe phase when every node moves but none leaves its
/// filter (state.range: n): each step moves all n FilterNode values by 8,
/// alternating up and down, at least 500 away from the boundary, so no
/// on_observe has anything to do — the quiet-range pass settles every id
/// without a node callback.
void BM_DriverObserveInFilter(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Cluster cluster(n, 7);
  std::vector<NodeId> changed(n);
  for (NodeId id = 0; id < n; ++id) {
    cluster.set_value(id, 1000 * static_cast<Value>(id));
    changed[id] = id;
  }
  auto pair = exp::make_role_pair(cluster, "topk_filter?nobeacon", 8);
  SimDriver driver(cluster, *pair.coordinator, pair.nodes, pair.native);
  cluster.stats().begin_step(0);
  driver.initialize();
  TimeStep t = 0;
  for (auto _ : state) {
    ++t;
    const Value delta = t % 2 == 1 ? 8 : -8;
    cluster.stats().begin_step(t);
    for (const NodeId id : changed) {
      cluster.set_value(id, cluster.value(id) + delta);
    }
    driver.step(t, changed);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_DriverObserveInFilter)->Arg(4096)->Arg(65536);

/// The scheduled (timing-wheel) transport: each tick sends 8 upstream
/// reports with delay 1 + jitter up to 12, advances the clock and drains
/// the coordinator.
void BM_SchedWheelPushPop(benchmark::State& state) {
  CommStats stats;
  NetworkSpec spec;
  spec.delay = 1;
  spec.jitter = 12;
  Network net(8, &stats, spec, 3);
  Message m;
  m.kind = MsgKind::kValueReport;
  std::vector<Message> buf;
  for (auto _ : state) {
    net.advance_clock();
    for (int i = 0; i < 8; ++i) net.node_send(static_cast<NodeId>(i), m);
    net.drain_coordinator(buf);
    benchmark::DoNotOptimize(buf.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 8);
}
BENCHMARK(BM_SchedWheelPushPop);

/// The tracker's non-member boundary under decay: the current best
/// outsider keeps sinking, so every query must re-find the maximum over
/// the n-k outsiders — the tracker's 64-ary max index recomputes only the
/// entries the decayed node led (one per level) and scans the top level.
void BM_NonmemberRescanLazy(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  constexpr std::size_t kK = 8;
  GroundTruthTracker tracker(n, kK);
  const auto reset = [&] {
    for (std::size_t i = 0; i < n; ++i) {
      tracker.set_value(static_cast<NodeId>(i),
                        static_cast<Value>(2 * n - i));
    }
    benchmark::DoNotOptimize(tracker.topk_set());
  };
  reset();
  std::size_t victim = kK;
  for (auto _ : state) {
    tracker.set_value(static_cast<NodeId>(victim), 0);  // boundary decay
    benchmark::DoNotOptimize(tracker.topk_set());       // lazy repair
    if (++victim + 1 >= n) {
      reset();
      victim = kK;
    }
  }
}
BENCHMARK(BM_NonmemberRescanLazy)->Arg(1024)->Arg(65536);

/// One ground-truth step: `moved` ids (all n in id order, or random
/// draws) move by at most 8, the tracker takes them per id (`bulk` =
/// false) or as one set_values batch, and the answer is queried. The
/// moves are drawn up front and replayed, so the timed loop holds
/// tracker work and the value writes only.
void run_tracker_step(benchmark::State& state, std::size_t n,
                      std::size_t moved, bool bulk) {
  constexpr std::size_t kBankSteps = 64;
  GroundTruthTracker tracker(n, 8);
  std::vector<Value> values(n);
  Rng rng(23);
  for (NodeId i = 0; i < n; ++i) {
    values[i] = rng.uniform_int(0, 1'000'000);
    tracker.set_value(i, values[i]);
  }
  std::vector<std::vector<NodeId>> ids(kBankSteps);
  std::vector<std::vector<Value>> deltas(kBankSteps);
  for (std::size_t s = 0; s < kBankSteps; ++s) {
    for (std::size_t j = 0; j < moved; ++j) {
      ids[s].push_back(moved == n ? static_cast<NodeId>(j)
                                  : static_cast<NodeId>(rng.uniform_below(n)));
      deltas[s].push_back(rng.uniform_int(-8, 8));
    }
  }
  benchmark::DoNotOptimize(tracker.topk_set());
  std::size_t s = 0;
  for (auto _ : state) {
    const auto& step_ids = ids[s];
    for (std::size_t j = 0; j < moved; ++j) {
      values[step_ids[j]] += deltas[s][j];
    }
    if (bulk) {
      tracker.set_values(step_ids, values);
    } else {
      for (const NodeId id : step_ids) tracker.set_value(id, values[id]);
    }
    benchmark::DoNotOptimize(tracker.topk_set());
    s = (s + 1) % kBankSteps;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(moved));
}

/// A dense random-walk step, n = 4096: every id moves, per-id updates.
/// Nearly all hit non-members, so this pins the per-update cost of the
/// non-member index climbs plus one decay repair whenever the boundary
/// outsider sank.
void BM_TrackerWalkStep(benchmark::State& state) {
  run_tracker_step(state, 4096, 4096, /*bulk=*/false);
}
BENCHMARK(BM_TrackerWalkStep);

/// The same step as one set_values batch: the one-sweep schedule.
void BM_TrackerWalkStepBulk(benchmark::State& state) {
  run_tracker_step(state, 4096, 4096, /*bulk=*/true);
}
BENCHMARK(BM_TrackerWalkStepBulk);

/// A sparse step, n = 16384 with 1% of the ids moving: per-id updates
/// versus a batch below the n / 8 cut-over, which must cost the same.
void BM_TrackerSparseStep(benchmark::State& state) {
  run_tracker_step(state, 16384, 164, /*bulk=*/false);
}
BENCHMARK(BM_TrackerSparseStep);

void BM_TrackerSparseStepBulk(benchmark::State& state) {
  run_tracker_step(state, 16384, 164, /*bulk=*/true);
}
BENCHMARK(BM_TrackerSparseStepBulk);

void BM_EarliestPending(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  CommStats stats;
  NetworkSpec spec;
  spec.delay = 4;
  spec.jitter = 8;
  Network net(n, &stats, spec, 99);
  Message m;
  m.kind = MsgKind::kRoundBeacon;
  // Realistic scheduled-mode state: several broadcasts in flight across
  // all n+1 queues.
  for (int b = 0; b < 4; ++b) net.coord_broadcast(m);
  for (auto _ : state) {
    benchmark::DoNotOptimize(net.earliest_pending());
  }
}
BENCHMARK(BM_EarliestPending)->Arg(64)->Arg(1024);

/// Paired cost of one observation step through the two-tier sharded
/// deployment: c = 1 (inert root — message-for-message the monolithic
/// single-coordinator path) versus c = 8 shard coordinators under the
/// root filter layer. n = 65536, k = 32, 1% of nodes drift per step —
/// e18's regime, so the delta between the two args is the sharding
/// subsystem's per-step overhead (root tier + per-shard routing).
void BM_ShardMergeStep(benchmark::State& state) {
  const auto shards = static_cast<std::size_t>(state.range(0));
  constexpr std::size_t kN = 65536;
  constexpr std::size_t kK = 32;
  ShardedSpec spec;
  spec.n = kN;
  spec.k = kK;
  spec.shards = shards;
  spec.seed = 7;
  ShardedDeployment dep(spec);
  Rng rng(11);
  std::vector<Value> values(kN);
  for (NodeId i = 0; i < kN; ++i) {
    values[i] = static_cast<Value>(rng.uniform_below(100'000'000));
    dep.set_value(i, values[i]);
  }
  dep.initialize();
  std::vector<NodeId> changed(kN / 100);
  TimeStep t = 0;
  for (auto _ : state) {
    for (auto& id : changed) {
      id = static_cast<NodeId>(rng.uniform_below(kN));
      values[id] += rng.uniform_int(-64, 64);
      dep.set_value(id, values[id]);
    }
    dep.step(++t, changed);
    benchmark::DoNotOptimize(dep.topk().size());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(changed.size()));
}
BENCHMARK(BM_ShardMergeStep)->Arg(1)->Arg(8)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace topkmon

namespace topkmon::bench {
namespace {

TOPKMON_SUITE(micro, "google-benchmark CPU microbenchmarks") {
  ctx.out() << "micro: google-benchmark CPU throughput\n\n";
  int argc = 1;
  char arg0[] = "topkmon_bench";
  char* argv[] = {arg0, nullptr};
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
}

}  // namespace
}  // namespace topkmon::bench

#else  // !TOPKMON_HAVE_BENCHMARK

namespace topkmon::bench {
namespace {

TOPKMON_SUITE(micro, "google-benchmark CPU microbenchmarks (unavailable)") {
  ctx.out() << "micro: google-benchmark was not found at build time; "
               "install libbenchmark-dev and reconfigure to enable this "
               "suite.\n";
}

}  // namespace
}  // namespace topkmon::bench

#endif  // TOPKMON_HAVE_BENCHMARK
