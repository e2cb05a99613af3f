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

#include <algorithm>
#include <chrono>

#include "core/frame_kernels.hpp"
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
    const exp::RolePair pair = exp::make_role_pair(c, "recompute", 1);
    SimDriver driver(c, *pair.coordinator, pair.nodes);
    state.ResumeTiming();
    // One MAXIMUMPROTOCOL(n) session: recompute with k = 1 convenes
    // exactly one in initialize().
    driver.initialize();
    benchmark::DoNotOptimize(pair.coordinator->topk().data());
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

/// One activity-driven step of n sparse random walks at rate 0.01 (the
/// sharded_sparse workload's stream): advance_all_active visits the due
/// stride of n / 100 ids in the SparseBank (state.range: n). `movers`
/// counts the changed ids per step.
void BM_StreamSetAdvanceActive(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  StreamSpec spec;
  spec.family = StreamFamily::kSparse;
  spec.sparse.rate = 0.01;
  spec.sparse_inner = StreamFamily::kRandomWalk;
  spec.walk.hi = 100'000'000;
  spec.walk.max_step = 64;
  auto streams = make_stream_set(spec, n, 13);
  std::vector<Value> values(n, 0);
  std::vector<NodeId> changed;
  changed.reserve(n);
  streams.advance_all_active(values, changed);  // the initial full draw
  std::int64_t movers = 0;
  for (auto _ : state) {
    streams.advance_all_active(values, changed);
    movers += static_cast<std::int64_t>(changed.size());
    benchmark::DoNotOptimize(values.data());
    benchmark::ClobberMemory();
  }
  state.counters["movers"] = benchmark::Counter(
      static_cast<double>(movers), benchmark::Counter::kAvgIterations);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_StreamSetAdvanceActive)->Arg(16384)->Arg(65536);

/// The dense step's stream call on 4096 walks: advance_all_masked, the
/// values plus the change mask, through `bank`.
void run_masked_advance(benchmark::State& state, StreamBank& bank) {
  const std::size_t n = bank.size();
  std::vector<Value> values(n, 0);
  std::vector<std::uint64_t> mask((n + 63) / 64);
  for (auto _ : state) {
    bank.advance_all_masked(values, mask);
    benchmark::DoNotOptimize(values.data());
    benchmark::DoNotOptimize(mask.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}

/// The masked whole-set step through one kernel variant (registered
/// below as BM_WalkKernel/<variant> for each variant the host CPU
/// supports), so one binary shows the vectorization gain per ISA.
void BM_WalkKernel(benchmark::State& state, WalkKernel kernel) {
  StreamSpec spec;
  spec.family = StreamFamily::kRandomWalk;
  auto bank = make_walk_bank(spec, 4096, 13);
  bank->set_kernel(kernel);
  run_masked_advance(state, *bank);
}

/// One node's walk exactly as RandomWalkStream draws it, with next()
/// inline: the per-node stream objects the column bank replaced.
class InlineWalk final : public Stream {
 public:
  InlineWalk(const RandomWalkParams& p, Rng rng)
      : p_(p), rng_(rng), current_(p.start) {}
  Value next() override {
    current_ = reflect_into(
        current_ + rng_.uniform_int(-p_.max_step, p_.max_step), p_.lo, p_.hi);
    return current_;
  }

 private:
  RandomWalkParams p_;
  Rng rng_;
  Value current_;
};

/// The same 4096 walks as per-node stream objects stored by value
/// (TypedBank<InlineWalk>, next() inlined, the compare fallback's mask):
/// the reference BM_WalkKernel/baseline is judged against.
void BM_WalkPerNodeStreams(benchmark::State& state) {
  constexpr std::size_t kN = 4096;
  std::vector<InlineWalk> walks;
  const Rng root(13);
  for (NodeId id = 0; id < kN; ++id) {
    RandomWalkParams p;
    p.start = static_cast<Value>(id) * 200;
    walks.emplace_back(p, root.derive(id));
  }
  TypedBank<InlineWalk> bank(std::move(walks), /*distinct=*/false);
  run_masked_advance(state, bank);
}
BENCHMARK(BM_WalkPerNodeStreams);

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

/// The driver's step when `percent`% of 4096 filter nodes move by 8 (a
/// fixed random subset, alternating up and down) and none leaves its
/// filter: the changed-id list through step(t, ids) (state.range(1) ==
/// 0) versus the frame's mask through step_masked (== 1). The density at
/// which the mask starts to win is the range pass's crossover.
void BM_DriverStepDensity(benchmark::State& state) {
  constexpr std::size_t kN = 4096;
  const auto percent = static_cast<std::size_t>(state.range(0));
  const bool masked = state.range(1) != 0;
  Cluster cluster(kN, 7);
  for (NodeId id = 0; id < kN; ++id) {
    cluster.set_value(id, 1000 * static_cast<Value>(id));
  }
  std::vector<NodeId> changed;
  IdBitset mask(kN);
  Rng rng(3);
  for (NodeId id = 0; id < kN; ++id) {
    if (rng.uniform_below(100) < percent) {
      changed.push_back(id);
      mask.set(id);
    }
  }
  auto pair = exp::make_role_pair(cluster, "topk_filter?nobeacon", 8);
  SimDriver driver(cluster, *pair.coordinator, pair.nodes);
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
    if (masked) {
      driver.step_masked(t, mask);
    } else {
      driver.step(t, changed);
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kN));
}
BENCHMARK(BM_DriverStepDensity)
    ->ArgsProduct({{1, 3, 6, 12, 25, 50, 100}, {0, 1}});

/// The range pass alone over 4096 in-range nodes that all moved, through
/// one ISA level (registered below as BM_DriverRangePass/<level> for
/// each level the host runs).
void BM_DriverRangePass(benchmark::State& state, IsaLevel isa) {
  constexpr std::size_t kN = 4096;
  std::vector<Value> values(kN);
  std::vector<QuietRange> quiet(kN);
  for (std::size_t i = 0; i < kN; ++i) {
    values[i] = static_cast<Value>(1000 * i);
    quiet[i] = QuietRange{values[i] - 500, values[i] + 500};
  }
  IdBitset changed(kN);
  changed.set_all();
  IdBitset needs(kN);
  for (auto _ : state) {
    mark_out_of_range(isa, values, quiet, changed.words(), {},
                      needs.mutable_words());
    benchmark::DoNotOptimize(needs.words().data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kN));
}

[[maybe_unused]] const bool kRangePassesRegistered = [] {
  for (const IsaLevel isa : host_isa_levels()) {
    const std::string name =
        "BM_DriverRangePass/" + std::string(isa_name(isa));
    benchmark::RegisterBenchmark(name.c_str(), BM_DriverRangePass, isa);
  }
  return true;
}();

/// One walk_strict-shaped observation step (n filter nodes on random
/// walks 24414 apart, k = 8), in the two shapes the run loop has had.
/// Frame (`masked`): the walk kernel's masked pass, the cluster's bulk
/// value fill, the driver's frame step and the tracker's mask update.
/// Id list: advance_all plus a scalar previous-value compare, per-id
/// cluster writes, the tracker's id-list batch and step(t, ids). Both
/// end with the ground-truth query.
void run_dense_step(benchmark::State& state, bool masked) {
  const auto n = static_cast<std::size_t>(state.range(0));
  StreamSpec spec;
  spec.family = StreamFamily::kRandomWalk;
  spec.walk.hi = 100'000'000;
  auto streams = make_stream_set(spec, n, 5);
  Cluster cluster(n, 5);
  auto pair = exp::make_role_pair(cluster, "topk_filter", 8);
  SimDriver driver(cluster, *pair.coordinator, pair.nodes);
  GroundTruthTracker truth(n, 8);
  std::vector<Value> values(n, 0), incoming(n);
  std::vector<NodeId> changed;
  changed.reserve(n);
  IdBitset moved(n);
  const auto observe = [&] {
    if (masked) {
      streams.advance_all_masked(values, moved);
      cluster.set_up_values(values);
      truth.set_values_masked(moved, values);
      return;
    }
    streams.advance_all(incoming);
    changed.clear();
    for (NodeId id = 0; id < n; ++id) {
      if (incoming[id] != values[id]) changed.push_back(id);
    }
    values.swap(incoming);
    for (const NodeId id : changed) cluster.set_value(id, values[id]);
    truth.set_values(changed, values);
  };
  cluster.stats().begin_step(0);
  observe();
  driver.initialize();
  benchmark::DoNotOptimize(truth.topk_set());
  TimeStep t = 0;
  for (auto _ : state) {
    ++t;
    cluster.stats().begin_step(t);
    observe();
    if (masked) {
      driver.step_masked(t, moved);
    } else {
      driver.step(t, changed);
    }
    benchmark::DoNotOptimize(truth.topk_set());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}

void BM_DenseStepFrame(benchmark::State& state) {
  run_dense_step(state, /*masked=*/true);
}
BENCHMARK(BM_DenseStepFrame)->Arg(4096);

void BM_DenseStepIdList(benchmark::State& state) {
  run_dense_step(state, /*masked=*/false);
}
BENCHMARK(BM_DenseStepIdList)->Arg(4096);

/// The transport's share of one naive step: 1024 nodes each send one
/// upstream report, then the step's ticks run (one under `instant`, the
/// spec's tick budget otherwise), each followed by a coordinator drain.
/// Reports the send half and the tick+drain half per message.
void BM_UpstreamBurst(benchmark::State& state, const char* spec_text) {
  using Clock = std::chrono::steady_clock;
  constexpr std::size_t kN = 1024;
  const NetworkSpec spec = parse_network_spec(spec_text);
  const std::uint64_t ticks = std::max<std::uint64_t>(spec.ticks_per_step, 1);
  CommStats stats;
  Network net(kN, &stats, spec, 5);
  Message m;
  m.kind = MsgKind::kValueReport;
  std::vector<Message> buf;
  Clock::duration send{};
  Clock::duration tick_drain{};
  for (auto _ : state) {
    const auto t0 = Clock::now();
    for (NodeId id = 0; id < kN; ++id) {
      m.a = id;
      net.node_send(id, m);
    }
    const auto t1 = Clock::now();
    for (std::uint64_t t = 0; t < ticks; ++t) {
      net.advance_clock();
      net.drain_coordinator(buf);
      benchmark::DoNotOptimize(buf.data());
    }
    send += t1 - t0;
    tick_drain += Clock::now() - t1;
  }
  const double msgs = static_cast<double>(state.iterations()) * kN;
  const auto ns = [&](Clock::duration d) {
    return std::chrono::duration<double, std::nano>(d).count() / msgs;
  };
  state.counters["send_ns_per_msg"] = ns(send);
  state.counters["tick_drain_ns_per_msg"] = ns(tick_drain);
  state.SetItemsProcessed(static_cast<std::int64_t>(msgs));
}
BENCHMARK_CAPTURE(BM_UpstreamBurst, TransportInstant, "instant");
BENCHMARK_CAPTURE(BM_UpstreamBurst, TransportSched, "delay=2,jitter=4,ticks=8");

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
enum class TrackerWrite { kPerId, kBulk, kMask };

void run_tracker_step(benchmark::State& state, std::size_t n,
                      std::size_t moved, TrackerWrite write) {
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
  std::vector<IdBitset> masks(kBankSteps, IdBitset(n));
  for (std::size_t s = 0; s < kBankSteps; ++s) {
    for (std::size_t j = 0; j < moved; ++j) {
      ids[s].push_back(moved == n ? static_cast<NodeId>(j)
                                  : static_cast<NodeId>(rng.uniform_below(n)));
      deltas[s].push_back(rng.uniform_int(-8, 8));
      masks[s].set(ids[s].back());
    }
  }
  benchmark::DoNotOptimize(tracker.topk_set());
  std::size_t s = 0;
  for (auto _ : state) {
    const auto& step_ids = ids[s];
    for (std::size_t j = 0; j < moved; ++j) {
      values[step_ids[j]] += deltas[s][j];
    }
    switch (write) {
      case TrackerWrite::kPerId:
        for (const NodeId id : step_ids) tracker.set_value(id, values[id]);
        break;
      case TrackerWrite::kBulk:
        tracker.set_values(step_ids, values);
        break;
      case TrackerWrite::kMask:
        tracker.set_values_masked(masks[s], values);
        break;
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
  run_tracker_step(state, 4096, 4096, TrackerWrite::kPerId);
}
BENCHMARK(BM_TrackerWalkStep);

/// The same step as one set_values batch: the one-sweep schedule.
void BM_TrackerWalkStepBulk(benchmark::State& state) {
  run_tracker_step(state, 4096, 4096, TrackerWrite::kBulk);
}
BENCHMARK(BM_TrackerWalkStepBulk);

/// The same step as the dense frame's mask: k member bit tests, a
/// word-wise blend of the column, the same sweep.
void BM_TrackerWalkStepMask(benchmark::State& state) {
  run_tracker_step(state, 4096, 4096, TrackerWrite::kMask);
}
BENCHMARK(BM_TrackerWalkStepMask);

/// A sparse step, n = 16384 with 1% of the ids moving: per-id updates
/// versus a batch below the n / 8 cut-over, which must cost the same.
void BM_TrackerSparseStep(benchmark::State& state) {
  run_tracker_step(state, 16384, 164, TrackerWrite::kPerId);
}
BENCHMARK(BM_TrackerSparseStep);

void BM_TrackerSparseStepBulk(benchmark::State& state) {
  run_tracker_step(state, 16384, 164, TrackerWrite::kBulk);
}
BENCHMARK(BM_TrackerSparseStepBulk);

/// The tracker's cut-over on n = 4096 (state.range(0): ids drawn per
/// step, repeats possible, as a percentage of n) through per-id
/// set_value (state.range(1) == 0) or the mask (== 1), which switches
/// from per-id calls to the sweep at n / 8 set bits.
void BM_TrackerStepDensity(benchmark::State& state) {
  const auto moved = static_cast<std::size_t>(state.range(0)) * 4096 / 100;
  run_tracker_step(state, 4096, moved,
                   state.range(1) != 0 ? TrackerWrite::kMask
                                       : TrackerWrite::kPerId);
}
BENCHMARK(BM_TrackerStepDensity)
    ->ArgsProduct({{6, 10, 14, 20, 30}, {0, 1}});

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
/// deployment: c = 2 (the fewest shards it builds) versus c = 8 shard
/// coordinators under the root filter layer. n = 65536, k = 32, 1% of
/// nodes drift per step — e18's regime, so the delta between the two
/// args is what six more shards cost per step (root-tier crossing polls
/// and per-shard routing).
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
BENCHMARK(BM_ShardMergeStep)->Arg(2)->Arg(8)->Unit(benchmark::kMillisecond);

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
