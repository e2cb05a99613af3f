// Parallel execution engine for experiment sweeps.
//
// SweepRunner owns a persistent pool of worker threads and exposes two
// levels of API:
//
//   * parallel_for(count, fn) / map<T>(count, fn) — generic ordered
//     fan-out; jobs are claimed dynamically (atomic counter), results land
//     at their own index, so the output order is independent of thread
//     scheduling.
//   * run(trials) — runs Scenarios (e.g. an expanded SweepGrid) through
//     run_scenario and returns their RunResults in order.
//
// Each trial owns its own RNG seed (derived from grid coordinates, see
// sweep_grid.hpp) and builds its own cluster/streams, so parallel runs are
// bit-identical to serial runs. With jobs() == 1 everything executes
// inline on the calling thread.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "core/runner.hpp"
#include "exp/scenario.hpp"

namespace topkmon::exp {

class SweepRunner {
 public:
  /// Upper bound on `jobs`: far above any core count a sweep can use,
  /// far below the thread count at which the OS starts refusing.
  static constexpr std::size_t kMaxJobs = 256;

  /// `jobs` worker threads; 0 means std::thread::hardware_concurrency()
  /// (capped at kMaxJobs). With jobs == 1 no threads are spawned and work
  /// runs inline. Throws std::invalid_argument, before starting any
  /// thread, when jobs > kMaxJobs. If the OS refuses a thread, the ones
  /// already started are shut down and joined before the error
  /// propagates.
  explicit SweepRunner(std::size_t jobs = 0);
  ~SweepRunner();

  SweepRunner(const SweepRunner&) = delete;
  SweepRunner& operator=(const SweepRunner&) = delete;

  std::size_t jobs() const noexcept { return jobs_; }

  /// Runs fn(i) for every i in [0, count), spread across the pool; blocks
  /// until all iterations finished. The first exception thrown by any
  /// iteration is rethrown on the calling thread (remaining iterations
  /// are drained, not cancelled mid-flight).
  void parallel_for(std::size_t count,
                    const std::function<void(std::size_t)>& fn);

  /// Ordered parallel map: out[i] = fn(i). T must be default-constructible.
  template <typename T, typename Fn>
  std::vector<T> map(std::size_t count, Fn&& fn) {
    std::vector<T> out(count);
    parallel_for(count, [&](std::size_t i) { out[i] = fn(i); });
    return out;
  }

  /// Runs every scenario through run_scenario and returns the results in
  /// the order of `trials`.
  std::vector<RunResult> run(const std::vector<Scenario>& trials);

 private:
  /// Stops and joins every started worker thread.
  void shutdown();
  void worker_loop();
  void drain_batch(std::uint64_t batch);

  std::size_t jobs_;
  std::vector<std::thread> workers_;

  // Current batch, guarded by mutex_ / signalled via cv_work_ and cv_done_.
  std::mutex mutex_;
  std::condition_variable cv_work_;
  std::condition_variable cv_done_;
  const std::function<void(std::size_t)>* batch_fn_ = nullptr;
  std::size_t batch_count_ = 0;
  std::size_t next_index_ = 0;
  std::size_t remaining_ = 0;
  std::uint64_t batch_id_ = 0;
  std::exception_ptr first_error_;
  bool shutdown_ = false;
};

}  // namespace topkmon::exp
