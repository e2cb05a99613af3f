#include "exp/sweep_runner.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace topkmon::exp {

SweepRunner::SweepRunner(std::size_t jobs) : jobs_(jobs) {
  if (jobs_ > kMaxJobs) {
    throw std::invalid_argument("SweepRunner: jobs " + std::to_string(jobs_) +
                                " exceeds the maximum of " +
                                std::to_string(kMaxJobs));
  }
  if (jobs_ == 0) {
    jobs_ = std::clamp<std::size_t>(std::thread::hardware_concurrency(), 1,
                                    kMaxJobs);
  }
  // Workers beyond the calling thread; jobs == 1 stays purely inline.
  workers_.reserve(jobs_ - 1);
  try {
    for (std::size_t i = 1; i < jobs_; ++i) {
      workers_.emplace_back([this] { worker_loop(); });
    }
  } catch (...) {
    // The destructor does not run for a throwing constructor, and a
    // joinable std::thread destroyed unjoined calls std::terminate.
    shutdown();
    throw;
  }
}

SweepRunner::~SweepRunner() { shutdown(); }

void SweepRunner::shutdown() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    shutdown_ = true;
  }
  cv_work_.notify_all();
  for (auto& w : workers_) w.join();
}

void SweepRunner::drain_batch(std::uint64_t batch) {
  // Claim one index at a time; stop as soon as the batch is exhausted or a
  // newer batch replaced it (a straggler must never claim indices that
  // belong to a batch it did not see). Trials are coarse-grained, so the
  // per-claim lock is noise next to the simulation work.
  for (;;) {
    std::size_t i;
    const std::function<void(std::size_t)>* fn;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (batch_id_ != batch || next_index_ >= batch_count_) return;
      i = next_index_++;
      fn = batch_fn_;
    }
    try {
      (*fn)(i);
    } catch (...) {
      std::lock_guard<std::mutex> lock(mutex_);
      if (!first_error_) first_error_ = std::current_exception();
    }
    std::lock_guard<std::mutex> lock(mutex_);
    if (--remaining_ == 0) cv_done_.notify_all();
  }
}

void SweepRunner::parallel_for(std::size_t count,
                               const std::function<void(std::size_t)>& fn) {
  if (count == 0) return;

  std::uint64_t batch;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    batch_fn_ = &fn;
    batch_count_ = count;
    next_index_ = 0;
    remaining_ = count;
    first_error_ = nullptr;
    batch = ++batch_id_;
  }
  cv_work_.notify_all();

  drain_batch(batch);  // the calling thread participates

  std::unique_lock<std::mutex> lock(mutex_);
  cv_done_.wait(lock, [&] { return remaining_ == 0; });
  batch_fn_ = nullptr;
  if (first_error_) {
    auto err = first_error_;
    first_error_ = nullptr;
    lock.unlock();
    std::rethrow_exception(err);
  }
}

void SweepRunner::worker_loop() {
  std::uint64_t seen_batch = 0;
  for (;;) {
    std::uint64_t batch;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_work_.wait(lock, [&] {
        return shutdown_ || (batch_fn_ != nullptr && batch_id_ != seen_batch);
      });
      if (shutdown_) return;
      seen_batch = batch = batch_id_;
    }
    drain_batch(batch);
  }
}

std::vector<RunResult> SweepRunner::run(const std::vector<Scenario>& trials) {
  std::vector<RunResult> results(trials.size());
  parallel_for(trials.size(),
               [&](std::size_t i) { results[i] = run_scenario(trials[i]); });
  return results;
}

}  // namespace topkmon::exp
