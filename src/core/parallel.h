// The one worker pool, shared by the trial runner (core/run_trials.cc), the
// island executor (core/experiment.cc) and the fleet engine
// (fleet/engine.cc).
//
// The contract every caller relies on: the task for index i is fixed, only
// the assignment of indices to threads is dynamic, and results are written
// into index-addressed slots — so a parallel run is bit-identical to the
// serial loop over 0..count-1.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <exception>
#include <mutex>
#include <system_error>
#include <thread>
#include <vector>

namespace lrs::core {

/// Worker-thread count used when a `jobs` parameter is 0. On a pool worker
/// it is that worker's thread budget (see parallel_for); elsewhere the
/// LRS_JOBS environment variable if set to a positive integer, else
/// std::thread::hardware_concurrency() (minimum 1).
std::size_t default_jobs();

namespace detail {

/// Thread budget of the calling thread while it runs a parallel_for task;
/// 0 outside the pool.
inline thread_local std::size_t worker_budget = 0;

/// Sets the calling thread's budget for one scope.
class BudgetScope {
 public:
  explicit BudgetScope(std::size_t budget) : saved_(worker_budget) {
    worker_budget = budget;
  }
  ~BudgetScope() { worker_budget = saved_; }
  BudgetScope(const BudgetScope&) = delete;
  BudgetScope& operator=(const BudgetScope&) = delete;

 private:
  std::size_t saved_;
};

}  // namespace detail

/// Runs fn(i) for every i in [0, count) on up to `jobs` threads (0 =
/// default_jobs()), the caller's thread included. Workers take the next
/// index from one atomic cursor; every task here is a whole simulation, so
/// that alone keeps them evenly loaded.
///
/// `jobs` bounds every thread the call creates, nested pools included:
/// worker w runs its tasks with a budget of its share of `jobs` (at least
/// 1), a nested parallel_for on it is capped at that budget, and
/// default_jobs() there returns it. A single worker (workers <= 1) runs a
/// plain serial loop with the whole budget, so one task can still fan out
/// to all `jobs` threads.
///
/// The first exception is rethrown on the caller's thread after every
/// worker has joined; the other tasks still run.
template <typename Fn>
void parallel_for(std::size_t count, std::size_t jobs, const Fn& fn) {
  if (count == 0) return;
  const std::size_t budget = detail::worker_budget;
  if (jobs == 0 || (budget != 0 && jobs > budget)) jobs = default_jobs();
  const std::size_t workers = std::min(jobs, count);
  if (workers <= 1) {
    const detail::BudgetScope scope(jobs);
    for (std::size_t i = 0; i < count; ++i) fn(i);
    return;
  }

  std::atomic<std::size_t> next{0};
  std::mutex err_mu;
  std::exception_ptr err;
  auto worker = [&](std::size_t w) {
    const detail::BudgetScope scope(jobs / workers +
                                    (w < jobs % workers ? 1 : 0));
    for (std::size_t i; (i = next.fetch_add(1, std::memory_order_relaxed)) <
                        count;) {
      try {
        fn(i);
      } catch (...) {
        const std::lock_guard<std::mutex> lock(err_mu);
        if (!err) err = std::current_exception();
      }
    }
  };

  std::vector<std::thread> threads;
  threads.reserve(workers - 1);
  try {
    for (std::size_t w = 1; w < workers; ++w) threads.emplace_back(worker, w);
  } catch (const std::system_error&) {
    // A thread that cannot start leaves its indices to the running workers:
    // the cursor hands every index to whoever asks next.
  }
  worker(0);
  for (auto& t : threads) t.join();
  if (err) std::rethrow_exception(err);
}

}  // namespace lrs::core
