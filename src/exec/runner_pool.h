// Parallel execution of independent simulation runs.
//
// The paper's evaluation aggregates hundreds of independent experiments —
// Fig 13-19 parameter sweeps, reliability soaks over months of simulated
// time, 500-run fuzz batches — and every one of them is a self-contained
// (topology, Simulator, workload) triple with no shared mutable state.
// RunnerPool exploits exactly that shape: a work-stealing thread pool that
// executes N indexed tasks ("run simulation i") across `jobs` workers and
// hands results back *by index*, so aggregation order — table rows, CSV
// bytes, failure reports — is a function of the task list alone, never of
// thread interleaving. `--jobs 8` must be byte-identical to `--jobs 1`.
//
// Scheduling: each worker owns a deque seeded round-robin at batch start;
// owners pop their lowest index from the front, idle workers steal from the
// back of a victim's deque. Tasks here are whole simulations (micro- to
// multi-second scale), so a mutex per deque costs nothing measurable and
// keeps the pool trivially ThreadSanitizer-clean.
//
// Error handling: a task that throws cancels the not-yet-started remainder
// of the batch, and for_each() rethrows the recorded exception with the
// LOWEST task index once the batch settles — again independent of which
// worker saw it first. cancel() skips un-started tasks cooperatively;
// running tasks always finish (a Simulator cannot be interrupted midway
// without losing determinism).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <thread>
#include <type_traits>
#include <vector>

namespace hpn::exec {

class RunnerPool {
 public:
  /// Spawns `jobs` worker threads (clamped to >= 1). The pool is reusable:
  /// batches submitted through for_each()/map() run back to back.
  explicit RunnerPool(int jobs);
  ~RunnerPool();
  RunnerPool(const RunnerPool&) = delete;
  RunnerPool& operator=(const RunnerPool&) = delete;

  [[nodiscard]] int jobs() const { return jobs_; }

  /// Run `fn(0) .. fn(count-1)`, blocking until every task has either run
  /// or been skipped by cancel(). Returns true when all `count` tasks ran.
  /// If any task threw, the exception from the lowest-indexed failing task
  /// is rethrown here after the batch settles. Concurrent calls serialize.
  bool for_each(std::size_t count, const std::function<void(std::size_t)>& fn);

  /// for_each() collecting `fn(i)` into a vector ordered by task index —
  /// the deterministic-aggregation primitive sweeps are built on. Throws
  /// if the batch was cancelled before every slot was filled.
  template <typename Fn>
  auto map(std::size_t count, Fn&& fn)
      -> std::vector<std::invoke_result_t<Fn&, std::size_t>> {
    using R = std::invoke_result_t<Fn&, std::size_t>;
    std::vector<std::optional<R>> slots(count);
    const bool complete =
        for_each(count, [&](std::size_t i) { slots[i].emplace(fn(i)); });
    if (!complete) {
      throw std::runtime_error{"RunnerPool::map: batch cancelled before completion"};
    }
    std::vector<R> out;
    out.reserve(count);
    for (auto& s : slots) out.push_back(std::move(*s));
    return out;
  }

  /// Cooperatively skip tasks that have not started yet. In-flight tasks
  /// run to completion. Cleared at the start of the next batch.
  void cancel() { cancel_.store(true, std::memory_order_relaxed); }
  [[nodiscard]] bool cancel_requested() const {
    return cancel_.load(std::memory_order_relaxed);
  }

 private:
  /// One per worker. Owner pops front (ascending index); thieves pop back.
  struct WorkQueue {
    std::mutex mu;
    std::deque<std::size_t> tasks;
  };

  void worker_loop(int self);
  bool acquire(int self, std::size_t& out);
  void finish_one();

  const int jobs_;
  std::vector<std::unique_ptr<WorkQueue>> queues_;
  std::vector<std::thread> threads_;

  std::mutex run_mu_;  ///< Serializes whole batches (for_each callers).

  std::mutex batch_mu_;
  std::condition_variable work_cv_;  ///< Workers wait here between batches.
  std::condition_variable done_cv_;  ///< for_each() waits here for settle.
  std::uint64_t batch_gen_ = 0;  ///< Bumped per batch once seeded (guarded by batch_mu_).
  bool shutdown_ = false;

  /// Published with release ordering before queues are seeded; workers load
  /// it per task, so a worker that tails into the next batch still calls
  /// the right function.
  std::atomic<const std::function<void(std::size_t)>*> batch_fn_{nullptr};
  std::atomic<std::size_t> unfinished_{0};
  std::atomic<std::size_t> skipped_{0};
  std::atomic<bool> cancel_{false};

  std::mutex err_mu_;
  std::size_t first_error_index_ = 0;
  std::exception_ptr first_error_;
};

/// One-shot convenience: pool, map, join. `jobs == 1` is the reference
/// serial order every other job count must reproduce.
template <typename Fn>
auto parallel_map(int jobs, std::size_t count, Fn&& fn) {
  RunnerPool pool{jobs};
  return pool.map(count, std::forward<Fn>(fn));
}

}  // namespace hpn::exec
