// Parallel execution of independent simulation trials.
//
// Every figure bench averages `runs` independent seeded Worlds per
// parameter point. A World is single-threaded and shares nothing with
// other Worlds, so the trials are embarrassingly parallel: TrialPool
// fans them out over a fixed set of worker threads while keeping every
// observable output deterministic. Tasks may execute in any order, but
// map_fold hands their results to the aggregation in submission order,
// so the bench output is byte-identical for any --jobs value
// (including 1).
//
// Tasks must not touch shared mutable state; the first exception a task
// throws is captured and rethrown from wait().
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <map>
#include <mutex>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace croupier::exp {

/// Fixed-size worker pool for share-nothing trial closures.
class TrialPool {
 public:
  /// jobs = 0 selects std::thread::hardware_concurrency() (at least 1).
  explicit TrialPool(std::size_t jobs = 0);
  ~TrialPool();

  TrialPool(const TrialPool&) = delete;
  TrialPool& operator=(const TrialPool&) = delete;

  /// Number of worker threads.
  [[nodiscard]] std::size_t jobs() const { return workers_.size(); }

  /// Enqueues a task. May be called from the submitting thread only.
  void submit(std::function<void()> task);

  /// Blocks until every submitted task has finished, then rethrows the
  /// first task exception, if any.
  void wait();

  /// Runs `count` indexed trials and hands each result to
  /// `fold(i, std::move(result))` exactly once, in strict index order
  /// (0, 1, 2, ...), then frees it — so at no point are more than ~2x
  /// jobs() results resident, however large `count` is. Folding
  /// in index order is what keeps aggregation byte-identical for every
  /// --jobs value. Out-of-order completions wait in a reorder buffer;
  /// a worker does not *start* trial i until i < fold-cursor + 2*jobs()
  /// (backpressure), so one slow early trial cannot make the buffer
  /// absorb the whole grid. No deadlock is possible: tasks are picked up
  /// FIFO, so the cursor's own trial is always running, never gated.
  ///
  /// `fn(i)` is invoked concurrently from the workers, so it must be
  /// thread-safe (the bench closures only read captured configs and
  /// build their own World, which is). The result type must be
  /// default-constructible and movable. `fold` runs under the pool's
  /// fold lock (on whichever worker completed the gating trial), so it
  /// may touch shared accumulators without extra locking but should stay
  /// cheap. If any trial throws, waiting trials are abandoned (wait()
  /// rethrows the first error anyway).
  template <typename Fn, typename FoldFn>
  void map_fold(std::size_t count, Fn&& fn, FoldFn&& fold) {
    using R = std::decay_t<decltype(fn(std::size_t{}))>;
    struct FoldState {
      std::mutex mu;
      std::condition_variable admit;
      std::map<std::size_t, R> ready;  // completed, not yet folded
      std::size_t next = 0;            // fold cursor
      bool failed = false;
    } state;
    const std::size_t window = 2 * jobs();
    for (std::size_t i = 0; i < count; ++i) {
      submit([&state, &fn, &fold, i, window] {
        {
          std::unique_lock<std::mutex> lock(state.mu);
          state.admit.wait(lock, [&state, i, window] {
            return state.failed || i < state.next + window;
          });
          if (state.failed) return;
        }
        R result;
        try {
          result = fn(i);
        } catch (...) {
          const std::lock_guard<std::mutex> lock(state.mu);
          state.failed = true;
          state.admit.notify_all();
          throw;
        }
        const std::lock_guard<std::mutex> lock(state.mu);
        state.ready.emplace(i, std::move(result));
        try {
          while (!state.ready.empty() &&
                 state.ready.begin()->first == state.next) {
            fold(state.next, std::move(state.ready.begin()->second));
            state.ready.erase(state.ready.begin());
            ++state.next;
          }
        } catch (...) {
          state.failed = true;  // a stuck cursor must not strand waiters
          state.admit.notify_all();
          throw;
        }
        state.admit.notify_all();
      });
    }
    wait();
  }

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::mutex mu_;
  std::condition_variable work_ready_;
  std::condition_variable all_idle_;
  std::deque<std::function<void()>> queue_;  // guarded by mu_
  std::size_t active_ = 0;                   // guarded by mu_
  bool stopping_ = false;                    // guarded by mu_
  std::exception_ptr first_error_;           // guarded by mu_
};

}  // namespace croupier::exp
