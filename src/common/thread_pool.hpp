// Fixed-size worker pool for the parallel seed-subset search (DESIGN.md
// §7): threads are spawned once, tasks are plain std::function<void()>
// closures, and wait_idle() is the only synchronization point callers
// need — it blocks until every submitted task finished and rethrows the
// first exception any task raised (AuditError and ContractError must not
// die silently on a worker).
//
// Deliberately minimal: no futures, no task priorities, no work stealing.
// The solver's unit of work (one seed subset) is coarse enough that a
// single mutex-protected queue never becomes the bottleneck, and the
// deterministic reduction happens in caller code after wait_idle().
#pragma once

#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <thread>
#include <vector>

#include "common/sync.hpp"

namespace uavcov {

class ThreadPool {
 public:
  /// Spawns exactly `thread_count` workers (must be >= 1; use resolve()
  /// to map a user-facing "0 = all cores" knob to a concrete count).
  explicit ThreadPool(std::int32_t thread_count);

  /// Joins all workers; pending tasks are still executed first.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::int32_t size() const {
    return static_cast<std::int32_t>(threads_.size());
  }

  /// Enqueue one task.  Never blocks (the queue is unbounded).
  void submit(std::function<void()> task) UAVCOV_EXCLUDES(mu_);

  /// Block until the queue is drained and every worker is idle.  If any
  /// task threw, rethrows the *first* such exception (later ones are
  /// dropped); the pool stays usable afterwards.
  void wait_idle() UAVCOV_EXCLUDES(mu_);

  /// Map the ApproAlgParams::threads convention to a worker count:
  /// 0 → hardware concurrency (at least 1), otherwise the request itself.
  /// Negative requests are the caller's validation problem, not ours.
  static std::int32_t resolve(std::int32_t requested);

 private:
  void worker_loop() UAVCOV_EXCLUDES(mu_);

  std::vector<std::thread> threads_;  // written only by ctor/dtor
  sync::Mutex mu_;
  sync::CondVar task_ready_;  // signals workers
  sync::CondVar all_idle_;    // signals wait_idle()
  std::deque<std::function<void()>> queue_ UAVCOV_GUARDED_BY(mu_);
  std::int32_t active_ UAVCOV_GUARDED_BY(mu_) = 0;  // tasks executing now
  bool stopping_ UAVCOV_GUARDED_BY(mu_) = false;
  std::exception_ptr first_error_ UAVCOV_GUARDED_BY(mu_);
};

}  // namespace uavcov
