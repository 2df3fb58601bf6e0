#include "common/thread_pool.hpp"

#include <utility>

#include "common/check.hpp"
#include "obs/metrics.hpp"

namespace uavcov {

namespace {

/// Pool metrics (docs/OBSERVABILITY.md): queue depth is sampled at every
/// submit/dequeue (the gauge's high-water mark is the interesting part);
/// task latency is recorded by the executing worker into its own shard.
struct PoolMetrics {
  obs::Gauge queue_depth = obs::gauge("common.thread_pool.queue_depth");
  obs::Counter tasks = obs::counter("common.thread_pool.tasks");
  obs::Histogram task_seconds =
      obs::histogram("common.thread_pool.task_seconds");
};

const PoolMetrics& pool_metrics() {
  static const PoolMetrics metrics;
  return metrics;
}

}  // namespace

ThreadPool::ThreadPool(std::int32_t thread_count) {
  UAVCOV_CHECK_MSG(thread_count >= 1, "thread pool needs >= 1 worker");
  threads_.reserve(static_cast<std::size_t>(thread_count));
  for (std::int32_t i = 0; i < thread_count; ++i) {
    threads_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    const sync::LockGuard lock(mu_);
    stopping_ = true;
  }
  task_ready_.notify_all();
  for (std::thread& t : threads_) t.join();
}

void ThreadPool::submit(std::function<void()> task) {
  UAVCOV_CHECK_MSG(task != nullptr, "cannot submit an empty task");
  std::size_t depth = 0;
  {
    const sync::LockGuard lock(mu_);
    queue_.push_back(std::move(task));
    depth = queue_.size();
  }
  pool_metrics().queue_depth.set(static_cast<std::int64_t>(depth));
  task_ready_.notify_one();
}

void ThreadPool::wait_idle() {
  std::exception_ptr error;
  {
    sync::UniqueLock lock(mu_);
    // Predicate loop in this body (not a lambda handed to the condvar) so
    // the analysis sees the guarded reads of queue_/active_ under mu_.
    while (!queue_.empty() || active_ != 0) all_idle_.wait(lock);
    error = std::exchange(first_error_, nullptr);
  }
  if (error) std::rethrow_exception(error);
}

std::int32_t ThreadPool::resolve(std::int32_t requested) {
  if (requested != 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<std::int32_t>(hw);
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      sync::UniqueLock lock(mu_);
      while (!stopping_ && queue_.empty()) task_ready_.wait(lock);
      if (queue_.empty()) return;  // stopping_ and nothing left to run
      task = std::move(queue_.front());
      queue_.pop_front();
      ++active_;
    }
    pool_metrics().tasks.inc();
    try {
      const obs::ScopedTimer timer(pool_metrics().task_seconds);
      task();
    } catch (...) {
      const sync::LockGuard lock(mu_);
      if (!first_error_) first_error_ = std::current_exception();
    }
    {
      const sync::LockGuard lock(mu_);
      --active_;
      if (queue_.empty() && active_ == 0) all_idle_.notify_all();
    }
  }
}

}  // namespace uavcov
