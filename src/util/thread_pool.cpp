#include "util/thread_pool.h"

#include "util/env.h"

namespace dive::util {

int ThreadPool::resolve_thread_count(int requested) {
  if (requested > 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return env_int("DIVE_THREADS", hw > 0 ? static_cast<int>(hw) : 1);
}

ThreadPool::ThreadPool(int threads) {
  const int n = resolve_thread_count(threads);
  workers_.reserve(static_cast<std::size_t>(n > 0 ? n - 1 : 0));
  for (int i = 0; i < n - 1; ++i)
    workers_.emplace_back([this] { worker_loop(); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mutex_);
    stop_ = true;
  }
  start_cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::drain(const std::function<void(int)>& fn) {
  for (;;) {
    if (failed_.load(std::memory_order_relaxed)) return;
    const int i = next_.fetch_add(1, std::memory_order_relaxed);
    if (i >= end_) return;
    try {
      fn(i);
    } catch (...) {
      std::lock_guard lock(mutex_);
      if (!error_) error_ = std::current_exception();
      failed_.store(true, std::memory_order_relaxed);
    }
  }
}

void ThreadPool::worker_loop() {
  std::uint64_t seen = 0;
  std::unique_lock lock(mutex_);
  for (;;) {
    start_cv_.wait(lock, [&] { return stop_ || epoch_ != seen; });
    if (stop_) return;
    seen = epoch_;
    // The call may already be over: the caller clears job_ once it has
    // drained the range and no joined worker is left.
    const std::function<void(int)>* fn = job_;
    if (fn == nullptr) continue;
    ++in_flight_;
    lock.unlock();
    drain(*fn);
    lock.lock();
    if (--in_flight_ == 0) done_cv_.notify_all();
  }
}

void ThreadPool::parallel_for(int begin, int end,
                              const std::function<void(int)>& fn) {
  if (end <= begin) return;
  // Serial fast path: no workers, or nothing worth fanning out.
  if (workers_.empty() || end - begin == 1) {
    for (int i = begin; i < end; ++i) fn(i);
    return;
  }

  std::unique_lock lock(mutex_);
  job_ = &fn;
  next_.store(begin, std::memory_order_relaxed);
  end_ = end;
  error_ = nullptr;
  failed_.store(false, std::memory_order_relaxed);
  ++epoch_;
  lock.unlock();
  start_cv_.notify_all();

  drain(fn);

  lock.lock();
  // Wait only for the workers that joined; one that wakes after job_ is
  // cleared below (under the same lock) skips the call without touching
  // `fn`.
  done_cv_.wait(lock, [&] { return in_flight_ == 0; });
  job_ = nullptr;
  if (error_) {
    std::exception_ptr err = error_;
    error_ = nullptr;
    lock.unlock();
    std::rethrow_exception(err);
  }
}

}  // namespace dive::util
