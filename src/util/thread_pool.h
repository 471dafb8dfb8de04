// Fixed-size worker pool with a blocking parallel_for over index ranges.
//
// Built for the codec's per-frame hot loops (motion search rows, the
// macroblock transform/quantize pass): the caller thread participates in
// the work, jobs are partitioned by an atomic index so the result of a
// parallel_for is identical for every thread count as long as iterations
// write disjoint data, and a pool of size 1 degrades to a plain serial
// loop (no threads spawned, no synchronization) so single-threaded test
// runs and TSan-free builds behave exactly like the pre-threading code.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace dive::util {

class ThreadPool {
 public:
  /// `threads` is the TOTAL lane count including the calling thread:
  /// a pool of N spawns N-1 workers. 0 resolves via
  /// `resolve_thread_count` (DIVE_THREADS env var, then hardware).
  explicit ThreadPool(int threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total lanes (workers + the calling thread), always >= 1.
  [[nodiscard]] int thread_count() const {
    return static_cast<int>(workers_.size()) + 1;
  }

  /// Runs fn(i) for every i in [begin, end), distributing indices over
  /// the pool; blocks until all iterations finished. The calling thread
  /// works too, and waits only for the workers that joined this call: a
  /// worker that wakes after the caller has drained every index and
  /// returned finds no job and never touches `fn`. The first exception thrown by any iteration is rethrown
  /// on the caller; remaining indices are abandoned once an iteration
  /// has failed. NOT reentrant: fn must not call parallel_for on the
  /// same pool.
  void parallel_for(int begin, int end, const std::function<void(int)>& fn);

  /// Thread-count policy shared by every DIVE_THREADS consumer:
  /// requested > 0 wins, else the DIVE_THREADS environment variable
  /// (when util::env_int accepts it), else
  /// std::thread::hardware_concurrency.
  [[nodiscard]] static int resolve_thread_count(int requested);

 private:
  void worker_loop();
  void drain(const std::function<void(int)>& fn);

  std::vector<std::thread> workers_;

  std::mutex mutex_;
  std::condition_variable start_cv_;
  std::condition_variable done_cv_;
  /// The current call's body; a worker joins only while it is set, and
  /// the caller clears it once no joined worker is left.
  const std::function<void(int)>* job_ = nullptr;
  std::atomic<int> next_{0};
  int end_ = 0;
  int in_flight_ = 0;       ///< workers that joined the call and still drain
  std::uint64_t epoch_ = 0; ///< bumped per parallel_for to wake workers
  bool stop_ = false;
  std::atomic<bool> failed_{false};
  std::exception_ptr error_;
};

}  // namespace dive::util
