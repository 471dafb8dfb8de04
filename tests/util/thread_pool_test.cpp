#include "util/thread_pool.h"

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <stdexcept>
#include <thread>
#include <vector>

namespace dive::util {
namespace {

TEST(ThreadPool, CoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.thread_count(), 4);
  std::vector<std::atomic<int>> hits(257);
  pool.parallel_for(0, 257, [&](int i) {
    hits[static_cast<std::size_t>(i)].fetch_add(1);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, SerialPoolRunsInline) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.thread_count(), 1);
  int sum = 0;  // no synchronization needed: everything runs on the caller
  pool.parallel_for(0, 100, [&](int i) { sum += i; });
  EXPECT_EQ(sum, 4950);
}

TEST(ThreadPool, ReusableAcrossCalls) {
  ThreadPool pool(3);
  std::atomic<int> total{0};
  for (int round = 0; round < 20; ++round)
    pool.parallel_for(0, 50, [&](int) { total.fetch_add(1); });
  EXPECT_EQ(total.load(), 20 * 50);
}

TEST(ThreadPool, EmptyAndReversedRangesAreNoops) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  pool.parallel_for(5, 5, [&](int) { count.fetch_add(1); });
  pool.parallel_for(9, 3, [&](int) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 0);
}

TEST(ThreadPool, PropagatesFirstException) {
  ThreadPool pool(4);
  EXPECT_THROW(pool.parallel_for(0, 100,
                                 [](int i) {
                                   if (i == 13)
                                     throw std::runtime_error("boom");
                                 }),
               std::runtime_error);
  // The pool must stay usable after a failed job.
  std::atomic<int> count{0};
  pool.parallel_for(0, 10, [&](int) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 10);
}

/// In a handoff round, index 0 waits until index 1 has started, so some
/// worker surely joins the call; index 1 then works a little longer.
void handoff(std::atomic<bool>& started, int i) {
  if (i == 0) {
    while (!started.load()) std::this_thread::yield();
  } else if (i == 1) {
    started.store(true);
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
}

TEST(ThreadPool, BackToBackTinyRangesRunEachIndexOnce) {
  // Ranges of 2..4 indices, one call after another: the caller often
  // drains a range before any worker wakes, and must return without
  // waiting for them, but only after every worker that joined is done.
  // The counters are plain ints (each index writes its own), so a call
  // returning while a joined worker still writes is a race under
  // ThreadSanitizer (and may read a missing count), and each call's body
  // and counters die when it returns, so a late worker touching them is
  // a use-after-scope. Odd rounds hand off (see handoff), so that a
  // worker does join.
  ThreadPool pool(4);
  for (int round = 0; round < 4000; ++round) {
    const int n = 2 + round % 3;
    std::atomic<bool> started{false};
    std::array<int, 4> hits{};
    pool.parallel_for(0, n, [&](int i) {
      if (round % 2 == 1) handoff(started, i);
      ++hits[static_cast<std::size_t>(i)];
    });
    for (int i = 0; i < 4; ++i)
      ASSERT_EQ(hits[static_cast<std::size_t>(i)], i < n ? 1 : 0)
          << "round " << round;
  }
}

TEST(ThreadPool, ExceptionsInTinyRangesLeaveThePoolExact) {
  // One index of each small range throws. In odd rounds it is index 1
  // after a handoff, so it runs while another lane holds index 0: the
  // call must still rethrow it, whichever lane threw. The next call must
  // cover its whole range exactly once: no worker is left in the failed
  // call.
  ThreadPool pool(4);
  for (int round = 0; round < 1000; ++round) {
    const int n = 2 + round % 3;
    const bool hand = round % 2 == 1;
    const int bad = hand ? 1 : round % n;
    std::atomic<bool> started{false};
    EXPECT_THROW(pool.parallel_for(0, n,
                                   [&](int i) {
                                     if (hand) handoff(started, i);
                                     if (i == bad)
                                       throw std::runtime_error("boom");
                                   }),
                 std::runtime_error)
        << "round " << round;
    std::array<int, 4> hits{};
    pool.parallel_for(0, n, [&](int i) {
      ++hits[static_cast<std::size_t>(i)];
    });
    for (int i = 0; i < n; ++i)
      ASSERT_EQ(hits[static_cast<std::size_t>(i)], 1) << "round " << round;
  }
}

TEST(ThreadPool, DisjointWritesNeedNoSynchronization) {
  ThreadPool pool(4);
  std::vector<int> out(1000, -1);
  pool.parallel_for(0, 1000, [&](int i) {
    out[static_cast<std::size_t>(i)] = i * i;
  });
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(out[static_cast<std::size_t>(i)], i * i);
}

TEST(ThreadPool, ResolveThreadCountPolicy) {
  EXPECT_EQ(ThreadPool::resolve_thread_count(3), 3);
  EXPECT_EQ(ThreadPool::resolve_thread_count(1), 1);

  ASSERT_EQ(setenv("DIVE_THREADS", "2", 1), 0);
  EXPECT_EQ(ThreadPool::resolve_thread_count(0), 2);
  // An explicit request still beats the environment.
  EXPECT_EQ(ThreadPool::resolve_thread_count(5), 5);

  ASSERT_EQ(setenv("DIVE_THREADS", "garbage", 1), 0);
  EXPECT_GE(ThreadPool::resolve_thread_count(0), 1);

  ASSERT_EQ(unsetenv("DIVE_THREADS"), 0);
  EXPECT_GE(ThreadPool::resolve_thread_count(0), 1);
}

}  // namespace
}  // namespace dive::util
