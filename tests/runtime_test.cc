#include "runtime/scheduler.h"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "tests/test_util.h"
#include "txn/timestamp_authority.h"

namespace harbor::runtime {
namespace {

using namespace std::chrono_literals;

int64_t Ms(int64_t ms) { return ms * 1'000'000; }

TEST(SchedulerTest, RunsPostedTasks) {
  Scheduler sched;
  std::mutex mu;
  std::condition_variable cv;
  int ran = 0;
  for (int i = 0; i < 64; ++i) {
    // Notify under the lock: the waiter may return (and destroy cv) the
    // moment the predicate holds, so an unlocked notify could touch a
    // dead condition variable.
    ASSERT_TRUE(sched.Post([&] {
      std::lock_guard<std::mutex> lock(mu);
      ++ran;
      cv.notify_all();
    }));
  }
  std::unique_lock<std::mutex> lock(mu);
  ASSERT_TRUE(cv.wait_for(lock, 10s, [&] { return ran == 64; }));
}

TEST(SchedulerTest, StrandRunsFifoOneAtATime) {
  Scheduler sched;
  const StrandId strand = sched.CreateStrand(/*width=*/1);
  std::mutex mu;
  std::condition_variable cv;
  std::vector<int> order;
  int concurrent = 0;
  int max_concurrent = 0;
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(sched.Post(strand, [&, i] {
      {
        std::lock_guard<std::mutex> lock(mu);
        max_concurrent = std::max(max_concurrent, ++concurrent);
      }
      std::this_thread::sleep_for(100us);
      std::lock_guard<std::mutex> lock(mu);
      --concurrent;
      order.push_back(i);
      cv.notify_all();
    }));
  }
  std::unique_lock<std::mutex> lock(mu);
  ASSERT_TRUE(cv.wait_for(lock, 30s, [&] { return order.size() == 100; }));
  EXPECT_EQ(max_concurrent, 1);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
  sched.ReleaseStrand(strand);
}

TEST(SchedulerTest, StrandWidthBoundsConcurrency) {
  Scheduler sched;
  const StrandId strand = sched.CreateStrand(/*width=*/3);
  std::mutex mu;
  std::condition_variable cv;
  int concurrent = 0;
  int max_concurrent = 0;
  int done = 0;
  for (int i = 0; i < 60; ++i) {
    ASSERT_TRUE(sched.Post(strand, [&] {
      {
        std::lock_guard<std::mutex> lock(mu);
        max_concurrent = std::max(max_concurrent, ++concurrent);
      }
      std::this_thread::sleep_for(200us);
      std::lock_guard<std::mutex> lock(mu);
      --concurrent;
      ++done;
      cv.notify_all();
    }));
  }
  std::unique_lock<std::mutex> lock(mu);
  ASSERT_TRUE(cv.wait_for(lock, 30s, [&] { return done == 60; }));
  EXPECT_LE(max_concurrent, 3);
  sched.ReleaseStrand(strand);
}

TEST(SchedulerTest, ShutdownDrainsQueuedTasksThenRejects) {
  std::atomic<int> ran{0};
  Scheduler sched;
  for (int i = 0; i < 32; ++i) {
    ASSERT_TRUE(sched.Post([&] {
      std::this_thread::sleep_for(100us);
      ran.fetch_add(1);
    }));
  }
  sched.Shutdown();
  EXPECT_EQ(ran.load(), 32) << "graceful drain must run queued tasks";
  EXPECT_TRUE(sched.shut_down());
  EXPECT_FALSE(sched.Post([&] { ran.fetch_add(1); }));
  EXPECT_EQ(sched.ScheduleAfter(Ms(1), [&] { ran.fetch_add(1); }), 0u);
  EXPECT_EQ(ran.load(), 32);
}

TEST(SchedulerTest, ReleaseStrandDiscardsQueuedTasks) {
  Scheduler sched;
  const StrandId strand = sched.CreateStrand(/*width=*/1);
  std::mutex mu;
  std::condition_variable cv;
  bool blocked_started = false;
  bool release_done = false;
  std::atomic<int> ran{0};
  // First task holds the strand until the release happened; everything
  // queued behind it must be discarded, not run.
  ASSERT_TRUE(sched.Post(strand, [&] {
    std::unique_lock<std::mutex> lock(mu);
    blocked_started = true;
    cv.notify_all();
    cv.wait(lock, [&] { return release_done; });
  }));
  {
    std::unique_lock<std::mutex> lock(mu);
    ASSERT_TRUE(cv.wait_for(lock, 10s, [&] { return blocked_started; }));
  }
  for (int i = 0; i < 16; ++i) {
    ASSERT_TRUE(sched.Post(strand, [&] { ran.fetch_add(1); }));
  }
  sched.ReleaseStrand(strand);
  EXPECT_FALSE(sched.Post(strand, [&] { ran.fetch_add(1); }))
      << "a released strand rejects new posts";
  {
    std::lock_guard<std::mutex> lock(mu);
    release_done = true;
  }
  cv.notify_all();
  sched.Shutdown();
  EXPECT_EQ(ran.load(), 0) << "queued tasks on a released strand must not run";
}

TEST(SchedulerTest, TimerFiresOnceAfterDelay) {
  Scheduler sched;
  std::mutex mu;
  std::condition_variable cv;
  int fired = 0;
  const auto t0 = std::chrono::steady_clock::now();
  ASSERT_NE(sched.ScheduleAfter(Ms(10),
                                [&] {
                                  std::lock_guard<std::mutex> lock(mu);
                                  ++fired;
                                  cv.notify_all();
                                }),
            0u);
  std::unique_lock<std::mutex> lock(mu);
  ASSERT_TRUE(cv.wait_for(lock, 10s, [&] { return fired == 1; }));
  EXPECT_GE(std::chrono::steady_clock::now() - t0, 10ms);
  lock.unlock();
  std::this_thread::sleep_for(30ms);
  EXPECT_EQ(fired, 1) << "one-shot timer fired twice";
}

TEST(SchedulerTest, PeriodicTimerFiresRepeatedlyUntilCancelled) {
  Scheduler sched;
  std::mutex mu;
  std::condition_variable cv;
  int fired = 0;
  const TimerId id = sched.ScheduleEvery(Ms(2), [&] {
    std::lock_guard<std::mutex> lock(mu);
    ++fired;
    cv.notify_all();
  });
  ASSERT_NE(id, 0u);
  {
    std::unique_lock<std::mutex> lock(mu);
    ASSERT_TRUE(cv.wait_for(lock, 30s, [&] { return fired >= 3; }));
  }
  EXPECT_TRUE(sched.CancelTimer(id));
  const int after_cancel = [&] {
    std::lock_guard<std::mutex> lock(mu);
    return fired;
  }();
  std::this_thread::sleep_for(20ms);
  std::lock_guard<std::mutex> lock(mu);
  EXPECT_EQ(fired, after_cancel) << "timer fired after CancelTimer returned";
}

TEST(SchedulerTest, CancelTimerWaitsOutInFlightFiring) {
  Scheduler sched;
  std::mutex mu;
  std::condition_variable cv;
  bool in_callback = false;
  std::atomic<bool> callback_done{false};
  const TimerId id = sched.ScheduleEvery(Ms(1), [&] {
    {
      std::lock_guard<std::mutex> lock(mu);
      in_callback = true;
      cv.notify_all();
    }
    std::this_thread::sleep_for(5ms);
    callback_done.store(true);
  });
  {
    std::unique_lock<std::mutex> lock(mu);
    ASSERT_TRUE(cv.wait_for(lock, 10s, [&] { return in_callback; }));
  }
  sched.CancelTimer(id);
  EXPECT_TRUE(callback_done.load())
      << "CancelTimer returned while the callback was still running";
}

TEST(SchedulerTest, CancelTimerFromOwnCallbackDoesNotDeadlock) {
  Scheduler sched;
  std::mutex mu;
  std::condition_variable cv;
  int fired = 0;
  TimerId id = 0;
  {
    std::lock_guard<std::mutex> lock(mu);
    id = sched.ScheduleEvery(Ms(1), [&] {
      std::lock_guard<std::mutex> inner(mu);
      if (++fired == 1) sched.CancelTimer(id);  // self-cancel
      cv.notify_all();
    });
  }
  std::unique_lock<std::mutex> lock(mu);
  ASSERT_TRUE(cv.wait_for(lock, 10s, [&] { return fired >= 1; }));
  lock.unlock();
  std::this_thread::sleep_for(20ms);
  lock.lock();
  EXPECT_EQ(fired, 1) << "periodic timer re-armed after self-cancel";
}

TEST(SchedulerTest, BlockedTasksDoNotStarveThePool) {
  // More simultaneously-blocked tasks than core workers: annotated waits
  // must grow the pool with spares so the unblocking task can still run.
  Scheduler::Options opt;
  opt.workers = 2;
  Scheduler sched(opt);
  std::mutex mu;
  std::condition_variable cv;
  int waiting = 0;
  bool go = false;
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(sched.Post([&] {
      ScopedBlocking block;
      std::unique_lock<std::mutex> lock(mu);
      ++waiting;
      cv.notify_all();
      cv.wait(lock, [&] { return go; });
    }));
  }
  {
    std::unique_lock<std::mutex> lock(mu);
    ASSERT_TRUE(cv.wait_for(lock, 30s, [&] { return waiting == 4; }))
        << "blocked tasks starved the 2-worker pool (spares not spawned)";
  }
  // The releasing task runs even though all 4 blockers still hold workers.
  std::atomic<bool> released{false};
  ASSERT_TRUE(sched.Post([&] {
    {
      std::lock_guard<std::mutex> lock(mu);
      go = true;
    }
    cv.notify_all();
    released.store(true);
  }));
  sched.Shutdown();
  EXPECT_TRUE(released.load());
  EXPECT_GT(sched.spares_spawned(), 0);
}

TEST(SchedulerTest, CurrentSchedulerVisibleInsideTasksOnly) {
  Scheduler sched;
  EXPECT_EQ(CurrentScheduler(), nullptr);
  std::mutex mu;
  std::condition_variable cv;
  Scheduler* seen = nullptr;
  bool done = false;
  ASSERT_TRUE(sched.Post([&] {
    std::lock_guard<std::mutex> lock(mu);
    seen = CurrentScheduler();
    done = true;
    cv.notify_all();
  }));
  std::unique_lock<std::mutex> lock(mu);
  ASSERT_TRUE(cv.wait_for(lock, 10s, [&] { return done; }));
  EXPECT_EQ(seen, &sched);
}

TEST(SchedulerTest, RunParallelReturnsStatusesInOrder) {
  Scheduler sched;
  std::vector<std::function<Status()>> fns;
  for (int i = 0; i < 8; ++i) {
    fns.push_back([i]() -> Status {
      if (i % 2 == 1) return Status::Internal("odd " + std::to_string(i));
      return Status::OK();
    });
  }
  std::vector<Status> results = RunParallel(&sched, std::move(fns));
  ASSERT_EQ(results.size(), 8u);
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(results[static_cast<size_t>(i)].ok(), i % 2 == 0) << i;
  }
}

TEST(SchedulerTest, RunParallelNestsWithoutDeadlock) {
  // Fan-out inside fan-out on a deliberately tiny pool: the inner waits are
  // blocking sections, so nesting must not wedge.
  Scheduler::Options opt;
  opt.workers = 2;
  Scheduler sched(opt);
  std::atomic<int> leaves{0};
  std::vector<std::function<Status()>> outer;
  for (int i = 0; i < 4; ++i) {
    outer.push_back([&]() -> Status {
      std::vector<std::function<Status()>> inner;
      for (int j = 0; j < 4; ++j) {
        inner.push_back([&]() -> Status {
          leaves.fetch_add(1);
          return Status::OK();
        });
      }
      for (const Status& st : RunParallel(CurrentScheduler(), inner)) {
        HARBOR_RETURN_NOT_OK(st);
      }
      return Status::OK();
    });
  }
  for (const Status& st : RunParallel(&sched, std::move(outer))) {
    EXPECT_OK(st);
  }
  EXPECT_EQ(leaves.load(), 16);
}

TEST(SchedulerTest, RunParallelFallsBackInlineWithoutScheduler) {
  std::atomic<int> ran{0};
  std::vector<std::function<Status()>> fns;
  for (int i = 0; i < 4; ++i) {
    fns.push_back([&]() -> Status {
      ran.fetch_add(1);
      return Status::OK();
    });
  }
  std::vector<Status> results = RunParallel(nullptr, std::move(fns));
  ASSERT_EQ(results.size(), 4u);
  for (const Status& st : results) EXPECT_OK(st);
  EXPECT_EQ(ran.load(), 4);
}

TEST(SchedulerTest, SeededDispatchIsDeterministic) {
  // Same seed -> byte-identical completion order on a single-worker pool
  // (one worker serializes execution, so pickup order IS completion order);
  // the shuffle only perturbs pickup among distinct ready strands.
  auto run_once = [](uint64_t seed) {
    Scheduler::Options opt;
    opt.workers = 1;
    opt.seed = seed;
    Scheduler sched(opt);
    std::vector<StrandId> strands;
    for (int s = 0; s < 8; ++s) strands.push_back(sched.CreateStrand(1));
    std::mutex mu;
    std::vector<int> order;
    // Park the worker so every strand is ready before dispatch starts. The
    // strand tasks are posted only once the parker is running: otherwise
    // the worker may wake with some of them already ready and the seeded
    // pick can run one while this thread is still posting, which makes the
    // ready sets (and so the order) depend on thread timing.
    std::condition_variable cv;
    bool parked = false;
    bool go = false;
    sched.Post([&] {
      std::unique_lock<std::mutex> lock(mu);
      parked = true;
      cv.notify_all();
      cv.wait(lock, [&] { return go; });
    });
    {
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return parked; });
    }
    for (int i = 0; i < 64; ++i) {
      sched.Post(strands[static_cast<size_t>(i % 8)], [&, i] {
        std::lock_guard<std::mutex> lock(mu);
        order.push_back(i);
      });
    }
    {
      std::lock_guard<std::mutex> lock(mu);
      go = true;
    }
    cv.notify_all();
    sched.Shutdown();
    return order;
  };
  const std::vector<int> a = run_once(1234);
  const std::vector<int> b = run_once(1234);
  const std::vector<int> c = run_once(9999);
  ASSERT_EQ(a.size(), 64u);
  EXPECT_EQ(a, b) << "same seed must give the same dispatch order";
  // Different seeds *may* coincide, but for this workload they should not.
  EXPECT_NE(a, c) << "seed had no effect on dispatch order";
}

TEST(SchedulerTest, ConcurrentPostAndShutdown) {
  // Hammer Post from many threads while Shutdown races them: every accepted
  // task runs exactly once, every rejection is clean (TSan coverage).
  for (int round = 0; round < 8; ++round) {
    Scheduler sched;
    std::atomic<int64_t> accepted{0};
    std::atomic<int64_t> ran{0};
    std::vector<std::thread> posters;
    std::atomic<bool> stop{false};
    for (int t = 0; t < 4; ++t) {
      posters.emplace_back([&] {
        while (!stop.load(std::memory_order_relaxed)) {
          if (sched.Post([&] { ran.fetch_add(1); })) accepted.fetch_add(1);
        }
      });
    }
    std::this_thread::sleep_for(2ms);
    sched.Shutdown();
    stop.store(true);
    for (std::thread& t : posters) t.join();
    EXPECT_EQ(ran.load(), accepted.load());
  }
}

TEST(SchedulerTest, ConcurrentStrandReleaseAndPost) {
  // Posters race ReleaseStrand on many strands; released strands reject,
  // accepted tasks all run before Shutdown returns.
  Scheduler sched;
  constexpr int kStrands = 16;
  std::vector<StrandId> strands;
  for (int i = 0; i < kStrands; ++i) strands.push_back(sched.CreateStrand(2));
  std::atomic<int64_t> accepted{0};
  std::atomic<int64_t> ran{0};
  std::atomic<bool> stop{false};
  std::vector<std::thread> posters;
  for (int t = 0; t < 4; ++t) {
    posters.emplace_back([&, t] {
      uint64_t x = static_cast<uint64_t>(t) + 1;
      while (!stop.load(std::memory_order_relaxed)) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        const StrandId s = strands[x % kStrands];
        if (sched.Post(s, [&] { ran.fetch_add(1); })) accepted.fetch_add(1);
      }
    });
  }
  std::this_thread::sleep_for(2ms);
  for (int i = 0; i < kStrands; i += 2) sched.ReleaseStrand(strands[i]);
  std::this_thread::sleep_for(1ms);
  stop.store(true);
  for (std::thread& t : posters) t.join();
  sched.Shutdown();
  // Tasks queued on a strand at ReleaseStrand are discarded, so ran can be
  // below accepted — but never above, and nothing may be lost after drain.
  EXPECT_LE(ran.load(), accepted.load());
  EXPECT_GT(ran.load(), 0);
}

TEST(RuntimeTickerTest, ScheduledTickerAdvancesEpochs) {
  Scheduler sched;
  TimestampAuthority authority;
  const Timestamp start = authority.Now();
  authority.StartTicker(&sched, /*period_ms=*/1);
  const auto deadline = std::chrono::steady_clock::now() + 10s;
  while (authority.Now() < start + 3 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(1ms);
  }
  EXPECT_GE(authority.Now(), start + 3);
  authority.StopTicker();
  const Timestamp stopped_at = authority.Now();
  std::this_thread::sleep_for(10ms);
  EXPECT_EQ(authority.Now(), stopped_at) << "tick fired after StopTicker";
}

TEST(RuntimeTickerTest, RepeatedConstructDestructUnderActiveTicker) {
  // Regression for the ticker stop/join ordering: an authority that dies
  // right after starting its ticker must never let a tick touch freed
  // state. 200 quick cycles; TSan/ASan make violations loud.
  Scheduler sched;
  for (int i = 0; i < 200; ++i) {
    TimestampAuthority authority;
    authority.StartTicker(&sched, /*period_ms=*/1);
    if (i % 4 == 0) std::this_thread::sleep_for(500us);
    // Destructor runs StopTicker: cancel-and-wait on the shared scheduler.
  }
  // The scheduler outlives them all and keeps working.
  std::mutex mu;
  std::condition_variable cv;
  bool ran = false;
  ASSERT_TRUE(sched.Post([&] {
    std::lock_guard<std::mutex> lock(mu);  // see RunsPostedTasks
    ran = true;
    cv.notify_all();
  }));
  std::unique_lock<std::mutex> lock(mu);
  EXPECT_TRUE(cv.wait_for(lock, 10s, [&] { return ran; }));
}

TEST(RuntimeTickerTest, TickerSurvivesSchedulerShutdownRace) {
  // StopTicker after the scheduler already shut down must be a clean no-op
  // (the armed timer was cancelled unfired by Shutdown).
  auto sched = std::make_unique<Scheduler>();
  TimestampAuthority authority;
  authority.StartTicker(sched.get(), /*period_ms=*/1);
  std::this_thread::sleep_for(2ms);
  sched->Shutdown();
  authority.StopTicker();
  sched.reset();
}

}  // namespace
}  // namespace harbor::runtime
