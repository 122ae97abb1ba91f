// Unit tests for the lock manager: compatibility, upgrades, blocking,
// timeout-based deadlock detection, multi-granularity locks, fairness, and
// shutdown semantics.

#include "lock/lock_manager.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "tests/test_util.h"

namespace harbor {
namespace {

constexpr PageId kPage{1, 7};
constexpr ObjectId kObject = 42;

obs::Metrics metrics;  // shared by every test's manager; no test reads it

TEST(LockManagerTest, SharedLocksCoexist) {
  LockManager lm(metrics, std::chrono::milliseconds(50));
  ASSERT_OK(lm.AcquirePageLock(1, kPage, LockMode::kShared));
  ASSERT_OK(lm.AcquirePageLock(2, kPage, LockMode::kShared));
  EXPECT_TRUE(lm.HasPageAccess(1, kPage, LockMode::kShared));
  EXPECT_TRUE(lm.HasPageAccess(2, kPage, LockMode::kShared));
  EXPECT_FALSE(lm.HasPageAccess(1, kPage, LockMode::kExclusive));
}

TEST(LockManagerTest, ExclusiveBlocksOthers) {
  LockManager lm(metrics, std::chrono::milliseconds(50));
  ASSERT_OK(lm.AcquirePageLock(1, kPage, LockMode::kExclusive));
  EXPECT_TRUE(lm.AcquirePageLock(2, kPage, LockMode::kShared).IsTimedOut());
  EXPECT_TRUE(lm.AcquirePageLock(2, kPage, LockMode::kExclusive).IsTimedOut());
}

TEST(LockManagerTest, UpgradeWhenSoleHolder) {
  LockManager lm(metrics, std::chrono::milliseconds(50));
  ASSERT_OK(lm.AcquirePageLock(1, kPage, LockMode::kShared));
  ASSERT_OK(lm.AcquirePageLock(1, kPage, LockMode::kExclusive));
  EXPECT_TRUE(lm.HasPageAccess(1, kPage, LockMode::kExclusive));
}

TEST(LockManagerTest, UpgradeBlockedByOtherReader) {
  LockManager lm(metrics, std::chrono::milliseconds(50));
  ASSERT_OK(lm.AcquirePageLock(1, kPage, LockMode::kShared));
  ASSERT_OK(lm.AcquirePageLock(2, kPage, LockMode::kShared));
  EXPECT_TRUE(lm.AcquirePageLock(1, kPage, LockMode::kExclusive).IsTimedOut());
  // After 2 releases, the upgrade succeeds.
  lm.ReleaseAll(2);
  ASSERT_OK(lm.AcquirePageLock(1, kPage, LockMode::kExclusive));
}

TEST(LockManagerTest, ReleaseAllWakesWaiters) {
  LockManager lm(metrics, std::chrono::milliseconds(2000));
  ASSERT_OK(lm.AcquirePageLock(1, kPage, LockMode::kExclusive));
  std::atomic<bool> granted{false};
  std::thread waiter([&] {
    HARBOR_CHECK_OK(lm.AcquirePageLock(2, kPage, LockMode::kShared));
    granted = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(granted.load());
  lm.ReleaseAll(1);
  waiter.join();
  EXPECT_TRUE(granted.load());
}

TEST(LockManagerTest, DeadlockResolvedByTimeout) {
  // Classic two-transaction deadlock: T1 holds A wants B; T2 holds B wants
  // A. The timeout mechanism (§6.1.2) victimizes at least one.
  LockManager lm(metrics, std::chrono::milliseconds(100));
  PageId a{1, 1}, b{1, 2};
  ASSERT_OK(lm.AcquirePageLock(1, a, LockMode::kExclusive));
  ASSERT_OK(lm.AcquirePageLock(2, b, LockMode::kExclusive));
  std::atomic<int> timeouts{0};
  std::thread t1([&] {
    if (lm.AcquirePageLock(1, b, LockMode::kExclusive).IsTimedOut()) {
      timeouts++;
      lm.ReleaseAll(1);
    }
  });
  std::thread t2([&] {
    if (lm.AcquirePageLock(2, a, LockMode::kExclusive).IsTimedOut()) {
      timeouts++;
      lm.ReleaseAll(2);
    }
  });
  t1.join();
  t2.join();
  EXPECT_GE(timeouts.load(), 1);
}

TEST(LockManagerTest, IntentionModesFollowMatrix) {
  LockManager lm(metrics, std::chrono::milliseconds(50));
  // IX + IX compatible; IX + S incompatible; IS + S compatible.
  ASSERT_OK(lm.AcquireTableLock(1, kObject, LockMode::kIntentionExclusive));
  ASSERT_OK(lm.AcquireTableLock(2, kObject, LockMode::kIntentionExclusive));
  ASSERT_OK(lm.AcquireTableLock(3, kObject, LockMode::kIntentionShared));
  EXPECT_TRUE(lm.AcquireTableLock(4, kObject, LockMode::kShared).IsTimedOut());
  lm.ReleaseAll(1);
  lm.ReleaseAll(2);
  ASSERT_OK(lm.AcquireTableLock(4, kObject, LockMode::kShared));
  // S blocks new IX (this is what blocks update transactions during
  // recovery Phase 3).
  EXPECT_TRUE(lm.AcquireTableLock(5, kObject, LockMode::kIntentionExclusive)
                  .IsTimedOut());
}

TEST(LockManagerTest, RecoveryOwnerLocksCanBeOverridden) {
  LockManager lm(metrics, std::chrono::milliseconds(50));
  const LockOwnerId recovery = MakeRecoveryOwner(3);
  ASSERT_OK(lm.AcquireTableLock(recovery, kObject, LockMode::kShared));
  EXPECT_TRUE(lm.AcquireTableLock(1, kObject, LockMode::kIntentionExclusive)
                  .IsTimedOut());
  // The recovering site crashed: a buddy overrides its ownership (§5.5.1).
  lm.ReleaseAll(recovery);
  ASSERT_OK(lm.AcquireTableLock(1, kObject, LockMode::kIntentionExclusive));
}

TEST(LockManagerTest, FifoPreventsWriterStarvation) {
  LockManager lm(metrics, std::chrono::milliseconds(2000));
  ASSERT_OK(lm.AcquirePageLock(1, kPage, LockMode::kShared));

  std::atomic<bool> writer_granted{false};
  std::thread writer([&] {
    HARBOR_CHECK_OK(lm.AcquirePageLock(2, kPage, LockMode::kExclusive));
    writer_granted = true;
    lm.ReleaseAll(2);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  ASSERT_FALSE(writer_granted.load());
  // A late reader must queue behind the waiting writer, not jump it.
  std::atomic<bool> reader_granted{false};
  std::thread reader([&] {
    HARBOR_CHECK_OK(lm.AcquirePageLock(3, kPage, LockMode::kShared));
    reader_granted = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_FALSE(reader_granted.load());

  lm.ReleaseAll(1);  // writer goes first, then the reader
  writer.join();
  reader.join();
  EXPECT_TRUE(writer_granted.load());
  EXPECT_TRUE(reader_granted.load());
}

TEST(LockManagerTest, ShutdownFailsWaitersAndNewRequests) {
  LockManager lm(metrics, std::chrono::milliseconds(5000));
  ASSERT_OK(lm.AcquirePageLock(1, kPage, LockMode::kExclusive));
  std::atomic<bool> unavailable{false};
  std::thread waiter([&] {
    Status st = lm.AcquirePageLock(2, kPage, LockMode::kShared);
    unavailable = st.IsUnavailable();
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  lm.Shutdown();
  waiter.join();
  EXPECT_TRUE(unavailable.load());
  EXPECT_TRUE(
      lm.AcquirePageLock(3, kPage, LockMode::kShared).IsUnavailable());
}

TEST(LockManagerTest, ReleaseTableLockIsSelective) {
  LockManager lm(metrics, std::chrono::milliseconds(50));
  ASSERT_OK(lm.AcquireTableLock(1, 10, LockMode::kShared));
  ASSERT_OK(lm.AcquireTableLock(1, 11, LockMode::kShared));
  lm.ReleaseTableLock(1, 10);
  EXPECT_TRUE(
      lm.AcquireTableLock(2, 10, LockMode::kExclusive).ok());
  EXPECT_TRUE(
      lm.AcquireTableLock(2, 11, LockMode::kExclusive).IsTimedOut());
}

TEST(LockManagerTest, ManyConcurrentOwnersOnDisjointPages) {
  LockManager lm(metrics, std::chrono::milliseconds(500));
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 200; ++i) {
        LockOwnerId owner = static_cast<LockOwnerId>(t) * 1000 + i;
        PageId page{2, static_cast<uint32_t>((t * 37 + i) % 16)};
        if (!lm.AcquirePageLock(owner, page, LockMode::kShared).ok()) {
          failures++;
        }
        lm.ReleaseAll(owner);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(lm.NumLockedResources(), 0u);
}

// Regression test for a data race: set_default_timeout used to write a plain
// std::chrono::milliseconds member that Acquire read without synchronization
// while computing its wait deadline. Under TSan this test flags the old code;
// with the atomic member it is clean. Conflicting lock requests force the
// acquire path onto the deadline computation while the timeout keeps moving.
TEST(LockManagerTest, SetDefaultTimeoutRacesWithAcquire) {
  LockManager lm(metrics, std::chrono::milliseconds(5));
  std::atomic<bool> stop{false};
  std::thread tuner([&] {
    int64_t ms = 1;
    while (!stop.load(std::memory_order_relaxed)) {
      lm.set_default_timeout(std::chrono::milliseconds(ms));
      ms = ms % 8 + 1;
    }
  });
  std::vector<std::thread> lockers;
  for (int t = 0; t < 4; ++t) {
    lockers.emplace_back([&, t] {
      const LockOwnerId owner = static_cast<LockOwnerId>(t + 1);
      for (int i = 0; i < 100; ++i) {
        // All threads fight over the same page, so losers take the
        // deadline-wait path that reads the default timeout.
        (void)lm.AcquirePageLock(owner, kPage, LockMode::kExclusive);
        lm.ReleaseAll(owner);
      }
    });
  }
  for (auto& t : lockers) t.join();
  stop = true;
  tuner.join();
  EXPECT_EQ(lm.NumLockedResources(), 0u);
}

}  // namespace
}  // namespace harbor
