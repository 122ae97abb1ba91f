// Unit tests for the buffer pool: caching, pinning, eviction policies,
// STEAL semantics, the dirty-pages table, flush hooks, and crash discard.

#include "buffer/buffer_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <thread>

#include "storage/file_manager.h"
#include "tests/test_util.h"

namespace harbor {
namespace {

using test::MakeTempDir;

class BufferPoolTest : public ::testing::Test {
 protected:
  BufferPoolTest() : fm_(MakeTempDir("pool"), nullptr) {
    HARBOR_CHECK_OK(fm_.OpenOrCreate(1));
    for (int i = 0; i < 32; ++i) {
      HARBOR_CHECK_OK(fm_.AllocatePage(1).status());
    }
  }
  int64_t misses() const {
    return metrics_.counter(obs::CounterId::kBufMisses).value();
  }
  int64_t evictions() const {
    return metrics_.counter(obs::CounterId::kBufEvictions).value();
  }

  FileManager fm_;
  obs::Metrics metrics_;
};

TEST_F(BufferPoolTest, HitAfterMiss) {
  BufferPool pool(&fm_, 8, metrics_);
  {
    ASSERT_OK_AND_ASSIGN(PageHandle h, pool.GetPage(PageId{1, 0}));
    EXPECT_EQ(h.page_id(), (PageId{1, 0}));
  }
  EXPECT_EQ(misses(), 1);
  { ASSERT_OK(pool.GetPage(PageId{1, 0}).status()); }
  EXPECT_EQ(pool.hits(), 1);
}

TEST_F(BufferPoolTest, DirtyPagesFlushAndSurviveReload) {
  BufferPool pool(&fm_, 8, metrics_);
  {
    ASSERT_OK_AND_ASSIGN(PageHandle h, pool.GetPage(PageId{1, 3}));
    PageLatchGuard latch(h);
    h.data()[100] = 0xcd;
    h.MarkDirty();
  }
  EXPECT_EQ(pool.DirtyPageSnapshot().size(), 1u);
  ASSERT_OK(pool.FlushPage(PageId{1, 3}));
  EXPECT_TRUE(pool.DirtyPageSnapshot().empty());

  std::vector<uint8_t> raw(kPageSize);
  ASSERT_OK(fm_.ReadPage(PageId{1, 3}, raw.data(), false));
  EXPECT_EQ(raw[100], 0xcd);
}

TEST_F(BufferPoolTest, EvictionWritesDirtyVictimUnderSteal) {
  BufferPool pool(&fm_, 4, metrics_, {.eviction = EvictionPolicy::kLru});
  {
    ASSERT_OK_AND_ASSIGN(PageHandle h, pool.GetPage(PageId{1, 0}));
    PageLatchGuard latch(h);
    h.data()[0] = 0x42;
    h.MarkDirty();
  }
  // Touch enough pages to force page 0 out.
  for (uint32_t p = 1; p <= 8; ++p) {
    ASSERT_OK(pool.GetPage(PageId{1, p}).status());
  }
  EXPECT_GT(evictions(), 0);
  // The dirty page was stolen to disk: direct read sees the change.
  std::vector<uint8_t> raw(kPageSize);
  ASSERT_OK(fm_.ReadPage(PageId{1, 0}, raw.data(), false));
  EXPECT_EQ(raw[0], 0x42);
}

TEST_F(BufferPoolTest, NoStealNeverEvictsDirty) {
  BufferPool::Options opts;
  opts.eviction = EvictionPolicy::kLru;
  opts.steal = StealPolicy::kNoSteal;
  opts.victim_attempts = 2;
  opts.victim_wait = std::chrono::milliseconds(10);
  BufferPool pool(&fm_, 4, metrics_, opts);
  // Dirty all 4 frames.
  for (uint32_t p = 0; p < 4; ++p) {
    ASSERT_OK_AND_ASSIGN(PageHandle h, pool.GetPage(PageId{1, p}));
    PageLatchGuard latch(h);
    h.data()[0] = static_cast<uint8_t>(p);
    h.MarkDirty();
  }
  // All frames dirty & unpinned: NO-STEAL cannot evict (timeout -> error).
  EXPECT_FALSE(pool.GetPage(PageId{1, 10}).ok());
  // Disk never saw the dirty bytes.
  std::vector<uint8_t> raw(kPageSize);
  ASSERT_OK(fm_.ReadPage(PageId{1, 0}, raw.data(), false));
  EXPECT_EQ(raw[0], 0);
}

TEST_F(BufferPoolTest, PinnedPagesAreNotEvicted) {
  BufferPool pool(&fm_, 2, metrics_);
  ASSERT_OK_AND_ASSIGN(PageHandle pinned, pool.GetPage(PageId{1, 0}));
  ASSERT_OK(pool.GetPage(PageId{1, 1}).status());
  ASSERT_OK(pool.GetPage(PageId{1, 2}).status());  // evicts page 1, not 0
  // Page 0 is still a hit.
  int64_t hits_before = pool.hits();
  ASSERT_OK(pool.GetPage(PageId{1, 0}).status());
  EXPECT_EQ(pool.hits(), hits_before + 1);
}

TEST_F(BufferPoolTest, DiscardAllLosesUnflushedChanges) {
  BufferPool pool(&fm_, 8, metrics_);
  {
    ASSERT_OK_AND_ASSIGN(PageHandle h, pool.GetPage(PageId{1, 5}));
    PageLatchGuard latch(h);
    h.data()[7] = 0x99;
    h.MarkDirty();
  }
  pool.DiscardAll();  // crash: no flush
  ASSERT_OK_AND_ASSIGN(PageHandle h, pool.GetPage(PageId{1, 5}));
  EXPECT_EQ(h.data()[7], 0);  // the change is gone
}

TEST_F(BufferPoolTest, WalHookForcedBeforeFlush) {
  BufferPool pool(&fm_, 8, metrics_);
  Lsn flushed_up_to = 0;
  pool.set_wal_flush_hook([&](Lsn lsn) -> Status {
    flushed_up_to = lsn;
    return Status::OK();
  });
  {
    ASSERT_OK_AND_ASSIGN(PageHandle h, pool.GetPage(PageId{1, 2}));
    PageLatchGuard latch(h);
    Lsn lsn = 77;
    std::memcpy(h.data(), &lsn, sizeof(lsn));  // pageLSN
    h.MarkDirty(lsn);
  }
  ASSERT_OK(pool.FlushPage(PageId{1, 2}));
  EXPECT_EQ(flushed_up_to, 77u);  // WAL rule: log forced up to pageLSN
}

TEST_F(BufferPoolTest, HeaderHookRunsPerFileBeforeFlush) {
  BufferPool pool(&fm_, 8, metrics_);
  std::vector<uint32_t> synced;
  pool.set_header_sync_hook([&](uint32_t file_id) -> Status {
    synced.push_back(file_id);
    return Status::OK();
  });
  {
    ASSERT_OK_AND_ASSIGN(PageHandle h, pool.GetPage(PageId{1, 4}));
    PageLatchGuard latch(h);
    h.MarkDirty();
  }
  ASSERT_OK(pool.FlushAll());
  ASSERT_EQ(synced.size(), 1u);
  EXPECT_EQ(synced[0], 1u);
}

TEST_F(BufferPoolTest, RecLsnTracksFirstDirtier) {
  BufferPool pool(&fm_, 8, metrics_);
  {
    ASSERT_OK_AND_ASSIGN(PageHandle h, pool.GetPage(PageId{1, 6}));
    PageLatchGuard latch(h);
    h.MarkDirty(100);  // first dirtier
    h.MarkDirty(200);  // later change must not move recLSN
  }
  auto snapshot = pool.DirtyPageSnapshotWithRecLsn();
  ASSERT_EQ(snapshot.size(), 1u);
  EXPECT_EQ(snapshot[0].second, 100u);
  // Flush clears; next dirtier sets a fresh recLSN.
  ASSERT_OK(pool.FlushAll());
  {
    ASSERT_OK_AND_ASSIGN(PageHandle h, pool.GetPage(PageId{1, 6}));
    PageLatchGuard latch(h);
    h.MarkDirty(300);
  }
  snapshot = pool.DirtyPageSnapshotWithRecLsn();
  ASSERT_EQ(snapshot.size(), 1u);
  EXPECT_EQ(snapshot[0].second, 300u);
}

TEST_F(BufferPoolTest, ShardCountScalesWithCapacityAndRoundsToPowerOfTwo) {
  // Tiny pools collapse to one shard; big pools cap at 64; an explicit
  // request is rounded up to the next power of two.
  EXPECT_EQ(BufferPool(&fm_, 4, metrics_).shard_count(), 1u);
  EXPECT_EQ(BufferPool(&fm_, 64, metrics_).shard_count(), 8u);
  EXPECT_EQ(BufferPool(&fm_, 8192, metrics_).shard_count(), 64u);
  BufferPool::Options opts;
  opts.shards = 5;
  EXPECT_EQ(BufferPool(&fm_, 16, metrics_, opts).shard_count(), 8u);
}

TEST_F(BufferPoolTest, SaturationReturnsResourceExhausted) {
  BufferPool::Options opts;
  opts.victim_attempts = 2;
  opts.victim_wait = std::chrono::milliseconds(10);
  BufferPool pool(&fm_, 2, metrics_, opts);
  ASSERT_OK_AND_ASSIGN(PageHandle a, pool.GetPage(PageId{1, 0}));
  ASSERT_OK_AND_ASSIGN(PageHandle b, pool.GetPage(PageId{1, 1}));
  // Every frame pinned: the miss exhausts its attempts and reports
  // saturation as a distinct status rather than hanging or asserting.
  Result<PageHandle> r = pool.GetPage(PageId{1, 2});
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsResourceExhausted());
  // Dropping one pin makes the pool usable again.
  a = PageHandle();
  ASSERT_OK(pool.GetPage(PageId{1, 2}).status());
}

TEST_F(BufferPoolTest, ParkedMissWakesWhenPinDrops) {
  BufferPool::Options opts;
  opts.victim_wait = std::chrono::milliseconds(2000);
  BufferPool pool(&fm_, 2, metrics_, opts);
  ASSERT_OK_AND_ASSIGN(PageHandle a, pool.GetPage(PageId{1, 0}));
  ASSERT_OK_AND_ASSIGN(PageHandle b, pool.GetPage(PageId{1, 1}));
  std::atomic<bool> got{false};
  std::thread miss([&] {
    // Parks on the saturation cv; must be woken by the unpin below well
    // before the 2s timeout.
    got = pool.GetPage(PageId{1, 2}).ok();
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  a = PageHandle();  // unpin -> wake the parked miss
  miss.join();
  EXPECT_TRUE(got.load());
}

/// The TSan workhorse: readers scanning a working set larger than the pool,
/// a writer dirtying pages (whole-page patterns under the latch), and a
/// checkpointer flushing — all concurrently. Readers assert pages are never
/// torn; the final accounting asserts every successful GetPage was counted
/// exactly once and all pins were returned.
TEST_F(BufferPoolTest, ConcurrentScanUpdateCheckpointTraffic) {
  constexpr int kPages = 24;  // > 16 frames: constant eviction traffic
  BufferPool pool(&fm_, 16, metrics_);
  std::atomic<int> torn{0};
  std::atomic<int> failures{0};
  std::atomic<int64_t> accesses{0};

  std::vector<std::thread> threads;
  for (int t = 0; t < 3; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 400; ++i) {
        auto h = pool.GetPage(PageId{1, static_cast<uint32_t>((i + t) % kPages)});
        if (!h.ok()) {
          failures++;
          continue;
        }
        accesses++;
        PageLatchGuard latch(*h);
        // The writer fills the whole page with one byte under the latch, so
        // a mixed first/last byte means we saw a torn page.
        if (h->data()[0] != h->data()[kPageSize - 1]) torn++;
      }
    });
  }
  threads.emplace_back([&] {  // writer
    for (int i = 0; i < 400; ++i) {
      auto h = pool.GetPage(PageId{1, static_cast<uint32_t>(i % kPages)});
      if (!h.ok()) {
        failures++;
        continue;
      }
      accesses++;
      PageLatchGuard latch(*h);
      std::memset(h->data(), i & 0xff, kPageSize);
      h->MarkDirty();
    }
  });
  threads.emplace_back([&] {  // checkpointer
    for (int i = 0; i < 20; ++i) {
      if (!pool.FlushAll().ok()) failures++;
      pool.DirtyPageSnapshot();
    }
  });
  for (auto& t : threads) t.join();

  EXPECT_EQ(torn.load(), 0);
  EXPECT_EQ(failures.load(), 0);
  // Stable accounting: every access was a hit or a miss, never both or
  // neither, and no pin leaked (a leak would strand a frame forever).
  EXPECT_EQ(pool.hits() + misses(), accesses.load());
  ASSERT_OK(pool.FlushAll());
  EXPECT_TRUE(pool.DirtyPageSnapshot().empty());
}

TEST_F(BufferPoolTest, ConcurrentReadersShareFrames) {
  BufferPool pool(&fm_, 16, metrics_);
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 500; ++i) {
        auto h = pool.GetPage(PageId{1, static_cast<uint32_t>(i % 8)});
        if (!h.ok()) failures++;
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_LE(misses(), 16);  // the 8 working pages stay resident
}

}  // namespace
}  // namespace harbor
