// Unit tests for the write-ahead log: record serialization, append/flush,
// durability of the forced prefix, group commit batching, and the master
// record.

#include "wal/log_manager.h"

#include <gtest/gtest.h>

#include <thread>

#include "sim/sim_disk.h"
#include "tests/test_util.h"

namespace harbor {
namespace {

using test::MakeTempDir;

LogRecord InsertRecord(TxnId txn, uint32_t page, uint16_t slot) {
  LogRecord rec;
  rec.type = LogRecordType::kTupleInsert;
  rec.txn = txn;
  rec.object_id = 1;
  rec.rid = RecordId{PageId{1, page}, slot};
  rec.tuple_image = {1, 2, 3, 4};
  return rec;
}

TEST(LogRecordTest, AllTypesRoundTrip) {
  std::vector<LogRecord> records;
  records.push_back(InsertRecord(7, 3, 2));
  {
    LogRecord r;
    r.type = LogRecordType::kTupleStamp;
    r.txn = 7;
    r.prev_lsn = 1;
    r.object_id = 2;
    r.rid = RecordId{PageId{2, 9}, 4};
    r.stamp_field = StampField::kDeletion;
    r.before_ts = 0;
    r.after_ts = 55;
    records.push_back(r);
  }
  {
    LogRecord r;
    r.type = LogRecordType::kClr;
    r.txn = 7;
    r.rid = RecordId{PageId{1, 1}, 1};
    r.clr_action = 2;
    r.stamp_field = StampField::kInsertion;
    r.before_ts = kUncommittedTimestamp;
    r.undo_next_lsn = 3;
    records.push_back(r);
  }
  {
    LogRecord r;
    r.type = LogRecordType::kTxnCommit;
    r.txn = 9;
    r.commit_ts = 123;
    records.push_back(r);
  }
  {
    LogRecord r;
    r.type = LogRecordType::kCheckpointEnd;
    r.txn_table.push_back({5, 10, TxnLogState::kPrepared});
    r.dirty_pages.push_back({PageId{1, 2}, 4});
    records.push_back(r);
  }
  {
    LogRecord r;
    r.type = LogRecordType::kDeleteIntent;
    r.txn = 11;
    r.rid = RecordId{PageId{3, 3}, 3};
    records.push_back(r);
  }

  for (const LogRecord& rec : records) {
    ByteBufferWriter w;
    rec.Serialize(&w);
    ByteBufferReader r(w.data());
    ASSERT_OK_AND_ASSIGN(LogRecord back, LogRecord::Deserialize(&r));
    EXPECT_EQ(back.type, rec.type);
    EXPECT_EQ(back.txn, rec.txn);
    EXPECT_EQ(back.rid, rec.rid);
    EXPECT_EQ(back.tuple_image, rec.tuple_image);
    EXPECT_EQ(back.commit_ts, rec.commit_ts);
    EXPECT_EQ(back.undo_next_lsn, rec.undo_next_lsn);
    EXPECT_EQ(back.txn_table.size(), rec.txn_table.size());
    EXPECT_EQ(back.dirty_pages.size(), rec.dirty_pages.size());
  }
}

TEST(LogManagerTest, AppendAssignsMonotoneLsns) {
  std::string dir = MakeTempDir("wal");
  obs::Metrics m;
  ASSERT_OK_AND_ASSIGN(auto log, LogManager::Open(dir, nullptr, true, m));
  Lsn l1 = log->Append(InsertRecord(1, 0, 0));
  Lsn l2 = log->Append(InsertRecord(1, 0, 1));
  EXPECT_EQ(l2, l1 + 1);
  EXPECT_EQ(log->last_lsn(), l2);
  EXPECT_EQ(log->flushed_lsn(), kInvalidLsn);
}

TEST(LogManagerTest, OnlyFlushedPrefixIsDurable) {
  std::string dir = MakeTempDir("wal2");
  obs::Metrics m;
  {
    ASSERT_OK_AND_ASSIGN(auto log, LogManager::Open(dir, nullptr, true, m));
    Lsn l1 = log->Append(InsertRecord(1, 0, 0));
    log->Append(InsertRecord(1, 0, 1));
    ASSERT_OK(log->Flush(l1));
    log->Append(InsertRecord(1, 0, 2));
    // Crash: the object goes away with two unflushed records.
  }
  ASSERT_OK_AND_ASSIGN(auto log, LogManager::Open(dir, nullptr, true, m));
  ASSERT_OK_AND_ASSIGN(auto records, log->ReadAllDurable());
  // Group commit flushed everything pending at Flush time, i.e. l1 and l2;
  // the record appended after the flush is gone.
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].rid.slot, 0);
  EXPECT_EQ(records[1].rid.slot, 1);
  // LSNs continue after the durable prefix.
  EXPECT_EQ(log->Append(InsertRecord(2, 1, 0)), 3u);
}

TEST(LogManagerTest, NonGroupCommitFlushesOnlyOwnPrefix) {
  std::string dir = MakeTempDir("wal3");
  obs::Metrics m;
  {
    ASSERT_OK_AND_ASSIGN(
        auto log, LogManager::Open(dir, nullptr, /*group_commit=*/false, m));
    Lsn l1 = log->Append(InsertRecord(1, 0, 0));
    log->Append(InsertRecord(2, 0, 1));
    ASSERT_OK(log->Flush(l1));  // flushes only up to l1
  }
  ASSERT_OK_AND_ASSIGN(auto log, LogManager::Open(dir, nullptr, false, m));
  ASSERT_OK_AND_ASSIGN(auto records, log->ReadAllDurable());
  EXPECT_EQ(records.size(), 1u);
}

TEST(LogManagerTest, GroupCommitBatchesConcurrentForces) {
  std::string dir = MakeTempDir("wal4");
  obs::Metrics m;
  // A nonzero force latency is what makes concurrent committers pile up
  // behind the leader and ride its forced write.
  SimConfig cfg;
  cfg.disk_force_latency_ns = 200'000;
  SimDisk disk("log", cfg, m);
  ASSERT_OK_AND_ASSIGN(auto log, LogManager::Open(dir, &disk, true, m));

  // Many threads append + force concurrently; group commit should need far
  // fewer forced writes than transactions.
  constexpr int kThreads = 8;
  constexpr int kPerThread = 50;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        Lsn lsn = log->Append(InsertRecord(static_cast<TxnId>(t + 1), 0,
                                           static_cast<uint16_t>(i)));
        HARBOR_CHECK_OK(log->Flush(lsn));
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(log->flushed_lsn(), kThreads * kPerThread);
  EXPECT_LT(m.counter(obs::CounterId::kDiskForcedWrites).value(),
            kThreads * kPerThread);
  ASSERT_OK_AND_ASSIGN(auto records, log->ReadAllDurable());
  EXPECT_EQ(records.size(), static_cast<size_t>(kThreads * kPerThread));
}

TEST(LogManagerTest, MasterRecordRoundTrip) {
  std::string dir = MakeTempDir("wal5");
  obs::Metrics m;
  ASSERT_OK_AND_ASSIGN(auto log, LogManager::Open(dir, nullptr, true, m));
  EXPECT_EQ(log->ReadMasterRecord().value(), kInvalidLsn);
  ASSERT_OK(log->WriteMasterRecord(42));
  EXPECT_EQ(log->ReadMasterRecord().value(), 42u);
  ASSERT_OK(log->WriteMasterRecord(99));
  EXPECT_EQ(log->ReadMasterRecord().value(), 99u);
}

TEST(LogManagerTest, FlushChargesForcedWrites) {
  std::string dir = MakeTempDir("wal6");
  obs::Metrics m;
  SimConfig cfg = SimConfig::Zero();
  SimDisk disk("log", cfg, m);
  ASSERT_OK_AND_ASSIGN(auto log, LogManager::Open(dir, &disk, true, m));
  Lsn lsn = log->Append(InsertRecord(1, 0, 0));
  ASSERT_OK(log->Flush(lsn));
  EXPECT_EQ(m.counter(obs::CounterId::kDiskForcedWrites).value(), 1);
  ASSERT_OK(log->Flush(lsn));  // already durable: no new force
  EXPECT_EQ(m.counter(obs::CounterId::kDiskForcedWrites).value(), 1);
  EXPECT_EQ(m.counter(obs::CounterId::kWalForces).value(), 1);
}

TEST(LogManagerTest, DiscardUnflushedDropsTail) {
  std::string dir = MakeTempDir("wal7");
  obs::Metrics m;
  ASSERT_OK_AND_ASSIGN(auto log, LogManager::Open(dir, nullptr, true, m));
  Lsn l1 = log->Append(InsertRecord(1, 0, 0));
  ASSERT_OK(log->Flush(l1));
  log->Append(InsertRecord(1, 0, 1));
  log->DiscardUnflushed();
  EXPECT_EQ(log->last_lsn(), l1);
  // The next append reuses the discarded LSN (the tail never existed).
  EXPECT_EQ(log->Append(InsertRecord(1, 0, 2)), l1 + 1);
}

// Group-commit ordering contract: when Flush(target) returns OK, everything
// up to `target` is durable — even when the caller was a waiter riding on
// another thread's batch, and even when that leader's batch was formed
// before this caller appended. Many threads hammer append+flush while each
// one verifies the contract at every return; every force is counted once,
// with one latency sample, and charges one forced write to the disk.
TEST(LogManagerTest, ConcurrentForcesRespectTargetOrdering) {
  std::string dir = MakeTempDir("wal8");
  obs::Metrics m;
  SimDisk disk("log", SimConfig::Zero(), m);
  ASSERT_OK_AND_ASSIGN(auto log,
                       LogManager::Open(dir, &disk, /*group_commit=*/true, m));
  constexpr int kThreads = 8;
  constexpr int kPerThread = 100;
  std::atomic<int> violations{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        Lsn lsn = log->Append(InsertRecord(static_cast<TxnId>(t + 1), 0,
                                           static_cast<uint16_t>(i)));
        HARBOR_CHECK_OK(log->Flush(lsn));
        if (log->flushed_lsn() < lsn) violations++;
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(violations.load(), 0);
  EXPECT_EQ(log->flushed_lsn(), kThreads * kPerThread);

  // One wal.force_ns sample and one disk force per wal.forces count.
  const int64_t forces = m.counter(obs::CounterId::kWalForces).value();
  EXPECT_EQ(m.histogram(obs::HistogramId::kWalForceNs).count(), forces);
  EXPECT_EQ(m.counter(obs::CounterId::kDiskForcedWrites).value(), forces);
  EXPECT_EQ(m.counter(obs::CounterId::kWalRecordsFlushed).value(),
            kThreads * kPerThread);
  // Group commit never needs more forces than flush calls.
  EXPECT_LE(forces, kThreads * kPerThread);
  EXPECT_EQ(m.gauge(obs::GaugeId::kWalFlushedLsn).value(),
            static_cast<int64_t>(log->flushed_lsn()));
}

}  // namespace
}  // namespace harbor
