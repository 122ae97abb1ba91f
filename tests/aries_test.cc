// Unit tests for the ARIES baseline: redo of committed work, undo of losers
// with CLRs, fuzzy checkpoints, in-doubt resolution, and idempotence —
// exercised directly against a single site's storage stack.

#include "aries/aries.h"

#include <gtest/gtest.h>

#include "buffer/buffer_pool.h"
#include "exec/seq_scan.h"
#include "tests/test_util.h"
#include "txn/version_store.h"

namespace harbor {
namespace {

using test::MakeTempDir;
using test::SmallRow;
using test::SmallSchema;

// A crashable single-site harness: Restart() rebuilds the volatile stack
// over the same files, exactly like a process restart.
class AriesSiteHarness {
 public:
  explicit AriesSiteHarness(const std::string& dir) : dir_(dir) { Restart(false); }

  void Crash() { Restart(true); }

  void Restart(bool discard) {
    if (pool_ && !discard) {
      HARBOR_CHECK_OK(pool_->FlushAll());  // clean shutdown
      HARBOR_CHECK_OK(log_->FlushAll());
    }
    store_.reset();
    log_.reset();
    pool_.reset();
    catalog_.reset();
    fm_.reset();
    fm_ = std::make_unique<FileManager>(dir_, nullptr);
    catalog_ = std::make_unique<LocalCatalog>(fm_.get());
    HARBOR_CHECK_OK(catalog_->OpenAll());
    if (catalog_->objects().empty()) {
      HARBOR_CHECK_OK(catalog_
                          ->CreateObject(1, 1, "t", SmallSchema(),
                                         PartitionRange::Full(), 2)
                          .status());
    }
    pool_ = std::make_unique<BufferPool>(fm_.get(), 256, metrics_);
    auto log = LogManager::Open(dir_, nullptr, true, metrics_);
    HARBOR_CHECK_OK(log.status());
    log_ = std::move(log).value();
    pool_->set_wal_flush_hook([this](Lsn lsn) { return log_->Flush(lsn); });
    pool_->set_header_sync_hook([this](uint32_t file_id) -> Status {
      auto obj = catalog_->GetObject(file_id);
      if (!obj.ok()) return Status::OK();
      return (*obj)->file->SyncHeaderIfDirty();
    });
    store_ = std::make_unique<VersionStore>(catalog_.get(), pool_.get(),
                                            &locks_, log_.get(), &txns_);
    locks_.Reset();
  }

  Result<AriesStats> Recover(InDoubtResolver resolver = PresumedAbortResolver()) {
    AriesRecovery aries(catalog_.get(), pool_.get(), log_.get());
    auto stats = aries.Recover(resolver);
    if (stats.ok()) {
      for (TableObject* obj : catalog_->objects()) {
        HARBOR_CHECK_OK(store_->RebuildIndex(obj));
      }
    }
    return stats;
  }

  TableObject* obj() { return catalog_->objects()[0]; }

  // Runs one single-insert transaction through the local commit path with a
  // forced COMMIT record (the traditional 2PC worker behaviour).
  void CommitInsert(TxnId id, int64_t key, Timestamp ts) {
    auto txn = txns_.Create(id);
    Tuple t(SmallRow(key, key, "x"));
    t.set_tuple_id(static_cast<TupleId>(key));
    HARBOR_CHECK_OK(store_->InsertTuple(txn.get(), obj(), t).status());
    HARBOR_CHECK_OK(store_->StampCommit(txn.get(), ts));
    LogRecord commit;
    commit.type = LogRecordType::kTxnCommit;
    commit.txn = id;
    commit.prev_lsn = txn->last_lsn;
    commit.commit_ts = ts;
    Lsn lsn = log_->Append(std::move(commit));
    HARBOR_CHECK_OK(log_->Flush(lsn));
    LogRecord end;
    end.type = LogRecordType::kTxnEnd;
    end.txn = id;
    log_->Append(std::move(end));
    locks_.ReleaseAll(id);
    txns_.Erase(id);
  }

  // Starts a transaction, leaves it prepared (forced PREPARE) or merely
  // active, then the caller crashes.
  std::shared_ptr<TxnState> StartInsert(TxnId id, int64_t key, bool prepare) {
    auto txn = txns_.Create(id);
    Tuple t(SmallRow(key, key, "x"));
    t.set_tuple_id(static_cast<TupleId>(key));
    HARBOR_CHECK_OK(store_->InsertTuple(txn.get(), obj(), t).status());
    if (prepare) {
      LogRecord rec;
      rec.type = LogRecordType::kTxnPrepare;
      rec.txn = id;
      rec.prev_lsn = txn->last_lsn;
      txn->last_lsn = log_->Append(std::move(rec));
      HARBOR_CHECK_OK(log_->Flush(txn->last_lsn));
    } else {
      HARBOR_CHECK_OK(log_->FlushAll());  // updates durable, fate unknown
    }
    return txn;
  }

  size_t CountRows(ScanMode mode, Timestamp as_of) {
    ScanSpec spec;
    spec.object_id = 1;
    spec.mode = mode;
    spec.as_of = as_of;
    SeqScanOperator scan(store_.get(), obj(), spec);
    auto rows = scan.Collect();
    HARBOR_CHECK_OK(rows.status());
    return rows->size();
  }

  VersionStore* store() { return store_.get(); }
  LogManager* log() { return log_.get(); }
  BufferPool* pool() { return pool_.get(); }
  TxnTable* txns() { return &txns_; }

 private:
  obs::Metrics metrics_;  // declared first: every component uses it
  std::string dir_;
  std::unique_ptr<FileManager> fm_;
  std::unique_ptr<LocalCatalog> catalog_;
  std::unique_ptr<BufferPool> pool_;
  std::unique_ptr<LogManager> log_;
  std::unique_ptr<VersionStore> store_;
  LockManager locks_{metrics_, std::chrono::milliseconds(200)};
  TxnTable txns_;
};

TEST(AriesTest, RedoRestoresCommittedWorkAfterCrash) {
  AriesSiteHarness site(MakeTempDir("aries1"));
  for (int i = 0; i < 30; ++i) {
    site.CommitInsert(100 + i, i, 5);
  }
  // No page ever flushed; crash loses the buffer pool.
  site.Crash();
  EXPECT_EQ(site.CountRows(ScanMode::kVisible, 5), 0u);  // before recovery
  ASSERT_OK_AND_ASSIGN(AriesStats stats, site.Recover());
  EXPECT_GT(stats.records_redone, 0u);
  EXPECT_EQ(stats.loser_txns, 0u);
  EXPECT_EQ(site.CountRows(ScanMode::kVisible, 5), 30u);
}

TEST(AriesTest, UndoRollsBackLoser) {
  AriesSiteHarness site(MakeTempDir("aries2"));
  site.CommitInsert(100, 1, 3);
  site.StartInsert(200, 2, /*prepare=*/false);  // active at crash
  site.Crash();
  ASSERT_OK_AND_ASSIGN(AriesStats stats, site.Recover());
  EXPECT_EQ(stats.loser_txns, 1u);
  EXPECT_GT(stats.records_undone, 0u);
  EXPECT_EQ(site.CountRows(ScanMode::kSeeDeleted, 0), 1u);
  EXPECT_EQ(site.CountRows(ScanMode::kVisible, 3), 1u);
}

TEST(AriesTest, InDoubtResolvedCommit) {
  AriesSiteHarness site(MakeTempDir("aries3"));
  site.StartInsert(300, 7, /*prepare=*/true);
  site.Crash();
  // The coordinator says: committed at time 9.
  InDoubtResolver resolver = [](TxnId) -> Result<InDoubtOutcome> {
    return InDoubtOutcome{true, 9};
  };
  ASSERT_OK_AND_ASSIGN(AriesStats stats, site.Recover(resolver));
  EXPECT_EQ(stats.in_doubt_txns, 1u);
  EXPECT_EQ(site.CountRows(ScanMode::kVisible, 9), 1u);
  EXPECT_EQ(site.CountRows(ScanMode::kVisible, 8), 0u);
}

TEST(AriesTest, InDoubtResolvedAbort) {
  AriesSiteHarness site(MakeTempDir("aries4"));
  site.StartInsert(300, 7, /*prepare=*/true);
  site.Crash();
  ASSERT_OK_AND_ASSIGN(AriesStats stats,
                       site.Recover(PresumedAbortResolver()));
  EXPECT_EQ(stats.in_doubt_txns, 1u);
  EXPECT_EQ(site.CountRows(ScanMode::kSeeDeleted, 0), 0u);
}

TEST(AriesTest, InDoubtDeletionIntentResolvedCommit) {
  AriesSiteHarness site(MakeTempDir("aries5"));
  site.CommitInsert(100, 1, 3);
  // A prepared transaction that deleted tuple 1 (intent only, page
  // untouched), then crash.
  {
    auto txn = site.txns()->Create(300);
    RecordId rid = site.obj()->index.Lookup(1)[0];
    HARBOR_CHECK_OK(site.store()->DeleteTuple(txn.get(), site.obj(), rid));
    LogRecord rec;
    rec.type = LogRecordType::kTxnPrepare;
    rec.txn = 300;
    rec.prev_lsn = txn->last_lsn;
    txn->last_lsn = site.log()->Append(std::move(rec));
    HARBOR_CHECK_OK(site.log()->Flush(txn->last_lsn));
  }
  site.Crash();
  InDoubtResolver resolver = [](TxnId) -> Result<InDoubtOutcome> {
    return InDoubtOutcome{true, 8};
  };
  ASSERT_OK(site.Recover(resolver).status());
  // The deletion stamp was re-derived from the kDeleteIntent record.
  EXPECT_EQ(site.CountRows(ScanMode::kVisible, 7), 1u);
  EXPECT_EQ(site.CountRows(ScanMode::kVisible, 8), 0u);
}

TEST(AriesTest, CheckpointBoundsRedoWork) {
  AriesSiteHarness site(MakeTempDir("aries6"));
  for (int i = 0; i < 20; ++i) site.CommitInsert(100 + i, i, 2);
  // Flush pages and take a fuzzy checkpoint: the pre-checkpoint work needs
  // no redo after a crash.
  HARBOR_CHECK_OK(site.pool()->FlushAll());
  ASSERT_OK(AriesRecovery::WriteCheckpoint(site.log(), site.pool(),
                                           site.txns()));
  for (int i = 20; i < 25; ++i) site.CommitInsert(100 + i, i, 3);
  site.Crash();
  ASSERT_OK_AND_ASSIGN(AriesStats stats, site.Recover());
  EXPECT_EQ(site.CountRows(ScanMode::kVisible, 3), 25u);
  // Redo only covers the 5 post-checkpoint transactions (2 records each:
  // insert + stamp), not the 20 earlier ones.
  EXPECT_LE(stats.records_redone, 10u);
  EXPECT_GT(stats.checkpoint_lsn, 0u);
}

TEST(AriesTest, CrashDuringUndoIsIdempotent) {
  AriesSiteHarness site(MakeTempDir("aries7"));
  site.CommitInsert(100, 1, 2);
  site.StartInsert(200, 2, false);
  site.Crash();
  ASSERT_OK(site.Recover().status());
  // Crash immediately after recovery (whose CLRs are durable) and recover
  // again: repeating history must not double-apply anything.
  site.Crash();
  ASSERT_OK(site.Recover().status());
  site.Crash();
  ASSERT_OK(site.Recover().status());
  EXPECT_EQ(site.CountRows(ScanMode::kVisible, 2), 1u);
  EXPECT_EQ(site.CountRows(ScanMode::kSeeDeleted, 0), 1u);
}

TEST(AriesTest, StealFlushedUncommittedPagesAreUndone) {
  AriesSiteHarness site(MakeTempDir("aries8"));
  site.StartInsert(200, 5, false);
  // STEAL: the dirty page with the uncommitted tuple reaches disk (the WAL
  // hook forces the insert record first).
  HARBOR_CHECK_OK(site.pool()->FlushAll());
  site.Crash();
  ASSERT_OK_AND_ASSIGN(AriesStats stats, site.Recover());
  EXPECT_EQ(stats.loser_txns, 1u);
  EXPECT_EQ(site.CountRows(ScanMode::kSeeDeleted, 0), 0u);
}

}  // namespace
}  // namespace harbor
