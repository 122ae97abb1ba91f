// Unit tests for the transaction layer: the timestamp authority's
// stable-time tracking and the versioning store's insert/delete/commit/
// rollback flows (§4.1, §6.1.4).

#include <gtest/gtest.h>

#include "buffer/buffer_pool.h"
#include "exec/seq_scan.h"
#include "lock/lock_manager.h"
#include "storage/local_catalog.h"
#include "tests/test_util.h"
#include "txn/timestamp_authority.h"
#include "txn/transaction.h"
#include "txn/version_store.h"

namespace harbor {
namespace {

using test::MakeTempDir;
using test::SmallSchema;

TEST(TimestampAuthorityTest, AdvanceAndStableTime) {
  TimestampAuthority auth(10);
  EXPECT_EQ(auth.Now(), 10u);
  EXPECT_EQ(auth.StableTime(), 9u);
  auth.Advance();
  EXPECT_EQ(auth.Now(), 11u);
  EXPECT_EQ(auth.StableTime(), 10u);
}

TEST(TimestampAuthorityTest, InflightCommitsHoldBackStableTime) {
  TimestampAuthority auth(10);
  Timestamp ts = auth.BeginCommit();
  EXPECT_EQ(ts, 10u);
  auth.Advance();  // Now = 11
  // The commit at 10 is still applying: historical reads at 10 are unsafe.
  EXPECT_EQ(auth.StableTime(), 9u);
  auth.EndCommit(ts);
  EXPECT_EQ(auth.StableTime(), 10u);
}

TEST(TimestampAuthorityTest, OldestInflightWins) {
  TimestampAuthority auth(5);
  Timestamp t1 = auth.BeginCommit();  // 5
  auth.Advance();
  Timestamp t2 = auth.BeginCommit();  // 6
  auth.Advance();                     // Now = 7
  EXPECT_EQ(auth.StableTime(), 4u);
  auth.EndCommit(t1);
  EXPECT_EQ(auth.StableTime(), 5u);
  auth.EndCommit(t2);
  EXPECT_EQ(auth.StableTime(), 6u);
}

// --------------------------------------------------------- VersionStore

class VersionStoreTest : public ::testing::Test {
 protected:
  VersionStoreTest()
      : fm_(MakeTempDir("vs"), nullptr),
        catalog_(&fm_),
        pool_(&fm_, 256, metrics_),
        locks_(metrics_, std::chrono::milliseconds(200)),
        store_(&catalog_, &pool_, &locks_, nullptr, &txns_) {
    auto obj = catalog_.CreateObject(1, 1, "t", SmallSchema(),
                                     PartitionRange::Full(), 2);
    HARBOR_CHECK_OK(obj.status());
    obj_ = *obj;
  }

  Tuple MakeTuple(TupleId tid, int64_t id) {
    Tuple t(test::SmallRow(id, id * 10, "x"));
    t.set_tuple_id(tid);
    return t;
  }

  std::vector<Tuple> ScanAll(ScanMode mode, Timestamp as_of = 0) {
    ScanSpec spec;
    spec.object_id = 1;
    spec.mode = mode;
    spec.as_of = as_of;
    SeqScanOperator scan(&store_, obj_, spec);
    auto rows = scan.Collect();
    HARBOR_CHECK_OK(rows.status());
    return std::move(rows).value();
  }

  obs::Metrics metrics_;  // declared first: the pool and locks use it
  FileManager fm_;
  LocalCatalog catalog_;
  BufferPool pool_;
  LockManager locks_;
  TxnTable txns_;
  VersionStore store_;
  TableObject* obj_;
};

TEST_F(VersionStoreTest, InsertIsInvisibleUntilCommit) {
  auto txn = txns_.Create(100);
  ASSERT_OK(store_.InsertTuple(txn.get(), obj_, MakeTuple(1, 5)).status());

  // Uncommitted: visible to SEE DELETED, not to snapshot reads.
  EXPECT_EQ(ScanAll(ScanMode::kSeeDeleted).size(), 1u);
  EXPECT_EQ(ScanAll(ScanMode::kSeeDeleted)[0].insertion_ts(),
            kUncommittedTimestamp);
  EXPECT_TRUE(ScanAll(ScanMode::kVisible, 1000).empty());

  ASSERT_OK(store_.StampCommit(txn.get(), 7));
  locks_.ReleaseAll(txn->id);
  txns_.Erase(txn->id);

  auto rows = ScanAll(ScanMode::kVisible, 7);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].insertion_ts(), 7u);
  EXPECT_TRUE(ScanAll(ScanMode::kVisible, 6).empty());
}

TEST_F(VersionStoreTest, RollbackPhysicallyRemovesInserts) {
  auto txn = txns_.Create(100);
  ASSERT_OK_AND_ASSIGN(RecordId rid,
                       store_.InsertTuple(txn.get(), obj_, MakeTuple(1, 5)));
  ASSERT_OK(store_.RollbackTransaction(txn.get()));
  locks_.ReleaseAll(txn->id);
  EXPECT_TRUE(ScanAll(ScanMode::kSeeDeleted).empty());
  EXPECT_TRUE(obj_->index.Lookup(1).empty());
  // The slot is reusable by the next insert (dense packing).
  auto txn2 = txns_.Create(101);
  ASSERT_OK_AND_ASSIGN(RecordId rid2,
                       store_.InsertTuple(txn2.get(), obj_, MakeTuple(2, 6)));
  EXPECT_EQ(rid, rid2);
}

TEST_F(VersionStoreTest, DeleteStampsAtCommitOnly) {
  auto txn = txns_.Create(100);
  ASSERT_OK_AND_ASSIGN(RecordId rid,
                       store_.InsertTuple(txn.get(), obj_, MakeTuple(1, 5)));
  ASSERT_OK(store_.StampCommit(txn.get(), 3));
  locks_.ReleaseAll(txn->id);
  txns_.Erase(txn->id);

  auto txn2 = txns_.Create(101);
  ASSERT_OK(store_.DeleteTuple(txn2.get(), obj_, rid));
  // Before commit the page is untouched (§4.1: no uncommitted deletions on
  // pages).
  ASSERT_OK_AND_ASSIGN(Tuple before, store_.ReadTuple(obj_, rid));
  EXPECT_EQ(before.deletion_ts(), kNotDeleted);

  ASSERT_OK(store_.StampCommit(txn2.get(), 9));
  ASSERT_OK_AND_ASSIGN(Tuple after, store_.ReadTuple(obj_, rid));
  EXPECT_EQ(after.deletion_ts(), 9u);
  // Visible at 8, invisible from 9 on.
  EXPECT_EQ(ScanAll(ScanMode::kVisible, 8).size(), 1u);
  EXPECT_TRUE(ScanAll(ScanMode::kVisible, 9).empty());
}

TEST_F(VersionStoreTest, DoubleDeleteConflictsAbort) {
  auto txn = txns_.Create(100);
  ASSERT_OK_AND_ASSIGN(RecordId rid,
                       store_.InsertTuple(txn.get(), obj_, MakeTuple(1, 5)));
  ASSERT_OK(store_.StampCommit(txn.get(), 3));
  locks_.ReleaseAll(txn->id);

  auto txn2 = txns_.Create(101);
  ASSERT_OK(store_.DeleteTuple(txn2.get(), obj_, rid));
  // Same transaction deleting twice is an error.
  EXPECT_TRUE(store_.DeleteTuple(txn2.get(), obj_, rid).IsAborted());
  ASSERT_OK(store_.StampCommit(txn2.get(), 5));
  locks_.ReleaseAll(txn2->id);
  // Deleting an already-deleted tuple is a write-write conflict.
  auto txn3 = txns_.Create(102);
  EXPECT_TRUE(store_.DeleteTuple(txn3.get(), obj_, rid).IsAborted());
}

TEST_F(VersionStoreTest, SegmentTimestampsMaintainedAtCommit) {
  auto txn = txns_.Create(100);
  ASSERT_OK_AND_ASSIGN(RecordId rid,
                       store_.InsertTuple(txn.get(), obj_, MakeTuple(1, 5)));
  EXPECT_TRUE(obj_->file->MayContainUncommitted(0));
  ASSERT_OK(store_.StampCommit(txn.get(), 12));
  locks_.ReleaseAll(txn->id);
  SegmentInfo seg = obj_->file->segment(0);
  EXPECT_EQ(seg.min_insertion, 12u);
  EXPECT_EQ(seg.max_insertion, 12u);

  auto txn2 = txns_.Create(101);
  ASSERT_OK(store_.DeleteTuple(txn2.get(), obj_, rid));
  ASSERT_OK(store_.StampCommit(txn2.get(), 20));
  EXPECT_EQ(obj_->file->segment(0).max_deletion, 20u);
}

TEST_F(VersionStoreTest, InsertsRollOverSegments) {
  // Segment budget is 2 pages; 56-byte tuples -> 72/page. Insert enough to
  // cross into a second segment.
  auto txn = txns_.Create(100);
  for (int i = 0; i < 200; ++i) {
    ASSERT_OK(store_.InsertTuple(txn.get(), obj_,
                                 MakeTuple(static_cast<TupleId>(i), i))
                  .status());
  }
  EXPECT_GT(obj_->file->num_segments(), 1u);
  ASSERT_OK(store_.StampCommit(txn.get(), 4));
  EXPECT_EQ(ScanAll(ScanMode::kVisible, 4).size(), 200u);
}

TEST_F(VersionStoreTest, InsertCommittedTupleKeepsTimestamps) {
  Tuple t = MakeTuple(5, 50);
  t.set_insertion_ts(33);
  t.set_deletion_ts(44);
  ASSERT_OK(store_.InsertCommittedTuple(obj_, t).status());
  auto rows = ScanAll(ScanMode::kSeeDeleted);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].insertion_ts(), 33u);
  EXPECT_EQ(rows[0].deletion_ts(), 44u);
  SegmentInfo seg = obj_->file->segment(0);
  EXPECT_EQ(seg.min_insertion, 33u);
  EXPECT_EQ(seg.max_deletion, 44u);
}

TEST_F(VersionStoreTest, SetDeletionTsAndPhysicalDelete) {
  Tuple t = MakeTuple(5, 50);
  t.set_insertion_ts(1);
  ASSERT_OK_AND_ASSIGN(RecordId rid, store_.InsertCommittedTuple(obj_, t));
  ASSERT_OK(store_.SetDeletionTs(obj_, rid, 9));
  EXPECT_EQ(store_.ReadTuple(obj_, rid)->deletion_ts(), 9u);
  ASSERT_OK(store_.SetDeletionTs(obj_, rid, kNotDeleted));  // undelete
  EXPECT_EQ(store_.ReadTuple(obj_, rid)->deletion_ts(), kNotDeleted);
  ASSERT_OK(store_.PhysicalDelete(obj_, rid));
  EXPECT_TRUE(store_.ReadTuple(obj_, rid).status().IsNotFound());
  EXPECT_TRUE(obj_->index.Lookup(5).empty());
}

TEST_F(VersionStoreTest, RebuildIndexFindsAllVersions) {
  Tuple v1 = MakeTuple(7, 70);
  v1.set_insertion_ts(1);
  v1.set_deletion_ts(5);
  Tuple v2 = MakeTuple(7, 71);
  v2.set_insertion_ts(5);
  ASSERT_OK(store_.InsertCommittedTuple(obj_, v1).status());
  ASSERT_OK(store_.InsertCommittedTuple(obj_, v2).status());
  obj_->index.Clear();
  obj_->index_built = false;
  ASSERT_OK(store_.EnsureIndex(obj_));
  EXPECT_EQ(obj_->index.Lookup(7).size(), 2u);
  // EnsureIndex is idempotent and cheap once built.
  ASSERT_OK(store_.EnsureIndex(obj_));
  EXPECT_EQ(obj_->index.Lookup(7).size(), 2u);
}

TEST_F(VersionStoreTest, StrictTwoPhaseLockingBlocksConflicts) {
  auto txn = txns_.Create(100);
  ASSERT_OK_AND_ASSIGN(RecordId rid,
                       store_.InsertTuple(txn.get(), obj_, MakeTuple(1, 5)));
  ASSERT_OK(store_.StampCommit(txn.get(), 3));
  locks_.ReleaseAll(txn->id);

  auto t_a = txns_.Create(200);
  ASSERT_OK(store_.DeleteTuple(t_a.get(), obj_, rid));
  // A second transaction cannot take the X page lock until t_a finishes.
  auto t_b = txns_.Create(201);
  EXPECT_TRUE(store_.DeleteTuple(t_b.get(), obj_, rid).IsTimedOut());
  locks_.ReleaseAll(t_a->id);
}

}  // namespace
}  // namespace harbor
