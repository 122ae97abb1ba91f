// Tests for the per-segment secondary index (§4.2) and its integration
// with the scan operator and transactional maintenance.

#include "storage/secondary_index.h"

#include <gtest/gtest.h>

#include "core/cluster.h"
#include "exec/seq_scan.h"
#include "tests/test_util.h"

namespace harbor {
namespace {

using test::SmallRow;
using test::SmallSchema;

TEST(SecondaryIndexTest, InsertLookupRemovePerSegment) {
  SecondaryIndex index("qty");
  RecordId r0{PageId{1, 4}, 0};
  RecordId r1{PageId{1, 9}, 3};
  RecordId r2{PageId{1, 20}, 1};
  index.Insert(0, 100, r0);
  index.Insert(1, 100, r1);  // same key, different segment
  index.Insert(1, 200, r2);

  EXPECT_EQ(index.LookupRange(100, 100).size(), 2u);
  EXPECT_EQ(index.LookupRange(200, 200).size(), 1u);
  EXPECT_TRUE(index.LookupRange(300, 300).empty());
  EXPECT_EQ(index.size(), 3u);

  index.Remove(0, 100, r0);
  ASSERT_EQ(index.LookupRange(100, 100).size(), 1u);
  EXPECT_EQ(index.LookupRange(100, 100)[0], r1);
  // Removing from the wrong segment is a no-op.
  index.Remove(0, 200, r2);
  EXPECT_EQ(index.LookupRange(200, 200).size(), 1u);
}

TEST(SecondaryIndexTest, RangeLookup) {
  SecondaryIndex index("qty");
  for (int64_t k = 0; k < 20; ++k) {
    index.Insert(static_cast<size_t>(k % 3), k,
                 RecordId{PageId{1, static_cast<uint32_t>(k)}, 0});
  }
  EXPECT_EQ(index.LookupRange(5, 9).size(), 5u);
  EXPECT_EQ(index.LookupRange(0, 19).size(), 20u);
  EXPECT_TRUE(index.LookupRange(100, 200).empty());
}

class IndexedClusterTest : public ::testing::Test {
 protected:
  IndexedClusterTest() {
    ClusterOptions opt;
    opt.num_workers = 2;
    opt.sim = SimConfig::Zero();
    auto cluster = Cluster::Create(opt);
    HARBOR_CHECK_OK(cluster.status());
    cluster_ = std::move(cluster).value();
    TableSpec spec;
    spec.name = "t";
    spec.schema = SmallSchema();
    spec.default_segment_page_budget = 2;
    spec.indexed_column = "qty";
    auto table = cluster_->CreateTable(spec);
    HARBOR_CHECK_OK(table.status());
    table_ = *table;
  }

  // Scans worker 0 with the given predicate; returns (rows, used_index,
  // pages_visited).
  std::tuple<std::vector<Tuple>, bool, size_t> ScanWith(Predicate p) {
    Worker* w = cluster_->worker(0);
    TableObject* obj = w->local_catalog()->objects()[0];
    ScanSpec spec;
    spec.object_id = obj->object_id;
    spec.mode = ScanMode::kVisible;
    spec.as_of = cluster_->authority()->StableTime();
    spec.predicate = std::move(p);
    SeqScanOperator scan(w->store(), obj, spec);
    auto rows = scan.Collect();
    HARBOR_CHECK_OK(rows.status());
    return {std::move(rows).value(), scan.used_index(),
            scan.pages_visited()};
  }

  std::unique_ptr<Cluster> cluster_;
  TableId table_;
};

TEST_F(IndexedClusterTest, EqualityProbeUsesIndexAndMatchesFullScan) {
  Coordinator* coord = cluster_->coordinator();
  for (int i = 0; i < 300; ++i) {
    ASSERT_OK(coord->InsertTxn(table_, SmallRow(i, i % 10, "x")));
  }
  cluster_->AdvanceEpoch();

  Predicate eq;
  eq.And("qty", CompareOp::kEq, Value(int64_t{7}));
  auto [indexed_rows, used_index, pages] = ScanWith(eq);
  EXPECT_TRUE(used_index);
  EXPECT_EQ(indexed_rows.size(), 30u);
  // One page visit per candidate at most.
  EXPECT_LE(pages, 30u);

  // A multi-conjunct predicate containing the indexed column still probes
  // the index and agrees on the result set.
  Predicate other;
  other.And("id", CompareOp::kLt, Value(int64_t{300}))
      .And("qty", CompareOp::kEq, Value(int64_t{7}));
  auto [more_rows, used2, pages2] = ScanWith(other);
  EXPECT_TRUE(used2);
  EXPECT_EQ(more_rows.size(), indexed_rows.size());

  // A predicate without the indexed column full-scans.
  Predicate no_index;
  no_index.And("id", CompareOp::kGe, Value(int64_t{0}));
  auto [all_rows, used3, pages3] = ScanWith(no_index);
  EXPECT_FALSE(used3);
  EXPECT_EQ(all_rows.size(), 300u);
  (void)pages2;
  (void)pages3;

  // On a selective probe the index touches a small fraction of a LARGE
  // table's pages.
  ASSERT_OK(coord->InsertTxn(table_, SmallRow(9999, 777777, "rare")));
  cluster_->AdvanceEpoch();
  Predicate rare;
  rare.And("qty", CompareOp::kEq, Value(int64_t{777777}));
  auto [rare_rows, used4, pages4] = ScanWith(rare);
  EXPECT_TRUE(used4);
  EXPECT_EQ(rare_rows.size(), 1u);
  EXPECT_EQ(pages4, 1u);
}

TEST_F(IndexedClusterTest, IndexRespectsVisibilityAndUpdates) {
  Coordinator* coord = cluster_->coordinator();
  ASSERT_OK(coord->InsertTxn(table_, SmallRow(1, 42, "a")));
  cluster_->AdvanceEpoch();

  // Update moves the row to a different key: the old version remains in the
  // index (it is a version, not garbage) but is filtered by visibility.
  ASSERT_OK_AND_ASSIGN(TxnId txn, coord->Begin());
  Predicate p;
  p.And("id", CompareOp::kEq, Value(int64_t{1}));
  ASSERT_OK(coord->Update(txn, table_, p,
                          {SetClause{"qty", Value(int64_t{43})}}));
  ASSERT_OK(coord->Commit(txn));
  cluster_->AdvanceEpoch();

  Predicate old_key;
  old_key.And("qty", CompareOp::kEq, Value(int64_t{42}));
  auto [old_rows, u1, p1] = ScanWith(old_key);
  EXPECT_TRUE(u1);
  EXPECT_TRUE(old_rows.empty());  // deleted version invisible

  Predicate new_key;
  new_key.And("qty", CompareOp::kEq, Value(int64_t{43}));
  auto [new_rows, u2, p2] = ScanWith(new_key);
  EXPECT_TRUE(u2);
  EXPECT_EQ(new_rows.size(), 1u);
  (void)p1;
  (void)p2;
}

TEST_F(IndexedClusterTest, AbortedInsertLeavesNoIndexEntry) {
  Coordinator* coord = cluster_->coordinator();
  ASSERT_OK_AND_ASSIGN(TxnId txn, coord->Begin());
  ASSERT_OK(coord->Insert(txn, table_, SmallRow(1, 77, "ghost")));
  ASSERT_OK(coord->Abort(txn));
  TableObject* obj = cluster_->worker(0)->local_catalog()->objects()[0];
  EXPECT_EQ(obj->secondary->size(), 0u);
}

TEST_F(IndexedClusterTest, IndexRebuiltAfterRestartAndRecovery) {
  Coordinator* coord = cluster_->coordinator();
  for (int i = 0; i < 50; ++i) {
    ASSERT_OK(coord->InsertTxn(table_, SmallRow(i, i, "x")));
  }
  cluster_->AdvanceEpoch();
  cluster_->CrashWorker(0);
  ASSERT_OK(cluster_->RecoverWorker(0).status());
  cluster_->AdvanceEpoch();

  Predicate eq;
  eq.And("qty", CompareOp::kEq, Value(int64_t{25}));
  auto [rows, used, pages] = ScanWith(eq);
  EXPECT_TRUE(used);
  EXPECT_EQ(rows.size(), 1u);
  (void)pages;
}

TEST_F(IndexedClusterTest, ReplicasCanBeIndexedDifferently) {
  TableSpec spec;
  spec.name = "mixed";
  spec.schema = SmallSchema();
  ReplicaSpec by_qty;
  by_qty.worker_index = 0;
  by_qty.indexed_column = "qty";
  ReplicaSpec unindexed;
  unindexed.worker_index = 1;
  spec.replicas = {by_qty, unindexed};
  ASSERT_OK_AND_ASSIGN(TableId mixed, cluster_->CreateTable(spec));
  ASSERT_OK(cluster_->coordinator()->InsertTxn(mixed, SmallRow(1, 5, "m")));
  cluster_->AdvanceEpoch();
  ASSERT_OK_AND_ASSIGN(
      TableObject * w0,
      cluster_->worker(0)->local_catalog()->GetObjectByName("mixed@1"));
  ASSERT_OK_AND_ASSIGN(
      TableObject * w1,
      cluster_->worker(1)->local_catalog()->GetObjectByName("mixed@2"));
  EXPECT_NE(w0->secondary, nullptr);
  EXPECT_EQ(w1->secondary, nullptr);
  EXPECT_EQ(w0->secondary->size(), 1u);
}

TEST_F(IndexedClusterTest, NonIntegerIndexColumnRejected) {
  TableSpec spec;
  spec.name = "bad";
  spec.schema = SmallSchema();
  spec.indexed_column = "name";  // CHAR column
  EXPECT_TRUE(cluster_->CreateTable(spec).status().IsInvalidArgument());
}

}  // namespace
}  // namespace harbor
