// Unit tests for the executor: scan modes and segment pruning, key scans
// and recovery chunk selection, predicates, and the DML executors.

#include <gtest/gtest.h>

#include "buffer/buffer_pool.h"
#include "core/cluster.h"
#include "exec/dml.h"
#include "exec/predicate.h"
#include "exec/seq_scan.h"
#include "tests/test_util.h"
#include "txn/version_store.h"

namespace harbor {
namespace {

using test::MakeTempDir;
using test::SmallRow;
using test::SmallSchema;

// ------------------------------------------------------------- Predicate

TEST(PredicateTest, CompareOps) {
  Value a(int64_t{5}), b(int64_t{7});
  EXPECT_TRUE(CompareValues(a, CompareOp::kLt, b));
  EXPECT_TRUE(CompareValues(a, CompareOp::kLe, b));
  EXPECT_TRUE(CompareValues(a, CompareOp::kNe, b));
  EXPECT_FALSE(CompareValues(a, CompareOp::kEq, b));
  EXPECT_FALSE(CompareValues(a, CompareOp::kGt, b));
  EXPECT_TRUE(CompareValues(a, CompareOp::kEq, Value(int64_t{5})));
  EXPECT_TRUE(CompareValues(Value(std::string("abc")), CompareOp::kLt,
                            Value(std::string("abd"))));
  // Mixed numeric widths compare by value.
  EXPECT_TRUE(CompareValues(Value(int32_t{3}), CompareOp::kLt,
                            Value(int64_t{4})));
}

TEST(PredicateTest, CompareOpStringRoundTrip) {
  for (CompareOp op : {CompareOp::kEq, CompareOp::kNe, CompareOp::kLt,
                       CompareOp::kLe, CompareOp::kGt, CompareOp::kGe}) {
    CompareOp parsed;
    ASSERT_TRUE(CompareOpFromString(CompareOpToString(op), &parsed));
    EXPECT_EQ(parsed, op);
  }
  CompareOp parsed;
  EXPECT_TRUE(CompareOpFromString("<>", &parsed));  // SQL alias
  EXPECT_EQ(parsed, CompareOp::kNe);
  EXPECT_FALSE(CompareOpFromString("==", &parsed));
  EXPECT_FALSE(CompareOpFromString("", &parsed));
}

TEST(PredicateTest, ConjunctionBindsAndEvaluates) {
  Predicate p;
  p.And("id", CompareOp::kGe, Value(int64_t{10}))
      .And("name", CompareOp::kEq, Value(std::string("x")));
  Schema s = SmallSchema();
  ASSERT_OK_AND_ASSIGN(auto bound, p.Bind(s));
  Tuple yes(SmallRow(10, 0, "x"));
  Tuple no1(SmallRow(9, 0, "x"));
  Tuple no2(SmallRow(10, 0, "y"));
  EXPECT_TRUE(p.EvalBound(bound, yes));
  EXPECT_FALSE(p.EvalBound(bound, no1));
  EXPECT_FALSE(p.EvalBound(bound, no2));
  EXPECT_TRUE(Predicate::True().EvalBound({}, yes));
}

TEST(PredicateTest, SerializationRoundTrip) {
  Predicate p;
  p.And("id", CompareOp::kLt, Value(int64_t{9}))
      .And("name", CompareOp::kNe, Value(std::string("z")));
  ByteBufferWriter w;
  p.Serialize(&w);
  ByteBufferReader r(w.data());
  ASSERT_OK_AND_ASSIGN(Predicate back, Predicate::Deserialize(&r));
  EXPECT_EQ(back.ToString(), p.ToString());
}

TEST(PredicateTest, MissingColumnFailsBind) {
  Predicate p;
  p.And("ghost", CompareOp::kEq, Value(int64_t{1}));
  EXPECT_TRUE(p.Bind(SmallSchema()).status().IsNotFound());
}

// ---------------------------------------------------------- scan fixture

class ExecTest : public ::testing::Test {
 protected:
  ExecTest()
      : fm_(MakeTempDir("exec"), nullptr),
        catalog_(&fm_),
        pool_(&fm_, 512, metrics_),
        locks_(metrics_, std::chrono::milliseconds(200)),
        store_(&catalog_, &pool_, &locks_, nullptr, &txns_) {
    auto obj = catalog_.CreateObject(1, 1, "t", SmallSchema(),
                                     PartitionRange::Full(), 2);
    HARBOR_CHECK_OK(obj.status());
    obj_ = *obj;
  }

  // Inserts a committed tuple with explicit timestamps.
  void Load(TupleId tid, int64_t id, Timestamp ins,
            Timestamp del = kNotDeleted, const std::string& name = "n") {
    Tuple t(SmallRow(id, id * 2, name));
    t.set_tuple_id(tid);
    t.set_insertion_ts(ins);
    t.set_deletion_ts(del);
    HARBOR_CHECK_OK(store_.InsertCommittedTuple(obj_, t).status());
  }

  std::unique_ptr<SeqScanOperator> Scan(ScanSpec spec) {
    spec.object_id = 1;
    return std::make_unique<SeqScanOperator>(&store_, obj_, std::move(spec));
  }

  // One key-first recovery chunk, selected as a serving site selects it.
  std::vector<VersionKey> Chunk(ScanSpec spec, const ScanCursor& after,
                                size_t max_tuples, bool* truncated) {
    auto keys = Scan(std::move(spec))->ScanKeys();
    HARBOR_CHECK_OK(keys.status());
    *truncated = SelectChunk(&*keys, after, max_tuples);
    return std::move(*keys);
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

TEST_F(ExecTest, VisibleScanAppliesSnapshot) {
  Load(1, 1, 2);
  Load(2, 2, 5);
  Load(3, 3, 2, /*del=*/4);
  ScanSpec spec;
  spec.mode = ScanMode::kVisible;
  spec.as_of = 3;
  auto scan = Scan(spec);
  ASSERT_OK_AND_ASSIGN(auto rows, scan->Collect());
  // At time 3: tuple 1 (ins 2) and tuple 3 (deleted at 4, still visible).
  EXPECT_EQ(rows.size(), 2u);
}

TEST_F(ExecTest, HistoricalSeeDeletedMasksFutureDeletions) {
  Load(1, 1, 2, /*del=*/8);
  Load(2, 2, 2, /*del=*/11);
  Load(3, 3, 11);
  ScanSpec spec;
  spec.mode = ScanMode::kSeeDeletedHistorical;
  spec.as_of = 10;
  auto scan = Scan(spec);
  ASSERT_OK_AND_ASSIGN(auto rows, scan->Collect());
  // Insertion at 11 invisible; deletion at 11 appears undone (§5.3).
  ASSERT_EQ(rows.size(), 2u);
  for (const Tuple& t : rows) {
    if (t.tuple_id() == 1) EXPECT_EQ(t.deletion_ts(), 8u);
    if (t.tuple_id() == 2) EXPECT_EQ(t.deletion_ts(), kNotDeleted);
  }
}

TEST_F(ExecTest, TimestampRangePredicates) {
  Load(1, 1, 2);
  Load(2, 2, 5);
  Load(3, 3, 8, /*del=*/9);
  {
    ScanSpec spec;
    spec.mode = ScanMode::kSeeDeleted;
    spec.has_insertion_after = true;
    spec.insertion_after = 4;
    auto scan = Scan(spec);
    ASSERT_OK_AND_ASSIGN(auto rows, scan->Collect());
    EXPECT_EQ(rows.size(), 2u);
  }
  {
    ScanSpec spec;
    spec.mode = ScanMode::kSeeDeleted;
    spec.has_insertion_at_or_before = true;
    spec.insertion_at_or_before = 5;
    spec.has_deletion_after = true;
    spec.deletion_after = 0;
    auto scan = Scan(spec);
    ASSERT_OK_AND_ASSIGN(auto rows, scan->Collect());
    EXPECT_TRUE(rows.empty());  // only tuple 3 is deleted but ins 8 > 5
  }
}

TEST_F(ExecTest, UncommittedSentinelMatchesInsertionAfter) {
  auto txn = txns_.Create(50);
  Tuple t(SmallRow(9, 9, "u"));
  t.set_tuple_id(9);
  ASSERT_OK(store_.InsertTuple(txn.get(), obj_, t).status());
  ScanSpec spec;
  spec.mode = ScanMode::kSeeDeleted;
  spec.has_insertion_after = true;
  spec.insertion_after = 1000;  // uncommitted sentinel > any timestamp
  {
    auto scan = Scan(spec);
    ASSERT_OK_AND_ASSIGN(auto rows, scan->Collect());
    EXPECT_EQ(rows.size(), 1u);
  }
  spec.exclude_uncommitted = true;  // §5.4.1's != uncommitted
  {
    auto scan = Scan(spec);
    ASSERT_OK_AND_ASSIGN(auto rows, scan->Collect());
    EXPECT_TRUE(rows.empty());
  }
}

TEST_F(ExecTest, SegmentPruningSkipsIrrelevantSegments) {
  // Fill three segments with increasing timestamps: segment budget is 2
  // pages (~144 tuples).
  for (int i = 0; i < 450; ++i) {
    Load(static_cast<TupleId>(i), i, static_cast<Timestamp>(1 + i / 150));
  }
  ASSERT_GE(obj_->file->num_segments(), 3u);
  ScanSpec spec;
  spec.mode = ScanMode::kSeeDeleted;
  spec.has_insertion_after = true;
  spec.insertion_after = 2;  // only the last batch (ts 3)
  SeqScanOperator scan(&store_, obj_, spec);
  ASSERT_OK_AND_ASSIGN(auto rows, scan.Collect());
  EXPECT_EQ(rows.size(), 150u);
  EXPECT_GT(scan.segments_pruned(), 0u);
  EXPECT_LT(scan.segments_visited(), obj_->file->num_segments());
}

TEST_F(ExecTest, PartitionRangeFiltersRows) {
  for (int i = 0; i < 20; ++i) Load(static_cast<TupleId>(i), i, 1);
  ScanSpec spec;
  spec.mode = ScanMode::kSeeDeleted;
  spec.range = PartitionRange::On("id", 5, 12);
  auto scan = Scan(spec);
  ASSERT_OK_AND_ASSIGN(auto rows, scan->Collect());
  EXPECT_EQ(rows.size(), 7u);
}

// ------------------------------------------------- chunked scan collection

TEST_F(ExecTest, ScanChunkPagesThroughInAscendingKeyOrder) {
  // Physical order deliberately scrambled relative to insertion time.
  Load(5, 5, 9);
  Load(1, 1, 2);
  Load(4, 4, 7);
  Load(2, 2, 3);
  Load(3, 3, 5);

  ScanSpec spec;
  spec.mode = ScanMode::kSeeDeleted;
  ScanCursor cursor;
  std::vector<TupleId> seen;
  int chunks = 0;
  while (true) {
    bool truncated = false;
    std::vector<VersionKey> chunk = Chunk(spec, cursor, 2, &truncated);
    ++chunks;
    Timestamp prev_ts = cursor.valid ? cursor.insertion_ts : 0;
    for (const VersionKey& k : chunk) {
      EXPECT_GE(k.insertion_ts, prev_ts);
      prev_ts = k.insertion_ts;
      seen.push_back(k.tuple_id);
    }
    if (!truncated) break;
    ASSERT_EQ(chunk.size(), 2u);
    cursor = ScanCursor{true, chunk.back().insertion_ts, chunk.back().tuple_id};
  }
  EXPECT_EQ(chunks, 3);
  EXPECT_EQ(seen, (std::vector<TupleId>{1, 2, 3, 4, 5}));
}

TEST_F(ExecTest, ScanChunkNeverSplitsAnInsertionKeyTieGroup) {
  // Three versions sharing key (ins 5, tuple 2) — the shape a transaction
  // re-updating its own insert produces. A chunk boundary inside the group
  // would make the cursor resume mid-group and duplicate or lose versions.
  Load(1, 1, 2);
  Load(2, 2, 5, /*del=*/6, "v1");
  Load(2, 2, 5, /*del=*/7, "v2");
  Load(2, 2, 5, kNotDeleted, "v3");
  Load(3, 3, 9);

  ScanSpec spec;
  spec.mode = ScanMode::kSeeDeleted;
  bool truncated = false;
  std::vector<VersionKey> first = Chunk(spec, ScanCursor{}, 2, &truncated);
  // The reply exceeds max_tuples rather than splitting the group.
  ASSERT_EQ(first.size(), 4u);
  EXPECT_TRUE(truncated);
  EXPECT_EQ(first.back().insertion_ts, 5u);
  EXPECT_EQ(first.back().tuple_id, 2u);

  // Only the chunk's rows are materialized, each with its key's view.
  ASSERT_OK_AND_ASSIGN(std::vector<Tuple> rows, store_.ReadVersions(obj_, first));
  ASSERT_EQ(rows.size(), 4u);
  for (size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(rows[i].tuple_id(), first[i].tuple_id);
    EXPECT_EQ(rows[i].deletion_ts(), first[i].deletion_ts);
    EXPECT_EQ(rows[i].record_id(), first[i].rid);
  }

  std::vector<VersionKey> rest = Chunk(
      spec, ScanCursor{true, first.back().insertion_ts, first.back().tuple_id},
      2, &truncated);
  ASSERT_EQ(rest.size(), 1u);
  EXPECT_EQ(rest[0].tuple_id, 3u);
  EXPECT_FALSE(truncated);
}

TEST_F(ExecTest, ScanChunkZeroLimitCollectsEverything) {
  for (int i = 0; i < 30; ++i) Load(static_cast<TupleId>(i), i, 1 + i);
  ScanSpec spec;
  spec.mode = ScanMode::kSeeDeleted;
  bool truncated = true;
  EXPECT_EQ(Chunk(spec, ScanCursor{}, 0, &truncated).size(), 30u);
  EXPECT_FALSE(truncated);
}

TEST_F(ExecTest, ScanChunkCursorIsStrictlyExclusive) {
  Load(1, 1, 3);
  Load(2, 2, 3);  // same ts, higher tuple id
  Load(3, 3, 4);
  ScanSpec spec;
  spec.mode = ScanMode::kSeeDeleted;
  bool truncated = true;
  std::vector<VersionKey> chunk =
      Chunk(spec, ScanCursor{true, 3, 1}, 10, &truncated);
  // Key (3,1) is consumed; (3,2) at the same timestamp is not.
  ASSERT_EQ(chunk.size(), 2u);
  EXPECT_EQ(chunk[0].tuple_id, 2u);
  EXPECT_EQ(chunk[1].tuple_id, 3u);
  EXPECT_FALSE(truncated);
}

TEST_F(ExecTest, KeyScanSelectsTheRowsOfTheTupleScan) {
  for (int i = 0; i < 40; ++i) {
    const Timestamp ins = 1 + i % 7;
    Load(static_cast<TupleId>(i), i, ins,
         i % 3 == 0 ? ins + 1 + i % 5 : kNotDeleted, i % 2 == 0 ? "a" : "b");
  }
  std::vector<ScanSpec> specs(5);
  specs[0].mode = ScanMode::kVisible;
  specs[0].as_of = 5;
  specs[1].mode = ScanMode::kSeeDeletedHistorical;
  specs[1].as_of = 4;
  specs[1].has_deletion_after = true;
  specs[1].deletion_after = 2;
  specs[2].mode = ScanMode::kSeeDeleted;
  specs[2].has_insertion_after = true;
  specs[2].insertion_after = 3;
  specs[2].range = PartitionRange::On("id", 5, 30);
  specs[3].mode = ScanMode::kSeeDeleted;
  specs[3].predicate.And("id", CompareOp::kGe, Value(int64_t{12}));
  specs[4].mode = ScanMode::kSeeDeleted;  // a CHAR conjunct needs Unpack
  specs[4].predicate.And("name", CompareOp::kEq, Value(std::string("a")));
  for (size_t s = 0; s < specs.size(); ++s) {
    SCOPED_TRACE("spec " + std::to_string(s));
    auto rows_scan = Scan(specs[s]);
    ASSERT_OK_AND_ASSIGN(std::vector<Tuple> rows, rows_scan->Collect());
    auto key_scan = Scan(specs[s]);
    ASSERT_OK_AND_ASSIGN(std::vector<VersionKey> keys, key_scan->ScanKeys());
    ASSERT_EQ(keys.size(), rows.size());
    ASSERT_OK_AND_ASSIGN(std::vector<Tuple> read,
                         store_.ReadVersions(obj_, keys));
    EXPECT_EQ(read, rows);  // both in storage order
  }
}

TEST_F(ExecTest, ExecInsertRemapsColumnsByName) {
  // Object with permuted physical schema.
  auto obj2 = catalog_.CreateObject(2, 2, "perm",
                                    SmallSchema().Reordered({2, 0, 1}),
                                    PartitionRange::Full(), 2);
  ASSERT_OK(obj2.status());
  auto txn = txns_.Create(77);
  ASSERT_OK(ExecInsert(&store_, txn.get(), *obj2, 5, SmallSchema(),
                       SmallRow(1, 2, "abc"))
                .status());
  ASSERT_OK(store_.StampCommit(txn.get(), 2));
  ScanSpec spec;
  spec.object_id = 2;
  spec.mode = ScanMode::kVisible;
  spec.as_of = 2;
  SeqScanOperator scan(&store_, *obj2, spec);
  ASSERT_OK_AND_ASSIGN(auto rows, scan.Collect());
  ASSERT_EQ(rows.size(), 1u);
  // Physical order: name, id, qty.
  EXPECT_EQ(rows[0].value(0).AsString(), "abc");
  EXPECT_EQ(rows[0].value(1).AsInt64(), 1);
  EXPECT_EQ(rows[0].value(2).AsInt64(), 2);
}

TEST_F(ExecTest, ExecUpdatePreservesTupleId) {
  Load(42, 7, 1);
  auto txn = txns_.Create(88);
  Predicate p;
  p.And("id", CompareOp::kEq, Value(int64_t{7}));
  ASSERT_OK_AND_ASSIGN(
      int64_t n, ExecUpdate(&store_, txn.get(), obj_, p,
                            {SetClause{"qty", Value(int64_t{1000})}}, 1));
  EXPECT_EQ(n, 1);
  ASSERT_OK(store_.StampCommit(txn.get(), 5));
  locks_.ReleaseAll(txn->id);
  // Both versions share tuple id 42.
  EXPECT_EQ(obj_->index.Lookup(42).size(), 2u);
  ScanSpec spec;
  spec.mode = ScanMode::kVisible;
  spec.as_of = 5;
  auto scan = Scan(spec);
  ASSERT_OK_AND_ASSIGN(auto rows, scan->Collect());
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].value(1).AsInt64(), 1000);
  EXPECT_EQ(rows[0].tuple_id(), 42u);
}

TEST_F(ExecTest, ExecDeleteCountsMatches) {
  for (int i = 0; i < 10; ++i) Load(static_cast<TupleId>(i), i, 1);
  auto txn = txns_.Create(99);
  Predicate p;
  p.And("id", CompareOp::kLt, Value(int64_t{4}));
  ASSERT_OK_AND_ASSIGN(int64_t n, ExecDelete(&store_, txn.get(), obj_, p, 1));
  EXPECT_EQ(n, 4);
  ASSERT_OK(store_.StampCommit(txn.get(), 3));
  locks_.ReleaseAll(txn->id);
  ScanSpec spec;
  spec.mode = ScanMode::kVisible;
  spec.as_of = 3;
  auto scan = Scan(spec);
  ASSERT_OK_AND_ASSIGN(auto rows, scan->Collect());
  EXPECT_EQ(rows.size(), 6u);
}

// ------------------------------------- chunked-scan insertion-time cap pin

// Regression: Worker::HandleScan used to recompute a chunked stream's upper
// insertion-time bound from the authority's Now() on EVERY chunk attempt, so
// rows committed while the stream was in flight leaked into later chunks.
// The serving site must pin the cap once, return it in the reply, and honor
// the echoed value on every subsequent chunk.
TEST(ExecChunkCapTest, ChunkedScanCapIsPinnedAcrossChunks) {
  ClusterOptions opt;
  opt.num_workers = 1;
  opt.sim = SimConfig::Zero();
  ASSERT_OK_AND_ASSIGN(auto cluster, Cluster::Create(opt));
  TableSpec tspec;
  tspec.name = "t";
  tspec.schema = SmallSchema();
  tspec.default_segment_page_budget = 2;
  ASSERT_OK_AND_ASSIGN(TableId table, cluster->CreateTable(tspec));
  Coordinator* coord = cluster->coordinator();
  for (int i = 0; i < 10; ++i) {
    ASSERT_OK(coord->InsertTxn(
        table, {Value(int64_t{i}), Value(int64_t{i}), Value("old")}));
  }
  cluster->AdvanceEpoch();

  // The recovery Phase 2 shape: chunked SEE DELETED, committed tuples only.
  ScanMsg msg;
  msg.spec.object_id =
      cluster->worker(0)->local_catalog()->objects()[0]->object_id;
  msg.spec.mode = ScanMode::kSeeDeleted;
  msg.spec.exclude_uncommitted = true;
  msg.max_tuples = 4;
  ASSERT_OK_AND_ASSIGN(Message first_raw,
                       cluster->network()->Call(0, 1, msg.Encode()));
  ASSERT_OK_AND_ASSIGN(ScanReplyMsg reply, ScanReplyMsg::Decode(first_raw));
  ASSERT_TRUE(reply.truncated);
  ASSERT_GT(reply.cap_insertion_ts, 0u) << "serving site did not pin a cap";
  const Timestamp pinned_cap = reply.cap_insertion_ts;

  // Rows committed while the stream is in flight: must NOT appear in any
  // later chunk of this stream.
  cluster->AdvanceEpoch();
  for (int i = 10; i < 15; ++i) {
    ASSERT_OK(coord->InsertTxn(
        table, {Value(int64_t{i}), Value(int64_t{i}), Value("new")}));
  }
  cluster->AdvanceEpoch();

  size_t total = reply.tuples.size();
  while (reply.truncated) {
    msg.has_cursor = true;
    msg.cursor_insertion_ts = reply.last_insertion_ts;
    msg.cursor_tuple_id = reply.last_tuple_id;
    msg.cap_insertion_ts = reply.cap_insertion_ts;  // echo the pin
    ASSERT_OK_AND_ASSIGN(Message raw,
                         cluster->network()->Call(0, 1, msg.Encode()));
    ASSERT_OK_AND_ASSIGN(reply, ScanReplyMsg::Decode(raw));
    EXPECT_EQ(reply.cap_insertion_ts, pinned_cap) << "cap drifted mid-stream";
    for (const Tuple& t : reply.tuples) {
      EXPECT_LE(t.insertion_ts(), pinned_cap);
    }
    total += reply.tuples.size();
  }
  EXPECT_EQ(total, 10u) << "rows committed mid-stream leaked into the chunked "
                           "scan";
}

}  // namespace
}  // namespace harbor
