// End-to-end tests of the distributed database: transaction execution,
// commit protocols, historical queries, and non-identical replicas.

#include "core/cluster.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>

#include "exec/seq_scan.h"
#include "tests/test_util.h"

namespace harbor {
namespace {

using test::SmallRow;
using test::SmallSchema;

std::unique_ptr<Cluster> MakeCluster(CommitProtocol protocol,
                                     int workers = 2) {
  ClusterOptions opt;
  opt.num_workers = workers;
  opt.protocol = protocol;
  opt.sim = SimConfig::Zero();
  auto cluster = Cluster::Create(opt);
  HARBOR_CHECK_OK(cluster.status());
  return std::move(cluster).value();
}

Result<TableId> MakeTable(Cluster* cluster, const std::string& name) {
  TableSpec spec;
  spec.name = name;
  spec.schema = SmallSchema();
  spec.default_segment_page_budget = 4;
  return cluster->CreateTable(spec);
}

// A default cluster stores its sites in a fresh temp directory and deletes
// it on destruction; a directory the caller supplied is left in place.
TEST(ClusterTest, DeletesOnlyTheTempDirItCreated) {
  std::string owned;
  {
    auto cluster = MakeCluster(CommitProtocol::kOptimized3PC);
    ASSERT_OK_AND_ASSIGN(TableId table, MakeTable(cluster.get(), "t"));
    ASSERT_OK(cluster->coordinator()->InsertTxn(table, SmallRow(1, 1, "x")));
    ASSERT_OK(cluster->CheckpointAll());
    owned = cluster->base_dir();
    ASSERT_TRUE(std::filesystem::is_directory(owned));
  }
  EXPECT_FALSE(std::filesystem::exists(owned));

  char tmpl[] = "/tmp/harbor-cluster-test-XXXXXX";
  ASSERT_NE(::mkdtemp(tmpl), nullptr);
  const std::string given = tmpl;
  {
    ClusterOptions opt;
    opt.base_dir = given;
    ASSERT_OK_AND_ASSIGN(auto cluster, Cluster::Create(opt));
    ASSERT_OK_AND_ASSIGN(TableId table, MakeTable(cluster.get(), "t"));
    ASSERT_OK(cluster->coordinator()->InsertTxn(table, SmallRow(1, 1, "x")));
    ASSERT_OK(cluster->CheckpointAll());
  }
  EXPECT_TRUE(std::filesystem::is_directory(given + "/site1"));
  std::filesystem::remove_all(given);
}

TEST(ClusterTest, InsertAndQuery) {
  auto cluster = MakeCluster(CommitProtocol::kOptimized3PC);
  ASSERT_OK_AND_ASSIGN(TableId table, MakeTable(cluster.get(), "sales"));
  Coordinator* coord = cluster->coordinator();

  for (int i = 0; i < 10; ++i) {
    ASSERT_OK(coord->InsertTxn(table, SmallRow(i, i * 10, "row")));
  }
  ASSERT_OK_AND_ASSIGN(std::vector<Tuple> rows,
                       coord->Query(table, Predicate::True()));
  EXPECT_EQ(rows.size(), 10u);

  // Predicate pushdown.
  Predicate p;
  p.And("id", CompareOp::kGe, Value(int64_t{5}));
  ASSERT_OK_AND_ASSIGN(rows, coord->Query(table, p));
  EXPECT_EQ(rows.size(), 5u);
}

class AllProtocolsTest : public ::testing::TestWithParam<CommitProtocol> {};

TEST_P(AllProtocolsTest, CommitMakesDataVisibleOnAllReplicas) {
  auto cluster = MakeCluster(GetParam());
  ASSERT_OK_AND_ASSIGN(TableId table, MakeTable(cluster.get(), "t"));
  Coordinator* coord = cluster->coordinator();

  ASSERT_OK_AND_ASSIGN(TxnId txn, coord->Begin());
  ASSERT_OK(coord->Insert(txn, table, SmallRow(1, 100, "a")));
  ASSERT_OK(coord->Insert(txn, table, SmallRow(2, 200, "b")));
  ASSERT_OK(coord->Commit(txn));

  // Every worker's replica holds both committed tuples with real
  // timestamps.
  for (int i = 0; i < cluster->num_workers(); ++i) {
    Worker* w = cluster->worker(i);
    TableObject* obj = w->local_catalog()->objects()[0];
    ScanSpec spec;
    spec.object_id = obj->object_id;
    spec.mode = ScanMode::kSeeDeleted;
    SeqScanOperator scan(w->store(), obj, spec);
    ASSERT_OK_AND_ASSIGN(std::vector<Tuple> rows, scan.Collect());
    ASSERT_EQ(rows.size(), 2u);
    for (const Tuple& t : rows) {
      EXPECT_NE(t.insertion_ts(), kUncommittedTimestamp);
      EXPECT_EQ(t.deletion_ts(), kNotDeleted);
    }
  }
  EXPECT_EQ(cluster->observer()
                .MetricsFor(coord->site_id())
                .counter(obs::CounterId::kTxnCommitted)
                .value(),
            1);
}

TEST_P(AllProtocolsTest, AbortRollsBackEverywhere) {
  auto cluster = MakeCluster(GetParam());
  ASSERT_OK_AND_ASSIGN(TableId table, MakeTable(cluster.get(), "t"));
  Coordinator* coord = cluster->coordinator();

  ASSERT_OK_AND_ASSIGN(TxnId txn, coord->Begin());
  ASSERT_OK(coord->Insert(txn, table, SmallRow(1, 100, "a")));
  ASSERT_OK(coord->Abort(txn));

  ASSERT_OK_AND_ASSIGN(std::vector<Tuple> rows,
                       coord->Query(table, Predicate::True()));
  EXPECT_TRUE(rows.empty());
}

TEST_P(AllProtocolsTest, NoVoteAbortsTransaction) {
  auto cluster = MakeCluster(GetParam());
  ASSERT_OK_AND_ASSIGN(TableId table, MakeTable(cluster.get(), "t"));
  Coordinator* coord = cluster->coordinator();
  ASSERT_OK(coord->InsertTxn(table, SmallRow(1, 10, "kept")));

  cluster->worker(1)->FailNextPrepare();
  ASSERT_OK_AND_ASSIGN(TxnId txn, coord->Begin());
  ASSERT_OK(coord->Insert(txn, table, SmallRow(2, 20, "x")));
  Status st = coord->Commit(txn);
  EXPECT_TRUE(st.IsAborted()) << st.ToString();

  // The YES-voting worker must have rolled back too.
  ASSERT_OK_AND_ASSIGN(std::vector<Tuple> rows,
                       coord->Query(table, Predicate::True()));
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].value(0).AsInt64(), 1);
  EXPECT_EQ(cluster->observer()
                .MetricsFor(coord->site_id())
                .counter(obs::CounterId::kTxnAborted)
                .value(),
            1);

  // The NO voter rolled back, then forced its ABORT record. Restarting it
  // (ARIES replay under the logging protocols, HARBOR recovery under the
  // rest) must keep the rolled-back row out of every replica.
  cluster->CrashWorker(1);
  cluster->AdvanceEpoch();
  ASSERT_OK(cluster->RecoverWorker(1).status());
  cluster->AdvanceEpoch();
  for (int i = 0; i < cluster->num_workers(); ++i) {
    Worker* w = cluster->worker(i);
    TableObject* obj = w->local_catalog()->objects()[0];
    ScanSpec spec;
    spec.object_id = obj->object_id;
    spec.mode = ScanMode::kVisible;
    spec.as_of = cluster->authority()->StableTime();
    SeqScanOperator scan(w->store(), obj, spec);
    ASSERT_OK_AND_ASSIGN(std::vector<Tuple> replica, scan.Collect());
    ASSERT_EQ(replica.size(), 1u) << "worker " << i;
    EXPECT_EQ(replica[0].tuple_id(), rows[0].tuple_id()) << "worker " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Protocols, AllProtocolsTest,
    ::testing::Values(CommitProtocol::kTraditional2PC,
                      CommitProtocol::kOptimized2PC,
                      CommitProtocol::kCanonical3PC,
                      CommitProtocol::kOptimized3PC),
    [](const ::testing::TestParamInfo<CommitProtocol>& info) {
      std::string name = CommitProtocolToString(info.param);
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

TEST(ClusterTest, UpdateIsDeletePlusInsert) {
  auto cluster = MakeCluster(CommitProtocol::kOptimized3PC);
  ASSERT_OK_AND_ASSIGN(TableId table, MakeTable(cluster.get(), "t"));
  Coordinator* coord = cluster->coordinator();

  ASSERT_OK(coord->InsertTxn(table, SmallRow(7, 70, "old")));
  cluster->AdvanceEpoch();

  ASSERT_OK_AND_ASSIGN(TxnId txn, coord->Begin());
  Predicate p;
  p.And("id", CompareOp::kEq, Value(int64_t{7}));
  ASSERT_OK(coord->Update(txn, table, p, {SetClause{"name", Value("new")}}));
  ASSERT_OK(coord->Commit(txn));

  ASSERT_OK_AND_ASSIGN(std::vector<Tuple> rows,
                       coord->Query(table, Predicate::True()));
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].value(2).AsString(), "new");

  // Two versions with the same tuple id live on the page (Figure 3-1
  // semantics: old version deleted, new inserted).
  Worker* w = cluster->worker(0);
  TableObject* obj = w->local_catalog()->objects()[0];
  ScanSpec spec;
  spec.object_id = obj->object_id;
  spec.mode = ScanMode::kSeeDeleted;
  SeqScanOperator scan(w->store(), obj, spec);
  ASSERT_OK_AND_ASSIGN(std::vector<Tuple> versions, scan.Collect());
  ASSERT_EQ(versions.size(), 2u);
  EXPECT_EQ(versions[0].tuple_id(), versions[1].tuple_id());
}

TEST(ClusterTest, HistoricalQueryTimeTravel) {
  auto cluster = MakeCluster(CommitProtocol::kOptimized3PC);
  ASSERT_OK_AND_ASSIGN(TableId table, MakeTable(cluster.get(), "t"));
  Coordinator* coord = cluster->coordinator();

  ASSERT_OK(coord->InsertTxn(table, SmallRow(1, 10, "v1")));
  cluster->AdvanceEpoch();
  const Timestamp before = cluster->authority()->StableTime();

  // Correct the row afterwards.
  ASSERT_OK_AND_ASSIGN(TxnId txn, coord->Begin());
  Predicate p;
  p.And("id", CompareOp::kEq, Value(int64_t{1}));
  ASSERT_OK(coord->Update(txn, table, p, {SetClause{"qty", Value(int64_t{99})}}));
  ASSERT_OK(coord->Commit(txn));
  cluster->AdvanceEpoch();

  // Time travel: the old snapshot still shows the original value (§3.3).
  ASSERT_OK_AND_ASSIGN(std::vector<Tuple> old_rows,
                       coord->HistoricalQuery(table, Predicate::True(),
                                              before));
  ASSERT_EQ(old_rows.size(), 1u);
  EXPECT_EQ(old_rows[0].value(1).AsInt64(), 10);

  ASSERT_OK_AND_ASSIGN(
      std::vector<Tuple> new_rows,
      coord->HistoricalQuery(table, Predicate::True(),
                             cluster->authority()->StableTime()));
  ASSERT_EQ(new_rows.size(), 1u);
  EXPECT_EQ(new_rows[0].value(1).AsInt64(), 99);
}

TEST(ClusterTest, NonIdenticalReplicasStayLogicallyEqual) {
  ClusterOptions opt;
  opt.num_workers = 2;
  opt.sim = SimConfig::Zero();
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<Cluster> cluster,
                       Cluster::Create(opt));

  // Replica 0: logical order, 4-page segments. Replica 1: permuted columns,
  // 8-page segments (§3.1: replicas need not be physically identical).
  TableSpec spec;
  spec.name = "t";
  spec.schema = SmallSchema();
  ReplicaSpec r0;
  r0.worker_index = 0;
  r0.segment_page_budget = 4;
  ReplicaSpec r1;
  r1.worker_index = 1;
  r1.segment_page_budget = 8;
  r1.column_order = {2, 0, 1};  // name, id, qty
  spec.replicas = {r0, r1};
  ASSERT_OK_AND_ASSIGN(TableId table, cluster->CreateTable(spec));

  Coordinator* coord = cluster->coordinator();
  for (int i = 0; i < 400; ++i) {
    ASSERT_OK(coord->InsertTxn(table, SmallRow(i, i, "n" + std::to_string(i))));
  }
  cluster->AdvanceEpoch();

  // Query each replica separately and compare logical contents.
  auto query_worker = [&](int widx) -> std::vector<Tuple> {
    Worker* w = cluster->worker(widx);
    TableObject* obj = w->local_catalog()->objects()[0];
    ScanSpec s;
    s.object_id = obj->object_id;
    s.mode = ScanMode::kVisible;
    s.as_of = cluster->authority()->StableTime();
    SeqScanOperator scan(w->store(), obj, s);
    auto rows = scan.Collect();
    HARBOR_CHECK_OK(rows.status());
    // Remap to logical order.
    auto mapping = SmallSchema().MappingFrom(obj->schema);
    HARBOR_CHECK_OK(mapping.status());
    std::vector<Tuple> out;
    for (const Tuple& t : *rows) out.push_back(t.RemapColumns(*mapping));
    std::sort(out.begin(), out.end(), [](const Tuple& a, const Tuple& b) {
      return a.tuple_id() < b.tuple_id();
    });
    return out;
  };
  std::vector<Tuple> rows0 = query_worker(0);
  std::vector<Tuple> rows1 = query_worker(1);
  ASSERT_EQ(rows0.size(), 400u);
  ASSERT_EQ(rows1.size(), 400u);
  for (size_t i = 0; i < rows0.size(); ++i) {
    EXPECT_EQ(rows0[i], rows1[i]);
  }
  // Physically different: different segment counts.
  EXPECT_NE(
      cluster->worker(0)->local_catalog()->objects()[0]->file->num_segments(),
      cluster->worker(1)->local_catalog()->objects()[0]->file->num_segments());
}

TEST(ClusterTest, PartitionedReplicasCoverReads) {
  ClusterOptions opt;
  opt.num_workers = 3;
  opt.sim = SimConfig::Zero();
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<Cluster> cluster,
                       Cluster::Create(opt));

  // Full copy on worker 0; horizontal halves on workers 1 and 2 (the
  // EMP1/EMP2A/EMP2B layout of §5.1).
  TableSpec spec;
  spec.name = "emp";
  spec.schema = SmallSchema();
  ReplicaSpec full;
  full.worker_index = 0;
  ReplicaSpec lo;
  lo.worker_index = 1;
  lo.partition = PartitionRange::On("id", 0, 1000);
  ReplicaSpec hi;
  hi.worker_index = 2;
  hi.partition = PartitionRange::On("id", 1000, 2000);
  spec.replicas = {full, lo, hi};
  ASSERT_OK_AND_ASSIGN(TableId table, cluster->CreateTable(spec));

  Coordinator* coord = cluster->coordinator();
  for (int64_t id : {5, 500, 1500, 1999}) {
    ASSERT_OK(coord->InsertTxn(table, SmallRow(id, id, "e")));
  }
  cluster->AdvanceEpoch();

  // Partitioned workers only hold their slice.
  EXPECT_EQ(cluster->worker(1)->local_catalog()->objects()[0]->index.size(),
            2u);
  EXPECT_EQ(cluster->worker(2)->local_catalog()->objects()[0]->index.size(),
            2u);

  ASSERT_OK_AND_ASSIGN(std::vector<Tuple> rows,
                       coord->Query(table, Predicate::True()));
  EXPECT_EQ(rows.size(), 4u);

  // With the full copy down, the two partitions still cover all reads.
  cluster->CrashWorker(0);
  ASSERT_OK_AND_ASSIGN(rows, coord->Query(table, Predicate::True()));
  EXPECT_EQ(rows.size(), 4u);
}

TEST(ClusterTest, WorkerCrashMidTxnAbortsAndThroughputContinues) {
  auto cluster = MakeCluster(CommitProtocol::kOptimized3PC, 2);
  ASSERT_OK_AND_ASSIGN(TableId table, MakeTable(cluster.get(), "t"));
  Coordinator* coord = cluster->coordinator();

  ASSERT_OK(coord->InsertTxn(table, SmallRow(1, 1, "a")));
  cluster->CrashWorker(1);

  // Updates ignore crashed sites (§4.1): new transactions keep committing
  // with the remaining replica.
  ASSERT_OK(coord->InsertTxn(table, SmallRow(2, 2, "b")));
  cluster->AdvanceEpoch();
  ASSERT_OK_AND_ASSIGN(std::vector<Tuple> rows,
                       coord->Query(table, Predicate::True()));
  EXPECT_EQ(rows.size(), 2u);
}

}  // namespace
}  // namespace harbor
