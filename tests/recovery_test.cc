// End-to-end crash recovery tests: HARBOR's three-phase replica-query
// recovery (Chapter 5), ARIES restart under the logging protocols, online
// recovery under concurrent load, and failure-during-recovery handling
// (§5.5).

#include "core/recovery_manager.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <thread>

#include "core/cluster.h"
#include "exec/seq_scan.h"
#include "fault/fault_injector.h"
#include "obs/observer.h"
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

Result<TableId> MakeTable(Cluster* cluster, const std::string& name,
                          uint32_t segment_pages = 4) {
  TableSpec spec;
  spec.name = name;
  spec.schema = SmallSchema();
  spec.default_segment_page_budget = segment_pages;
  return cluster->CreateTable(spec);
}

// Worker `i`'s object of `table`, or its first object when `table` is 0.
TableObject* ObjectOf(Cluster* cluster, int i, TableId table = 0) {
  for (TableObject* obj : cluster->worker(i)->local_catalog()->objects()) {
    if (table == 0 || obj->table_id == table) return obj;
  }
  return nullptr;
}

// Orders rows by (tuple id, insertion time): visible rows by tuple id,
// and every version of a tuple oldest first.
bool ByTupleVersion(const Tuple& a, const Tuple& b) {
  return std::make_pair(a.tuple_id(), a.insertion_ts()) <
         std::make_pair(b.tuple_id(), b.insertion_ts());
}

// Logical contents of worker `i`'s object of `table` (its only object by
// default) as a `mode` scan presents them — visible rows by default, every
// version with its timestamps under kSeeDeleted — sorted by ByTupleVersion.
std::vector<Tuple> Contents(Cluster* cluster, int i, Timestamp as_of,
                            TableId table = 0,
                            ScanMode mode = ScanMode::kVisible) {
  Worker* w = cluster->worker(i);
  TableObject* obj = ObjectOf(cluster, i, table);
  ScanSpec spec;
  spec.object_id = obj->object_id;
  spec.mode = mode;
  spec.as_of = as_of;
  SeqScanOperator scan(w->store(), obj, spec);
  auto rows = scan.Collect();
  HARBOR_CHECK_OK(rows.status());
  auto mapping = SmallSchema().MappingFrom(obj->schema);
  HARBOR_CHECK_OK(mapping.status());
  std::vector<Tuple> out;
  for (const Tuple& t : *rows) out.push_back(t.RemapColumns(*mapping));
  std::sort(out.begin(), out.end(), ByTupleVersion);
  return out;
}

void ExpectReplicasEqual(Cluster* cluster, Timestamp as_of,
                         TableId table = 0) {
  std::vector<Tuple> reference = Contents(cluster, 0, as_of, table);
  for (int i = 1; i < cluster->num_workers(); ++i) {
    std::vector<Tuple> other = Contents(cluster, i, as_of, table);
    ASSERT_EQ(reference.size(), other.size()) << "replica " << i;
    for (size_t j = 0; j < reference.size(); ++j) {
      EXPECT_EQ(reference[j], other[j]) << "replica " << i << " row " << j;
    }
  }
}

int RecoveryAttempts(obs::Observer* o) {
  int n = 0;
  for (const obs::TraceEvent& e : o->MergedTrace()) {
    if (std::string(e.kind) == "recovery.begin") ++n;
  }
  return n;
}

TEST(HarborRecoveryTest, RecoversInsertsAfterCheckpoint) {
  auto cluster = MakeCluster(CommitProtocol::kOptimized3PC);
  ASSERT_OK_AND_ASSIGN(TableId table, MakeTable(cluster.get(), "t"));
  Coordinator* coord = cluster->coordinator();

  // Baseline data, checkpointed everywhere.
  for (int i = 0; i < 20; ++i) {
    ASSERT_OK(coord->InsertTxn(table, SmallRow(i, i, "base")));
  }
  cluster->AdvanceEpoch();
  ASSERT_OK(cluster->CheckpointAll());

  // Updates after the checkpoint: these never reach worker 1's disk.
  for (int i = 20; i < 60; ++i) {
    ASSERT_OK(coord->InsertTxn(table, SmallRow(i, i, "fresh")));
  }
  cluster->AdvanceEpoch();

  cluster->CrashWorker(1);
  // More inserts while the site is down — recovery must pick these up too.
  for (int i = 60; i < 80; ++i) {
    ASSERT_OK(coord->InsertTxn(table, SmallRow(i, i, "late")));
  }
  cluster->AdvanceEpoch();

  ASSERT_OK_AND_ASSIGN(RecoveryStats stats, cluster->RecoverWorker(1));
  EXPECT_EQ(stats.objects.size(), 1u);
  EXPECT_GT(stats.objects[0].phase2_tuples_copied +
                stats.objects[0].phase3_tuples_copied,
            0u);

  cluster->AdvanceEpoch();
  ExpectReplicasEqual(cluster.get(), cluster->authority()->StableTime());
  ASSERT_OK_AND_ASSIGN(std::vector<Tuple> rows,
                       coord->Query(table, Predicate::True()));
  EXPECT_EQ(rows.size(), 80u);
}

TEST(HarborRecoveryTest, Phase1RemovesUncommittedAndPostCheckpointState) {
  auto cluster = MakeCluster(CommitProtocol::kOptimized3PC);
  ASSERT_OK_AND_ASSIGN(TableId table, MakeTable(cluster.get(), "t"));
  Coordinator* coord = cluster->coordinator();

  for (int i = 0; i < 10; ++i) {
    ASSERT_OK(coord->InsertTxn(table, SmallRow(i, i, "base")));
  }
  cluster->AdvanceEpoch();
  ASSERT_OK(cluster->CheckpointAll());

  // Post-checkpoint committed inserts, flushed to disk via STEAL-style
  // flush (so Phase 1 has something to remove).
  for (int i = 10; i < 15; ++i) {
    ASSERT_OK(coord->InsertTxn(table, SmallRow(i, i, "post")));
  }
  // A deletion after the checkpoint, also flushed.
  {
    ASSERT_OK_AND_ASSIGN(TxnId txn, coord->Begin());
    Predicate p;
    p.And("id", CompareOp::kEq, Value(int64_t{3}));
    ASSERT_OK(coord->Delete(txn, table, p));
    ASSERT_OK(coord->Commit(txn));
  }
  // An uncommitted insert left hanging at worker 1 (pending transaction).
  ASSERT_OK_AND_ASSIGN(TxnId hanging, coord->Begin());
  ASSERT_OK(coord->Insert(hanging, table, SmallRow(99, 99, "uncommitted")));
  // Flush pages at worker 1 without a checkpoint record (STEAL).
  ASSERT_OK(cluster->worker(1)->pool()->FlushAll());
  cluster->AdvanceEpoch();

  cluster->CrashWorker(1);
  ASSERT_OK(coord->Abort(hanging));  // coordinator gives up on the txn

  ASSERT_OK_AND_ASSIGN(RecoveryStats stats, cluster->RecoverWorker(1));
  const ObjectRecoveryStats& obj = stats.objects[0];
  // Phase 1 must have physically removed the flushed post-checkpoint
  // inserts (5 committed + 1 uncommitted) and undone the flushed deletion.
  EXPECT_EQ(obj.phase1_removed, 6u);
  EXPECT_EQ(obj.phase1_undeleted, 1u);
  // And Phases 2-3 must have copied the committed ones back.
  EXPECT_EQ(obj.phase2_tuples_copied + obj.phase3_tuples_copied, 5u);
  EXPECT_EQ(obj.phase2_deletions_copied + obj.phase3_deletions_copied, 1u);

  cluster->AdvanceEpoch();
  ExpectReplicasEqual(cluster.get(), cluster->authority()->StableTime());
}

TEST(HarborRecoveryTest, RecoversUpdatesToHistoricalSegments) {
  auto cluster = MakeCluster(CommitProtocol::kOptimized3PC);
  ASSERT_OK_AND_ASSIGN(TableId table, MakeTable(cluster.get(), "t", 2));
  Coordinator* coord = cluster->coordinator();

  // Fill several segments.
  for (int i = 0; i < 400; ++i) {
    ASSERT_OK(coord->InsertTxn(table, SmallRow(i, i, "base")));
  }
  cluster->AdvanceEpoch();
  ASSERT_OK(cluster->CheckpointAll());
  size_t nsegs =
      cluster->worker(1)->local_catalog()->objects()[0]->file->num_segments();
  ASSERT_GT(nsegs, 2u);

  // Update scattered historical rows (delete + insert semantics touch old
  // segments' deletion timestamps).
  for (int64_t id : {3, 77, 150, 333}) {
    ASSERT_OK_AND_ASSIGN(TxnId txn, coord->Begin());
    Predicate p;
    p.And("id", CompareOp::kEq, Value(id));
    ASSERT_OK(coord->Update(txn, table, p,
                            {SetClause{"qty", Value(int64_t{-1})}}));
    ASSERT_OK(coord->Commit(txn));
  }
  cluster->AdvanceEpoch();

  cluster->CrashWorker(1);
  ASSERT_OK_AND_ASSIGN(RecoveryStats stats, cluster->RecoverWorker(1));
  (void)stats;
  cluster->AdvanceEpoch();
  ExpectReplicasEqual(cluster.get(), cluster->authority()->StableTime());

  Predicate p;
  p.And("qty", CompareOp::kEq, Value(int64_t{-1}));
  ASSERT_OK_AND_ASSIGN(std::vector<Tuple> rows, coord->Query(table, p));
  EXPECT_EQ(rows.size(), 4u);
}

TEST(HarborRecoveryTest, ParallelMultiObjectRecovery) {
  auto cluster = MakeCluster(CommitProtocol::kOptimized3PC);
  ASSERT_OK_AND_ASSIGN(TableId t1, MakeTable(cluster.get(), "a"));
  ASSERT_OK_AND_ASSIGN(TableId t2, MakeTable(cluster.get(), "b"));
  Coordinator* coord = cluster->coordinator();

  for (int i = 0; i < 30; ++i) {
    ASSERT_OK(coord->InsertTxn(t1, SmallRow(i, i, "a")));
    ASSERT_OK(coord->InsertTxn(t2, SmallRow(i, i, "b")));
  }
  cluster->AdvanceEpoch();

  cluster->CrashWorker(1);
  RecoveryOptions opt;
  opt.parallel = true;
  ASSERT_OK_AND_ASSIGN(RecoveryStats stats, cluster->RecoverWorker(1, opt));
  EXPECT_EQ(stats.objects.size(), 2u);
  for (const auto& obj : stats.objects) {
    EXPECT_EQ(obj.phase2_tuples_copied + obj.phase3_tuples_copied, 30u);
  }
  cluster->AdvanceEpoch();
  ASSERT_OK_AND_ASSIGN(auto rows1, coord->Query(t1, Predicate::True()));
  ASSERT_OK_AND_ASSIGN(auto rows2, coord->Query(t2, Predicate::True()));
  EXPECT_EQ(rows1.size(), 30u);
  EXPECT_EQ(rows2.size(), 30u);
}

TEST(HarborRecoveryTest, OnlineRecoveryUnderConcurrentInserts) {
  ClusterOptions copt;
  copt.num_workers = 2;
  copt.protocol = CommitProtocol::kOptimized3PC;
  copt.sim = SimConfig::Zero();
  copt.epoch_tick_ms = 5;  // advancing clock so StableTime moves
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<Cluster> cluster,
                       Cluster::Create(copt));
  ASSERT_OK_AND_ASSIGN(TableId table, MakeTable(cluster.get(), "t"));
  Coordinator* coord = cluster->coordinator();

  for (int i = 0; i < 50; ++i) {
    ASSERT_OK(coord->InsertTxn(table, SmallRow(i, i, "pre")));
  }
  cluster->CrashWorker(1);

  // Keep inserting while recovery runs: the system is never quiesced
  // (§5.3). The inserter uses ids disjoint from the preload.
  std::atomic<bool> stop{false};
  std::atomic<int> inserted{0};
  std::thread writer([&] {
    int64_t id = 1000;
    while (!stop.load()) {
      Status st = coord->InsertTxn(table, SmallRow(id, id, "live"));
      if (st.ok()) {
        ++inserted;
        ++id;
      }
    }
  });

  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  auto stats = cluster->RecoverWorker(1);
  stop = true;
  writer.join();
  ASSERT_OK(stats.status());

  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  ASSERT_OK_AND_ASSIGN(std::vector<Tuple> rows,
                       coord->Query(table, Predicate::True()));
  EXPECT_EQ(rows.size(), 50u + static_cast<size_t>(inserted.load()));
  ExpectReplicasEqual(cluster.get(), cluster->authority()->StableTime());
}

TEST(HarborRecoveryTest, PartitionedBuddiesCoverFullReplica) {
  // Recovering a full replica from two horizontal partitions (§5.1's
  // example): worker 0 holds the full copy, workers 1-2 hold halves.
  ClusterOptions opt;
  opt.num_workers = 3;
  opt.sim = SimConfig::Zero();
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<Cluster> cluster,
                       Cluster::Create(opt));
  TableSpec spec;
  spec.name = "emp";
  spec.schema = SmallSchema();
  ReplicaSpec full;
  full.worker_index = 0;
  ReplicaSpec lo;
  lo.worker_index = 1;
  lo.partition = PartitionRange::On("id", 0, 100);
  ReplicaSpec hi;
  hi.worker_index = 2;
  hi.partition = PartitionRange::On("id", 100, 200);
  spec.replicas = {full, lo, hi};
  ASSERT_OK_AND_ASSIGN(TableId table, cluster->CreateTable(spec));

  Coordinator* coord = cluster->coordinator();
  for (int64_t id = 0; id < 200; id += 10) {
    ASSERT_OK(coord->InsertTxn(table, SmallRow(id, id, "e")));
  }
  cluster->AdvanceEpoch();

  cluster->CrashWorker(0);  // the full copy dies
  for (int64_t id = 5; id < 200; id += 50) {
    ASSERT_OK(coord->InsertTxn(table, SmallRow(id, id, "late")));
  }
  cluster->AdvanceEpoch();

  ASSERT_OK_AND_ASSIGN(RecoveryStats stats, cluster->RecoverWorker(0));
  ASSERT_EQ(stats.objects.size(), 1u);
  cluster->AdvanceEpoch();

  // The recovered full copy serves all rows.
  std::vector<Tuple> recovered =
      Contents(cluster.get(), 0, cluster->authority()->StableTime());
  EXPECT_EQ(recovered.size(), 24u);
}

// Recovering the full replica from two partitioned buddies with a
// checkpoint, post-checkpoint deletions and updates of checkpointed rows
// (some flushed before the crash, so Phase 1 undoes them, some committed
// while the site was down) and a delta of several chunks per piece: every
// version the halves hold, deletion times included, lands exactly once.
TEST(HarborRecoveryTest, PartitionedBuddiesRecoverCheckpointDeletionsAndDelta) {
  ClusterOptions opt;
  opt.num_workers = 3;
  opt.sim = SimConfig::Zero();
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<Cluster> cluster,
                       Cluster::Create(opt));
  TableSpec spec;
  spec.name = "emp";
  spec.schema = SmallSchema();
  ReplicaSpec full;
  full.worker_index = 0;
  ReplicaSpec lo;
  lo.worker_index = 1;
  lo.partition = PartitionRange::On("id", 0, 100);
  ReplicaSpec hi;
  hi.worker_index = 2;
  hi.partition = PartitionRange::On("id", 100, 200);
  spec.replicas = {full, lo, hi};
  ASSERT_OK_AND_ASSIGN(TableId table, cluster->CreateTable(spec));
  Coordinator* coord = cluster->coordinator();
  auto id_is = [](int64_t id) {
    Predicate p;
    p.And("id", CompareOp::kEq, Value(id));
    return p;
  };

  for (int64_t id = 0; id < 200; id += 5) {
    ASSERT_OK(coord->InsertTxn(table, SmallRow(id, id, "base")));
  }
  cluster->AdvanceEpoch();
  ASSERT_OK(cluster->CheckpointAll());

  // Changes to checkpointed rows that reach the full copy's disk.
  for (int64_t id : {10, 110}) ASSERT_OK(coord->DeleteTxn(table, id_is(id)));
  for (int64_t id : {20, 120}) {
    ASSERT_OK(coord->UpdateTxn(table, id_is(id),
                               {SetClause{"qty", Value(int64_t{-1})}}));
  }
  ASSERT_OK(cluster->worker(0)->pool()->FlushAll());
  cluster->AdvanceEpoch();
  cluster->CrashWorker(0);

  // Changes while the full copy is down, and a delta of 40 rows per half.
  for (int64_t id : {30, 130}) ASSERT_OK(coord->DeleteTxn(table, id_is(id)));
  for (int64_t id : {40, 140}) {
    ASSERT_OK(coord->UpdateTxn(table, id_is(id),
                               {SetClause{"qty", Value(int64_t{-2})}}));
  }
  for (int64_t i = 0; i < 40; ++i) {
    ASSERT_OK(coord->InsertTxn(table, SmallRow(2 * i + 1, i, "delta")));
    ASSERT_OK(coord->InsertTxn(table, SmallRow(101 + 2 * i, i, "delta")));
  }
  ASSERT_OK(coord->DeleteTxn(table, id_is(101)));
  cluster->AdvanceEpoch();

  RecoveryOptions ropt;
  ropt.stream_chunk_tuples = 8;
  ASSERT_OK_AND_ASSIGN(RecoveryStats stats, cluster->RecoverWorker(0, ropt));
  ASSERT_EQ(stats.objects.size(), 1u);
  const ObjectRecoveryStats& obj = stats.objects[0];
  // 80 delta rows plus the new versions of the four updates.
  EXPECT_EQ(obj.phase2_tuples_copied + obj.phase3_tuples_copied, 84u);
  // Two deletions and two updated-away versions, before and after the crash.
  EXPECT_EQ(obj.phase2_deletions_copied + obj.phase3_deletions_copied, 8u);
  cluster->AdvanceEpoch();

  const Timestamp now = cluster->authority()->StableTime();
  auto versions = [&](int i) {
    return Contents(cluster.get(), i, now, /*table=*/0, ScanMode::kSeeDeleted);
  };
  std::vector<Tuple> halves = versions(1);
  for (const Tuple& t : versions(2)) halves.push_back(t);
  std::sort(halves.begin(), halves.end(), ByTupleVersion);
  std::vector<Tuple> recovered = versions(0);
  ASSERT_EQ(recovered.size(), halves.size());
  for (size_t j = 0; j < halves.size(); ++j) {
    EXPECT_EQ(recovered[j], halves[j]) << "version " << j;
  }
  EXPECT_EQ(Contents(cluster.get(), 0, now).size(), 40u - 4u + 80u - 1u);
}

TEST(HarborRecoveryTest, BuddyCrashDuringRecoveryFailsOverToOtherBuddy) {
  auto cluster = MakeCluster(CommitProtocol::kOptimized3PC, 3);
  ASSERT_OK_AND_ASSIGN(TableId table, MakeTable(cluster.get(), "t"));
  Coordinator* coord = cluster->coordinator();
  for (int i = 0; i < 30; ++i) {
    ASSERT_OK(coord->InsertTxn(table, SmallRow(i, i, "x")));
  }
  cluster->AdvanceEpoch();

  cluster->CrashWorker(2);
  // Kill one buddy; recovery must succeed from the remaining one.
  cluster->CrashWorker(1);
  ASSERT_OK_AND_ASSIGN(RecoveryStats stats, cluster->RecoverWorker(2));
  (void)stats;
  cluster->AdvanceEpoch();
  std::vector<Tuple> recovered =
      Contents(cluster.get(), 2, cluster->authority()->StableTime());
  EXPECT_EQ(recovered.size(), 30u);
}

TEST(HarborRecoveryTest, AllBuddiesDownMeansKSafetyExceeded) {
  auto cluster = MakeCluster(CommitProtocol::kOptimized3PC, 2);
  ASSERT_OK_AND_ASSIGN(TableId table, MakeTable(cluster.get(), "t"));
  ASSERT_OK(cluster->coordinator()->InsertTxn(table, SmallRow(1, 1, "x")));
  cluster->AdvanceEpoch();

  cluster->CrashWorker(0);
  cluster->CrashWorker(1);
  auto stats = cluster->RecoverWorker(1);
  EXPECT_FALSE(stats.ok());
  EXPECT_TRUE(stats.status().IsUnavailable()) << stats.status().ToString();
}

// Satellite regression: a buddy that is itself mid-recovery holds an
// incomplete replica and must never be chosen as a cover source. With the
// only other copy on a kRecovering site, the cover is uncoverable — the
// old "not down" check would instead have streamed garbage from it.
TEST(HarborRecoveryTest, RecoveringBuddyIsNotAValidCoverSource) {
  auto cluster = MakeCluster(CommitProtocol::kOptimized3PC, 2);
  ASSERT_OK_AND_ASSIGN(TableId table, MakeTable(cluster.get(), "t"));
  ASSERT_OK(cluster->coordinator()->InsertTxn(table, SmallRow(1, 1, "x")));
  cluster->AdvanceEpoch();

  cluster->CrashWorker(0);
  cluster->CrashWorker(1);
  // Worker 0 restarts but is still mid-recovery: endpoint up, state
  // kRecovering, replica not yet caught up.
  ASSERT_OK(cluster->worker(0)->Start(SiteState::kRecovering));
  RecoveryOptions opt;
  opt.max_attempts = 2;
  auto stats = cluster->RecoverWorker(1, opt);
  ASSERT_FALSE(stats.ok());
  EXPECT_TRUE(stats.status().IsUnavailable()) << stats.status().ToString();
}

// Satellite regression: when every replica of an object is unreachable the
// recovery must give up after RecoveryOptions::max_attempts whole-recovery
// attempts with kUnavailable naming the object — not retry forever.
TEST(HarborRecoveryTest, ExhaustedRetriesNameTheUncoverableObject) {
  auto cluster = MakeCluster(CommitProtocol::kOptimized3PC, 2);
  obs::Observer& observer = cluster->observer();
  observer.EnableTrace();
  ASSERT_OK_AND_ASSIGN(TableId table, MakeTable(cluster.get(), "t"));
  ASSERT_OK(cluster->coordinator()->InsertTxn(table, SmallRow(1, 1, "x")));
  cluster->AdvanceEpoch();

  cluster->CrashWorker(0);
  cluster->CrashWorker(1);
  RecoveryOptions opt;
  opt.max_attempts = 3;
  auto stats = cluster->RecoverWorker(1, opt);
  ASSERT_FALSE(stats.ok());
  EXPECT_TRUE(stats.status().IsUnavailable()) << stats.status().ToString();
  // The operator needs to know *which* object is uncoverable.
  EXPECT_NE(stats.status().message().find("recovery of object"),
            std::string::npos)
      << stats.status().message();
  EXPECT_LE(RecoveryAttempts(&observer), opt.max_attempts);
}

// --------------------------------------------------------------- ARIES

class AriesRecoveryEndToEndTest
    : public ::testing::TestWithParam<CommitProtocol> {};

TEST_P(AriesRecoveryEndToEndTest, CommittedDataSurvivesCrash) {
  auto cluster = MakeCluster(GetParam());
  ASSERT_OK_AND_ASSIGN(TableId table, MakeTable(cluster.get(), "t"));
  Coordinator* coord = cluster->coordinator();

  for (int i = 0; i < 40; ++i) {
    ASSERT_OK(coord->InsertTxn(table, SmallRow(i, i, "x")));
  }
  // Delete a few rows.
  {
    ASSERT_OK_AND_ASSIGN(TxnId txn, coord->Begin());
    Predicate p;
    p.And("id", CompareOp::kLt, Value(int64_t{5}));
    ASSERT_OK(coord->Delete(txn, table, p));
    ASSERT_OK(coord->Commit(txn));
  }
  cluster->AdvanceEpoch();

  // Crash without any page flush: everything must come back from the log.
  cluster->CrashWorker(1);
  ASSERT_OK(cluster->RecoverWorker(1).status());
  cluster->AdvanceEpoch();
  ExpectReplicasEqual(cluster.get(), cluster->authority()->StableTime());
  std::vector<Tuple> rows =
      Contents(cluster.get(), 1, cluster->authority()->StableTime());
  EXPECT_EQ(rows.size(), 35u);
}

INSTANTIATE_TEST_SUITE_P(LoggingProtocols, AriesRecoveryEndToEndTest,
                         ::testing::Values(CommitProtocol::kTraditional2PC,
                                           CommitProtocol::kCanonical3PC),
                         [](const auto& info) {
                           return info.param ==
                                          CommitProtocol::kTraditional2PC
                                      ? "traditional2PC"
                                      : "canonical3PC";
                         });

TEST(AriesRecoveryEndToEndTest, RepeatedCrashesAreIdempotent) {
  auto cluster = MakeCluster(CommitProtocol::kTraditional2PC);
  ASSERT_OK_AND_ASSIGN(TableId table, MakeTable(cluster.get(), "t"));
  Coordinator* coord = cluster->coordinator();
  for (int i = 0; i < 10; ++i) {
    ASSERT_OK(coord->InsertTxn(table, SmallRow(i, i, "x")));
  }
  cluster->AdvanceEpoch();
  for (int round = 0; round < 3; ++round) {
    cluster->CrashWorker(1);
    ASSERT_OK(cluster->RecoverWorker(1).status());
  }
  std::vector<Tuple> rows =
      Contents(cluster.get(), 1, cluster->authority()->StableTime());
  EXPECT_EQ(rows.size(), 10u);
}

// ------------------------------------------- coordinator failure (§4.3.3)

TEST(ConsensusTest, CoordinatorCrashAfterPrepareToCommitCommits) {
  auto cluster = MakeCluster(CommitProtocol::kOptimized3PC);
  ASSERT_OK_AND_ASSIGN(TableId table, MakeTable(cluster.get(), "t"));
  Coordinator* coord = cluster->coordinator();

  ASSERT_OK_AND_ASSIGN(TxnId txn, coord->Begin());
  ASSERT_OK(coord->Insert(txn, table, SmallRow(1, 1, "x")));

  // Drive the workers to prepared-to-commit by hand (as a coordinator that
  // dies right after the second phase would).
  const Timestamp ts = cluster->authority()->BeginCommit();
  for (int i = 0; i < 2; ++i) {
    PrepareMsg prepare;
    prepare.txn = txn;
    prepare.coordinator = 0;
    prepare.participants = {1, 2};
    ASSERT_OK_AND_ASSIGN(
        Message vote,
        cluster->network()->Call(0, Cluster::WorkerSite(i),
                                 prepare.Encode()));
    ASSERT_OK_AND_ASSIGN(VoteReply v, VoteReply::Decode(vote));
    ASSERT_TRUE(v.yes);
  }
  for (int i = 0; i < 2; ++i) {
    CommitTsMsg ptc;
    ptc.type = MsgType::kPrepareToCommit;
    ptc.txn = txn;
    ptc.commit_ts = ts;
    ASSERT_OK(cluster->network()
                  ->Call(0, Cluster::WorkerSite(i), ptc.Encode())
                  .status());
  }
  // The coordinator "crashes" before sending COMMIT.
  cluster->coordinator()->Crash();

  // Workers detect the crash and run the consensus building protocol; per
  // Table 4.1 a backup in prepared-to-commit replays the final phases and
  // commits with the same time.
  for (int attempt = 0; attempt < 100; ++attempt) {
    if (cluster->worker(0)->txns()->size() == 0 &&
        cluster->worker(1)->txns()->size() == 0) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(cluster->worker(0)->txns()->size(), 0u);
  EXPECT_EQ(cluster->worker(1)->txns()->size(), 0u);
  cluster->AdvanceEpoch();
  std::vector<Tuple> rows =
      Contents(cluster.get(), 0, cluster->authority()->StableTime());
  ASSERT_EQ(rows.size(), 1u);
  ExpectReplicasEqual(cluster.get(), cluster->authority()->StableTime());
}

TEST(ConsensusTest, CoordinatorCrashBeforePrepareToCommitAborts) {
  auto cluster = MakeCluster(CommitProtocol::kOptimized3PC);
  ASSERT_OK_AND_ASSIGN(TableId table, MakeTable(cluster.get(), "t"));
  Coordinator* coord = cluster->coordinator();

  ASSERT_OK_AND_ASSIGN(TxnId txn, coord->Begin());
  ASSERT_OK(coord->Insert(txn, table, SmallRow(1, 1, "x")));
  for (int i = 0; i < 2; ++i) {
    PrepareMsg prepare;
    prepare.txn = txn;
    prepare.coordinator = 0;
    prepare.participants = {1, 2};
    ASSERT_OK(cluster->network()
                  ->Call(0, Cluster::WorkerSite(i), prepare.Encode())
                  .status());
  }
  cluster->coordinator()->Crash();

  // No site reached prepared-to-commit, so the backup coordinator must
  // abort (Table 4.1).
  for (int attempt = 0; attempt < 100; ++attempt) {
    if (cluster->worker(0)->txns()->size() == 0 &&
        cluster->worker(1)->txns()->size() == 0) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(cluster->worker(0)->txns()->size(), 0u);
  EXPECT_EQ(cluster->worker(1)->txns()->size(), 0u);
  cluster->AdvanceEpoch();
  std::vector<Tuple> rows =
      Contents(cluster.get(), 0, cluster->authority()->StableTime());
  EXPECT_TRUE(rows.empty());
}

TEST(ConsensusTest, CrashedRecoveringSiteLocksAreReleased) {
  // §5.5.1: when a recovering site dies while holding table read locks on
  // its buddies, the buddies override the ownership so transactions can
  // progress.
  auto cluster = MakeCluster(CommitProtocol::kOptimized3PC, 2);
  ASSERT_OK_AND_ASSIGN(TableId table, MakeTable(cluster.get(), "t"));
  ASSERT_OK(cluster->coordinator()->InsertTxn(table, SmallRow(1, 1, "x")));
  cluster->AdvanceEpoch();

  // Simulate the recovering site taking a table lock on worker 0's object.
  ObjectId object =
      cluster->worker(0)->local_catalog()->objects()[0]->object_id;
  TableLockMsg lock;
  lock.type = MsgType::kTableLock;
  lock.object_id = object;
  lock.owner_site = Cluster::WorkerSite(1);
  ASSERT_OK(
      cluster->network()->Call(Cluster::WorkerSite(1), Cluster::WorkerSite(0),
                               lock.Encode()).status());
  EXPECT_GE(cluster->worker(0)->locks()->NumLockedResources(), 1u);

  cluster->CrashWorker(1);
  // The crash subscription released the dead site's locks; an update txn
  // can now commit on worker 0.
  ASSERT_OK(cluster->coordinator()->InsertTxn(table, SmallRow(2, 2, "y")));
}

// ---------------------------------------------------- streaming catch-up

// Counts "recovery.begin" events in the merged trace — one per top-level
// recovery attempt (§5.5.2 restarts bump it; same-attempt retries do not).
TEST(RecoveryStreamTest, ChunkedCatchUpBoundsReplySizes) {
  auto cluster = MakeCluster(CommitProtocol::kOptimized3PC);
  obs::Observer& observer = cluster->observer();
  test::TraceDumpOnFailure dump_on_failure(observer);
  ASSERT_OK_AND_ASSIGN(TableId table, MakeTable(cluster.get(), "t"));
  Coordinator* coord = cluster->coordinator();

  for (int i = 0; i < 10; ++i) {
    ASSERT_OK(coord->InsertTxn(table, SmallRow(i, i, "base")));
  }
  cluster->AdvanceEpoch();
  ASSERT_OK(cluster->CheckpointAll());
  for (int i = 10; i < 170; ++i) {
    ASSERT_OK(coord->InsertTxn(table, SmallRow(i, i, "delta")));
  }
  cluster->AdvanceEpoch();

  cluster->CrashWorker(1);
  RecoveryOptions opt;
  opt.stream_chunk_tuples = 16;
  ASSERT_OK_AND_ASSIGN(RecoveryStats stats, cluster->RecoverWorker(1, opt));
  EXPECT_EQ(stats.objects[0].phase2_tuples_copied +
                stats.objects[0].phase3_tuples_copied,
            160u);

  cluster->AdvanceEpoch();
  ExpectReplicasEqual(cluster.get(), cluster->authority()->StableTime());

  // The 160-tuple delta must have arrived as many bounded replies, not one
  // monolithic message: at least ceil(160/16) chunks for the insertion
  // stream alone, and no single reply carrying the bulk of the bytes.
  const obs::Metrics& m = observer.MetricsFor(Cluster::WorkerSite(1));
  EXPECT_GE(m.counter(obs::CounterId::kRecoveryChunks).value(), 10);
  const obs::Histogram& bytes =
      m.histogram(obs::HistogramId::kRecoveryChunkBytes);
  ASSERT_GT(bytes.count(), 0);
  EXPECT_LT(bytes.max() * 4, bytes.sum())
      << "one reply carried most of the transfer; chunking is not bounding "
         "peak reply size";
}

// A trickle-loaded delta gives every row its own commit timestamp. The
// buddy must still fill each chunk instead of shipping one row per round
// trip, or a recovering site falls behind writers that commit quickly.
TEST(RecoveryStreamTest, TrickleDeltaShipsFullChunks) {
  auto cluster = MakeCluster(CommitProtocol::kOptimized3PC);
  obs::Observer& observer = cluster->observer();
  ASSERT_OK_AND_ASSIGN(TableId table, MakeTable(cluster.get(), "t"));
  Coordinator* coord = cluster->coordinator();
  ASSERT_OK(coord->InsertTxn(table, SmallRow(0, 0, "base")));
  cluster->AdvanceEpoch();
  ASSERT_OK(cluster->CheckpointAll());
  for (int i = 1; i <= 160; ++i) {
    ASSERT_OK(coord->InsertTxn(table, SmallRow(i, i, "delta")));
    cluster->AdvanceEpoch();
  }

  cluster->CrashWorker(1);
  RecoveryOptions opt;
  opt.stream_chunk_tuples = 16;
  ASSERT_OK_AND_ASSIGN(RecoveryStats stats, cluster->RecoverWorker(1, opt));
  EXPECT_EQ(stats.objects[0].phase2_tuples_copied +
                stats.objects[0].phase3_tuples_copied,
            160u);
  cluster->AdvanceEpoch();
  ExpectReplicasEqual(cluster.get(), cluster->authority()->StableTime());
  // ceil(160/16) insert chunks plus a few for the deletion pass and the
  // stream tails; one row per chunk would be ~160.
  EXPECT_LE(observer.MetricsFor(Cluster::WorkerSite(1))
                .counter(obs::CounterId::kRecoveryChunks)
                .value(),
            20);
}

// StreamScan's request for chunk N+1 must reach the buddy before chunk N's
// apply returns: the double-buffered pipeline hides the transfer behind the
// apply, which is why CallAsync never runs its handler on the caller. Chunk
// 1's apply waits for the buddy to see the chunk 2 request; a serial fetch
// would time that wait out instead of hanging the test.
TEST(RecoveryStreamTest, NextChunkIsRequestedBeforeApplyReturns) {
  Network net(SimConfig::Zero());
  std::mutex mu;
  std::condition_variable cv;
  int requests = 0;
  ASSERT_OK(net.RegisterSite(2, [&](SiteId, const Message&) {
    ScanReplyMsg reply;
    reply.minimal = true;
    std::lock_guard<std::mutex> lock(mu);
    ++requests;
    reply.id_deletions.push_back(IdDeletion{static_cast<TupleId>(requests),
                                            /*deletion_ts=*/5,
                                            /*insertion_ts=*/1});
    reply.truncated = requests == 1;
    reply.last_insertion_ts = 1;
    reply.last_tuple_id = static_cast<TupleId>(requests);
    cv.notify_all();
    return Result<Message>(reply.Encode());
  }, 1));
  ScanMsg scan;
  scan.minimal_projection = true;
  int applied = 0;
  bool prefetched = false;
  obs::Metrics metrics;
  ASSERT_OK(StreamScan(&net, metrics, /*self=*/1, /*buddy=*/2, scan,
                       /*chunk_tuples=*/1, [&](ScanReplyMsg&) {
    if (applied++ == 0) {
      std::unique_lock<std::mutex> lock(mu);
      prefetched = cv.wait_for(lock, std::chrono::seconds(5),
                               [&] { return requests >= 2; });
    }
    return Status::OK();
  }));
  EXPECT_TRUE(prefetched) << "chunk 2 was requested only after chunk 1 applied";
  EXPECT_EQ(applied, 2);
  EXPECT_EQ(requests, 2);
}

TEST(RecoveryStreamTest, ResumesFromDurableWatermarkAfterMidStreamFailure) {
  auto cluster = MakeCluster(CommitProtocol::kOptimized3PC);
  obs::Observer& observer = cluster->observer();
  test::TraceDumpOnFailure dump_on_failure(observer);
  ASSERT_OK_AND_ASSIGN(TableId table, MakeTable(cluster.get(), "t"));
  Coordinator* coord = cluster->coordinator();

  for (int i = 0; i < 10; ++i) {
    ASSERT_OK(coord->InsertTxn(table, SmallRow(i, i, "base")));
  }
  cluster->AdvanceEpoch();
  ASSERT_OK(cluster->CheckpointAll());
  for (int i = 10; i < 130; ++i) {
    ASSERT_OK(coord->InsertTxn(table, SmallRow(i, i, "delta")));
  }
  cluster->AdvanceEpoch();
  cluster->CrashWorker(1);

  // Kill attempt 1's catch-up stream on its fifth chunk. Chunks 1-4 were
  // applied and (interval 1) each advanced the durable watermark, so
  // attempt 2 must resume past chunk 4 instead of re-copying the object —
  // and must not duplicate the tuples chunks 1-4 already landed.
  fault::ChaosSchedule sched;
  fault::PointFault p;
  p.point = "recovery.phase2.chunk";
  p.site = Cluster::WorkerSite(1);
  p.hit = 5;
  p.action = fault::FaultAction::kError;
  sched.points.push_back(p);
  fault::FaultInjector injector(std::move(sched), &observer);
  injector.Install();

  RecoveryOptions opt;
  opt.stream_chunk_tuples = 8;
  opt.watermark_interval_chunks = 1;
  ASSERT_OK_AND_ASSIGN(RecoveryStats stats, cluster->RecoverWorker(1, opt));
  injector.Uninstall();

  const obs::Metrics& m = observer.MetricsFor(Cluster::WorkerSite(1));
  EXPECT_GE(m.counter(obs::CounterId::kRecoveryStreamResumes).value(), 1)
      << "attempt 2 restarted the stream from scratch instead of resuming "
         "from the durable watermark";
  EXPECT_EQ(RecoveryAttempts(&observer), 2);

  // No duplicated and no lost tuples across the interrupted stream.
  cluster->AdvanceEpoch();
  ExpectReplicasEqual(cluster.get(), cluster->authority()->StableTime());
  ASSERT_OK_AND_ASSIGN(std::vector<Tuple> rows,
                       coord->Query(table, Predicate::True()));
  EXPECT_EQ(rows.size(), 130u);
  (void)stats;
}

TEST(RecoveryStreamTest, ParallelStreamsSplitTheRoundAcrossBuddies) {
  auto cluster = MakeCluster(CommitProtocol::kOptimized3PC, 4);
  obs::Observer& observer = cluster->observer();
  test::TraceDumpOnFailure dump_on_failure(observer);
  ASSERT_OK_AND_ASSIGN(TableId table, MakeTable(cluster.get(), "t"));
  Coordinator* coord = cluster->coordinator();

  for (int i = 0; i < 10; ++i) {
    ASSERT_OK(coord->InsertTxn(table, SmallRow(i, i, "base")));
  }
  cluster->AdvanceEpoch();
  ASSERT_OK(cluster->CheckpointAll());
  // Spread the delta over many insertion epochs so the (checkpoint, HWM]
  // range splits into non-trivial windows.
  for (int batch = 0; batch < 15; ++batch) {
    for (int i = 0; i < 10; ++i) {
      int id = 10 + batch * 10 + i;
      ASSERT_OK(coord->InsertTxn(table, SmallRow(id, id, "delta")));
    }
    cluster->AdvanceEpoch();
  }

  cluster->CrashWorker(3);
  RecoveryOptions opt;
  opt.stream_chunk_tuples = 8;
  opt.max_parallel_streams = 3;
  ASSERT_OK_AND_ASSIGN(RecoveryStats stats, cluster->RecoverWorker(3, opt));
  EXPECT_EQ(stats.objects[0].phase2_tuples_copied +
                stats.objects[0].phase3_tuples_copied,
            150u);

  // No lost or duplicated tuples across the window boundaries.
  cluster->AdvanceEpoch();
  ExpectReplicasEqual(cluster.get(), cluster->authority()->StableTime());
  ASSERT_OK_AND_ASSIGN(std::vector<Tuple> rows,
                       coord->Query(table, Predicate::True()));
  EXPECT_EQ(rows.size(), 160u);

  // The round really ran as multiple streams against multiple buddies:
  // the recovering site started >= 2 streams, and >= 2 distinct buddies
  // served catch-up chunks.
  const obs::Metrics& rec = observer.MetricsFor(Cluster::WorkerSite(3));
  EXPECT_GE(rec.counter(obs::CounterId::kRecoveryStreamsStarted).value(), 2);
  int serving_buddies = 0;
  for (int i = 0; i < 3; ++i) {
    const obs::Metrics& m = observer.MetricsFor(Cluster::WorkerSite(i));
    if (m.counter(obs::CounterId::kRecoveryChunksServed).value() > 0) {
      ++serving_buddies;
    }
  }
  EXPECT_GE(serving_buddies, 2)
      << "all phase-2 windows streamed from a single buddy";
}

// A §4.2 bulk-loaded delta shares one insertion timestamp, so no
// insertion-time window can split it: each chunk must be cut from the keys
// alone. Recovery of a row and a columnar table with such a delta plus
// post-checkpoint deletions of base rows copies exactly the delta and the
// deletions, streams the delta in bounded chunks, and builds no columnar
// image on any site — the catch-up reads system headers from row pages and
// materializes only the rows it ships.
TEST(RecoveryStreamTest, OneTimestampBulkDeltaStreamsKeyFirst) {
  auto cluster = MakeCluster(CommitProtocol::kOptimized3PC, 3);
  obs::Observer& observer = cluster->observer();
  test::TraceDumpOnFailure dump_on_failure(observer);
  Coordinator* coord = cluster->coordinator();
  constexpr size_t kChunk = 16;
  constexpr int kBase = 200;
  constexpr int kDelta = 10 * static_cast<int>(kChunk);
  constexpr int kDeleted = 7;

  std::vector<TableId> tables;
  for (bool columnar : {false, true}) {
    TableSpec spec;
    spec.name = columnar ? "col" : "row";
    spec.schema = SmallSchema();
    spec.default_segment_page_budget = 2;  // several sealed base segments
    // Deletes by id probe the index, so no query warms a buddy's columnar
    // cache before recovery: it stays as cold as a just-restarted site's.
    spec.indexed_column = "id";
    spec.columnar = columnar;
    ASSERT_OK_AND_ASSIGN(TableId table, cluster->CreateTable(spec));
    tables.push_back(table);
    std::vector<LoadRow> base;
    for (int i = 0; i < kBase; ++i) {
      LoadRow r;
      r.tuple_id = static_cast<TupleId>(i + 1);
      r.insertion_ts = 1 + i / 50;
      r.values = SmallRow(i, i, "base");
      base.push_back(std::move(r));
    }
    ASSERT_OK(cluster->BulkLoad(table, base, /*seal_segment=*/true));
  }
  cluster->AdvanceEpoch(5);
  ASSERT_OK(cluster->CheckpointAll());
  cluster->CrashWorker(1);

  const Timestamp delta_ts = cluster->authority()->Now();
  for (TableId table : tables) {
    std::vector<LoadRow> delta;
    for (int i = kBase; i < kBase + kDelta; ++i) {
      LoadRow r;
      r.tuple_id = static_cast<TupleId>(i + 1);
      r.insertion_ts = delta_ts;
      r.values = SmallRow(i, i, "delta");
      delta.push_back(std::move(r));
    }
    ASSERT_OK(cluster->BulkLoad(table, delta));
    for (int d = 0; d < kDeleted; ++d) {
      ASSERT_OK_AND_ASSIGN(TxnId txn, coord->Begin());
      Predicate p;
      p.And("id", CompareOp::kEq, Value(int64_t{d * 29}));
      ASSERT_OK(coord->Delete(txn, table, p));
      ASSERT_OK(coord->Commit(txn));
    }
  }
  cluster->AdvanceEpoch();

  std::vector<size_t> builds_before;
  for (int i : {0, 2}) {
    for (TableId table : tables) {
      builds_before.push_back(
          ObjectOf(cluster.get(), i, table)->columnar_cache.builds());
    }
  }
  RecoveryOptions opt;
  opt.stream_chunk_tuples = kChunk;
  ASSERT_OK_AND_ASSIGN(RecoveryStats stats, cluster->RecoverWorker(1, opt));

  size_t k = 0;
  for (int i : {0, 2}) {
    for (TableId table : tables) {
      EXPECT_EQ(ObjectOf(cluster.get(), i, table)->columnar_cache.builds(),
                builds_before[k++])
          << "buddy " << i << " built a columnar image to serve recovery";
    }
  }
  for (TableId table : tables) {
    EXPECT_EQ(ObjectOf(cluster.get(), 1, table)->columnar_cache.builds(), 0u)
        << "the recovering site built a columnar image";
  }
  ASSERT_EQ(stats.objects.size(), 2u);
  for (const ObjectRecoveryStats& o : stats.objects) {
    EXPECT_EQ(o.phase2_tuples_copied, static_cast<size_t>(kDelta));
    EXPECT_EQ(o.phase2_deletions_copied, static_cast<size_t>(kDeleted));
    EXPECT_EQ(o.phase3_tuples_copied + o.phase3_deletions_copied, 0u);
  }
  // Both delta streams arrived in bounded chunks: ceil(delta / chunk) each.
  const obs::Metrics& m = observer.MetricsFor(Cluster::WorkerSite(1));
  EXPECT_GE(m.counter(obs::CounterId::kRecoveryChunks).value(),
            2 * ((kDelta + kChunk - 1) / kChunk));

  cluster->AdvanceEpoch();
  for (TableId table : tables) {
    ExpectReplicasEqual(cluster.get(), cluster->authority()->StableTime(),
                        table);
    EXPECT_EQ(Contents(cluster.get(), 1, cluster->authority()->StableTime(),
                       table)
                  .size(),
              static_cast<size_t>(kBase + kDelta - kDeleted));
  }
}

// ------------------------------------------------- satellite regressions

// A buddy that dies exactly between Phase 3's cover computation and its
// lock acquisition must be handled inside the attempt: the lock loop
// recomputes covers against current liveness instead of re-Calling the dead
// site until the whole attempt is abandoned.
TEST(HarborRecoveryTest, Phase3RecomputesCoverWhenBuddyDiesBeforeLocks) {
  auto cluster = MakeCluster(CommitProtocol::kOptimized3PC, /*workers=*/3);
  obs::Observer& observer = cluster->observer();
  test::TraceDumpOnFailure dump_on_failure(observer);
  ASSERT_OK_AND_ASSIGN(TableId table, MakeTable(cluster.get(), "t"));
  Coordinator* coord = cluster->coordinator();

  for (int i = 0; i < 15; ++i) {
    ASSERT_OK(coord->InsertTxn(table, SmallRow(i, i, "base")));
  }
  cluster->AdvanceEpoch();
  ASSERT_OK(cluster->CheckpointAll());
  for (int i = 15; i < 40; ++i) {
    ASSERT_OK(coord->InsertTxn(table, SmallRow(i, i, "delta")));
  }
  cluster->AdvanceEpoch();
  cluster->CrashWorker(2);

  // PlanCover rotates full-replica picks by table id: with buddies
  // {worker 0, worker 1} usable it deterministically picks worker 1 for
  // table 1. The point fires on the recovering site right after Phase 3
  // computed that cover; its "crash handler" kills the chosen buddy.
  fault::ChaosSchedule sched;
  fault::PointFault p;
  p.point = "recovery.phase3.cover_computed";
  p.site = Cluster::WorkerSite(2);
  sched.points.push_back(p);
  fault::FaultInjector injector(std::move(sched), &observer);
  Cluster* raw = cluster.get();
  injector.RegisterCrashHandler(Cluster::WorkerSite(2),
                                [raw] { raw->CrashWorker(1); });
  injector.Install();

  ASSERT_OK(cluster->RecoverWorker(2).status());
  injector.Uninstall();

  // The retry happened inside Phase 3's lock loop, not by restarting the
  // whole recovery attempt.
  EXPECT_EQ(RecoveryAttempts(&observer), 1);

  cluster->AdvanceEpoch();
  const Timestamp now = cluster->authority()->StableTime();
  std::vector<Tuple> reference = Contents(cluster.get(), 0, now);
  std::vector<Tuple> recovered = Contents(cluster.get(), 2, now);
  ASSERT_EQ(reference.size(), recovered.size());
  for (size_t j = 0; j < reference.size(); ++j) {
    EXPECT_EQ(reference[j], recovered[j]) << "row " << j;
  }
}

// A tuple bulk-loaded with insertion time 0 used to make the Phase 2/3
// deletion pass compute `insertion_after = 0 - 1`, which wraps to
// UINT64_MAX and silently matches nothing — its deletion was dropped and
// the recovered replica diverged.
TEST(HarborRecoveryTest, RecoversDeletionOfInsertionTimeZeroTuple) {
  auto cluster = MakeCluster(CommitProtocol::kOptimized3PC);
  ASSERT_OK_AND_ASSIGN(TableId table, MakeTable(cluster.get(), "t"));
  Coordinator* coord = cluster->coordinator();

  std::vector<LoadRow> rows;
  for (int i = 0; i < 4; ++i) {
    LoadRow r;
    r.tuple_id = static_cast<TupleId>(i + 1);
    r.insertion_ts = 0;
    r.values = SmallRow(i, i, "epoch0");
    rows.push_back(std::move(r));
  }
  ASSERT_OK(cluster->BulkLoad(table, rows));
  cluster->AdvanceEpoch();
  ASSERT_OK(cluster->CheckpointAll());

  cluster->CrashWorker(1);
  {
    ASSERT_OK_AND_ASSIGN(TxnId txn, coord->Begin());
    Predicate p;
    p.And("id", CompareOp::kEq, Value(int64_t{2}));
    ASSERT_OK(coord->Delete(txn, table, p));
    ASSERT_OK(coord->Commit(txn));
  }
  cluster->AdvanceEpoch();

  ASSERT_OK_AND_ASSIGN(RecoveryStats stats, cluster->RecoverWorker(1));
  EXPECT_GE(stats.objects[0].phase2_deletions_copied +
                stats.objects[0].phase3_deletions_copied,
            1u);

  cluster->AdvanceEpoch();
  ExpectReplicasEqual(cluster.get(), cluster->authority()->StableTime());
  std::vector<Tuple> recovered =
      Contents(cluster.get(), 1, cluster->authority()->StableTime());
  ASSERT_EQ(recovered.size(), 3u);
  for (const Tuple& t : recovered) {
    EXPECT_NE(t.value(0).AsInt64(), 2) << "deletion of the ts-0 tuple was "
                                          "dropped on the recovered replica";
  }
}

// A recovery with nothing committed past the checkpoint must not pay
// Phase 2's FlushAll + forced object-checkpoint write for a round that
// copied nothing.
TEST(HarborRecoveryTest, NoProgressRecoverySkipsPhase2CheckpointWrites) {
  auto cluster = MakeCluster(CommitProtocol::kOptimized3PC);
  obs::Observer& observer = cluster->observer();
  test::TraceDumpOnFailure dump_on_failure(observer);
  ASSERT_OK_AND_ASSIGN(TableId table, MakeTable(cluster.get(), "t"));
  Coordinator* coord = cluster->coordinator();

  for (int i = 0; i < 20; ++i) {
    ASSERT_OK(coord->InsertTxn(table, SmallRow(i, i, "base")));
  }
  cluster->AdvanceEpoch();
  ASSERT_OK(cluster->CheckpointAll());
  cluster->CrashWorker(1);

  const int64_t before = observer.MetricsFor(Cluster::WorkerSite(1))
                             .counter(obs::CounterId::kDiskForcedWrites)
                             .value();
  ASSERT_OK_AND_ASSIGN(RecoveryStats stats, cluster->RecoverWorker(1));
  const int64_t after = observer.MetricsFor(Cluster::WorkerSite(1))
                            .counter(obs::CounterId::kDiskForcedWrites)
                            .value();

  EXPECT_EQ(stats.objects[0].phase2_rounds, 0);
  EXPECT_EQ(stats.objects[0].phase2_tuples_copied, 0u);
  // Exactly Phase 3's two forced writes remain: the per-object checkpoint
  // and the global-checkpoint promotion. A no-progress Phase 2 round would
  // add a third.
  EXPECT_EQ(after - before, 2);

  cluster->AdvanceEpoch();
  ExpectReplicasEqual(cluster.get(), cluster->authority()->StableTime());
}

// Aggregate phase timings must respect how the objects actually ran:
// max across objects under parallel recovery, sum when serial, with the
// directly-measured offline wall time bounding both (the old code defined
// phase2 as offline minus max(phase1), which over-attributed time to
// Phase 2 whenever objects progressed at different rates in parallel).
TEST(HarborRecoveryTest, StatsAttributePhaseTimePerObject) {
  auto cluster = MakeCluster(CommitProtocol::kOptimized3PC);
  ASSERT_OK_AND_ASSIGN(TableId t1, MakeTable(cluster.get(), "a"));
  ASSERT_OK_AND_ASSIGN(TableId t2, MakeTable(cluster.get(), "b"));
  Coordinator* coord = cluster->coordinator();

  for (int i = 0; i < 10; ++i) {
    ASSERT_OK(coord->InsertTxn(t1, SmallRow(i, i, "a")));
    ASSERT_OK(coord->InsertTxn(t2, SmallRow(i, i, "b")));
  }
  cluster->AdvanceEpoch();
  ASSERT_OK(cluster->CheckpointAll());
  for (int i = 10; i < 40; ++i) {
    ASSERT_OK(coord->InsertTxn(t1, SmallRow(i, i, "a2")));
    ASSERT_OK(coord->InsertTxn(t2, SmallRow(i, i, "b2")));
  }
  cluster->AdvanceEpoch();

  cluster->CrashWorker(1);
  RecoveryOptions par;
  par.parallel = true;
  ASSERT_OK_AND_ASSIGN(RecoveryStats pstats, cluster->RecoverWorker(1, par));
  ASSERT_EQ(pstats.objects.size(), 2u);
  double max_p1 = 0, max_p2 = 0;
  for (const ObjectRecoveryStats& o : pstats.objects) {
    EXPECT_GT(o.phase2_seconds, 0.0);
    EXPECT_GE(o.phase2_seconds,
              o.phase2_delete_seconds + o.phase2_insert_seconds -
                  1e-9);  // sub-phases nest inside the object's Phase 2
    max_p1 = std::max(max_p1, o.phase1_seconds);
    max_p2 = std::max(max_p2, o.phase2_seconds);
    // Each object's offline phases ran inside the measured offline window.
    EXPECT_LE(o.phase1_seconds + o.phase2_seconds, pstats.offline_seconds);
  }
  EXPECT_EQ(pstats.phase1_seconds, max_p1);
  EXPECT_EQ(pstats.phase2_seconds, max_p2);
  EXPECT_GE(pstats.total_seconds, pstats.offline_seconds);

  cluster->AdvanceEpoch();
  cluster->CrashWorker(1);
  RecoveryOptions ser;
  ser.parallel = false;
  ASSERT_OK_AND_ASSIGN(RecoveryStats sstats, cluster->RecoverWorker(1, ser));
  ASSERT_EQ(sstats.objects.size(), 2u);
  double sum_p1 = 0, sum_p2 = 0;
  for (const ObjectRecoveryStats& o : sstats.objects) {
    sum_p1 += o.phase1_seconds;
    sum_p2 += o.phase2_seconds;
  }
  EXPECT_EQ(sstats.phase1_seconds, sum_p1);
  EXPECT_EQ(sstats.phase2_seconds, sum_p2);
  EXPECT_LE(sum_p1 + sum_p2, sstats.offline_seconds);

  cluster->AdvanceEpoch();
  ExpectReplicasEqual(cluster.get(), cluster->authority()->StableTime());
}

}  // namespace
}  // namespace harbor
