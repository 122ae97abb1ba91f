// Tests for the implemented extensions beyond the thesis's evaluation:
// the logless one-phase commit sketched in §4.3.2 and the multi-coordinator
// configuration of §4.1.

#include <gtest/gtest.h>

#include <thread>

#include "core/cluster.h"
#include "core/messages.h"
#include "exec/seq_scan.h"
#include "tests/test_util.h"

namespace harbor {
namespace {

using test::SmallRow;
using test::SmallSchema;

Result<TableId> MakeTable(Cluster* cluster, const std::string& name) {
  TableSpec spec;
  spec.name = name;
  spec.schema = SmallSchema();
  spec.default_segment_page_budget = 4;
  return cluster->CreateTable(spec);
}

TEST(OnePhaseCommitTest, CommitsWithTwoMessagesPerWorker) {
  ClusterOptions opt;
  opt.num_workers = 2;
  opt.protocol = CommitProtocol::kOptimized1PC;
  opt.sim = SimConfig::Zero();
  ASSERT_OK_AND_ASSIGN(auto cluster, Cluster::Create(opt));
  ASSERT_OK_AND_ASSIGN(TableId table, MakeTable(cluster.get(), "t"));
  Coordinator* coord = cluster->coordinator();

  ASSERT_OK_AND_ASSIGN(TxnId txn, coord->Begin());
  ASSERT_OK(coord->Insert(txn, table, SmallRow(1, 1, "x")));
  obs::Observer& o = cluster->observer();
  const int64_t msgs_before = o.Total(obs::CounterId::kNetMessagesSent);
  ASSERT_OK(coord->Commit(txn));
  // COMMIT + ACK per worker, nothing else — half of even optimized 2PC.
  EXPECT_EQ((o.Total(obs::CounterId::kNetMessagesSent) - msgs_before) / 2, 2);
  // No logs anywhere.
  EXPECT_EQ(coord->log(), nullptr);
  EXPECT_EQ(cluster->worker(0)->log(), nullptr);

  cluster->AdvanceEpoch();
  ASSERT_OK_AND_ASSIGN(auto rows, coord->Query(table, Predicate::True()));
  EXPECT_EQ(rows.size(), 1u);
}

TEST(OnePhaseCommitTest, RecoveryStillWorks) {
  ClusterOptions opt;
  opt.num_workers = 2;
  opt.protocol = CommitProtocol::kOptimized1PC;
  opt.sim = SimConfig::Zero();
  ASSERT_OK_AND_ASSIGN(auto cluster, Cluster::Create(opt));
  ASSERT_OK_AND_ASSIGN(TableId table, MakeTable(cluster.get(), "t"));
  Coordinator* coord = cluster->coordinator();
  for (int i = 0; i < 25; ++i) {
    ASSERT_OK(coord->InsertTxn(table, SmallRow(i, i, "x")));
  }
  cluster->CrashWorker(1);
  for (int i = 25; i < 40; ++i) {
    ASSERT_OK(coord->InsertTxn(table, SmallRow(i, i, "y")));
  }
  cluster->AdvanceEpoch();
  ASSERT_OK(cluster->RecoverWorker(1).status());
  cluster->AdvanceEpoch();

  Worker* w = cluster->worker(1);
  TableObject* obj = w->local_catalog()->objects()[0];
  ScanSpec spec;
  spec.object_id = obj->object_id;
  spec.mode = ScanMode::kVisible;
  spec.as_of = cluster->authority()->StableTime();
  SeqScanOperator scan(w->store(), obj, spec);
  ASSERT_OK_AND_ASSIGN(auto rows, scan.Collect());
  EXPECT_EQ(rows.size(), 40u);
}

TEST(MultiCoordinatorTest, TwoCoordinatorsInterleaveConsistently) {
  ClusterOptions opt;
  opt.num_workers = 2;
  opt.sim = SimConfig::Zero();
  ASSERT_OK_AND_ASSIGN(auto cluster, Cluster::Create(opt));
  ASSERT_OK_AND_ASSIGN(TableId table, MakeTable(cluster.get(), "t"));
  ASSERT_OK_AND_ASSIGN(Coordinator * second, cluster->AddCoordinator());
  Coordinator* first = cluster->coordinator();
  EXPECT_EQ(cluster->num_coordinators(), 2);

  // Concurrent streams through both coordinators; the shared timestamp
  // authority keeps commit times consistent. Cross-coordinator contention
  // can produce distributed-deadlock victims (timeout aborts) — clients
  // retry, and nothing may be lost or duplicated.
  auto insert_with_retry = [&](Coordinator* c, int64_t i, const char* tag) {
    while (true) {
      Status st = c->InsertTxn(table, SmallRow(i, i, tag));
      if (st.ok()) return;
      HARBOR_CHECK(st.IsAborted() || st.IsTimedOut());
    }
  };
  std::thread t1([&] {
    for (int i = 0; i < 30; ++i) insert_with_retry(first, i, "a");
  });
  std::thread t2([&] {
    for (int i = 100; i < 130; ++i) insert_with_retry(second, i, "b");
  });
  t1.join();
  t2.join();
  cluster->AdvanceEpoch();

  ASSERT_OK_AND_ASSIGN(auto rows, first->Query(table, Predicate::True()));
  EXPECT_EQ(rows.size(), 60u);
  ASSERT_OK_AND_ASSIGN(auto rows2, second->Query(table, Predicate::True()));
  EXPECT_EQ(rows2.size(), 60u);
  // Tuple ids from different coordinators never collide.
  std::set<TupleId> ids;
  for (const Tuple& t : rows) ids.insert(t.tuple_id());
  EXPECT_EQ(ids.size(), 60u);
}

TEST(MultiCoordinatorTest, RecoveryWaitsOutPendingLockHolders) {
  // A pending update transaction that already holds locks on the buddy
  // blocks Phase 3's table read lock — by design (§5.4.1): "S retries until
  // it succeeds". Once the transaction commits, recovery proceeds and the
  // committed row is picked up by the locked catch-up queries.
  ClusterOptions opt;
  opt.num_workers = 2;
  opt.sim = SimConfig::Zero();
  opt.epoch_tick_ms = 5;
  ASSERT_OK_AND_ASSIGN(auto cluster, Cluster::Create(opt));
  ASSERT_OK_AND_ASSIGN(TableId table, MakeTable(cluster.get(), "t"));
  ASSERT_OK_AND_ASSIGN(Coordinator * second, cluster->AddCoordinator());
  Coordinator* first = cluster->coordinator();

  for (int i = 0; i < 10; ++i) {
    ASSERT_OK(first->InsertTxn(table, SmallRow(i, i, "a")));
  }
  cluster->CrashWorker(1);
  ASSERT_OK(second->InsertTxn(table, SmallRow(200, 200, "b")));
  ASSERT_OK_AND_ASSIGN(TxnId pending, second->Begin());
  ASSERT_OK(second->Insert(pending, table, SmallRow(201, 201, "c")));

  // Commit the lock holder shortly after recovery begins waiting for it.
  std::thread committer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(150));
    HARBOR_CHECK_OK(second->Commit(pending));
  });
  ASSERT_OK(cluster->RecoverWorker(1).status());
  committer.join();

  // 10 + 1 while down + 1 committed-during-recovery = 12 rows, once the
  // last commit's epoch becomes stable (the ticker runs every 5 ms).
  Worker* w = cluster->worker(1);
  TableObject* obj = w->local_catalog()->objects()[0];
  size_t rows_seen = 0;
  for (int attempt = 0; attempt < 100; ++attempt) {
    ScanSpec spec;
    spec.object_id = obj->object_id;
    spec.mode = ScanMode::kVisible;
    spec.as_of = cluster->authority()->StableTime();
    SeqScanOperator scan(w->store(), obj, spec);
    ASSERT_OK_AND_ASSIGN(auto rows, scan.Collect());
    rows_seen = rows.size();
    if (rows_seen == 12u) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(rows_seen, 12u);
}

TEST(MultiCoordinatorTest, ComingOnlineForwardsPendingQueues) {
  // Direct exercise of the Figure 5-4 protocol: a pending transaction's
  // queued update requests are forwarded to the coming-online site, which
  // then participates in the commit.
  ClusterOptions opt;
  opt.num_workers = 2;
  opt.sim = SimConfig::Zero();
  ASSERT_OK_AND_ASSIGN(auto cluster, Cluster::Create(opt));
  ASSERT_OK_AND_ASSIGN(TableId table, MakeTable(cluster.get(), "t"));
  Coordinator* coord = cluster->coordinator();

  cluster->CrashWorker(1);
  // This transaction executes only at worker 0; its request sits in the
  // coordinator's queue.
  ASSERT_OK_AND_ASSIGN(TxnId pending, coord->Begin());
  ASSERT_OK(coord->Insert(pending, table, SmallRow(7, 7, "queued")));

  // Worker 1 restarts and announces "coming online" (normally Phase 3 does
  // this after its catch-up queries).
  ASSERT_OK(cluster->worker(1)->Start(SiteState::kRecovering));
  ComingOnlineMsg online;
  online.site = Cluster::WorkerSite(1);
  online.objects.emplace_back(table, PartitionRange::Full());
  ASSERT_OK(cluster->network()
                ->Call(Cluster::WorkerSite(1), 0, online.Encode())
                .status());

  // The forwarded request created uncommitted state at worker 1; the commit
  // includes worker 1 as a participant and stamps both copies.
  ASSERT_OK(coord->Commit(pending));
  cluster->AdvanceEpoch();
  for (int w = 0; w < 2; ++w) {
    TableObject* obj = cluster->worker(w)->local_catalog()->objects()[0];
    EXPECT_EQ(obj->index.size(), 1u) << "worker " << w;
  }
}

}  // namespace
}  // namespace harbor
