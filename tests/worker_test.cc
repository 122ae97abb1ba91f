// Message-level tests of the worker site: handler semantics for the commit
// protocols (votes, duplicates, unknown transactions), scan shipping,
// recovery table locks, probes, and restart behaviour.

#include "core/worker.h"

#include <gtest/gtest.h>

#include "core/cluster.h"
#include "core/messages.h"
#include "exec/seq_scan.h"
#include "tests/test_util.h"

namespace harbor {
namespace {

using test::SmallRow;
using test::SmallSchema;

class WorkerMessageTest : public ::testing::Test {
 protected:
  WorkerMessageTest() {
    ClusterOptions opt;
    opt.num_workers = 2;
    opt.protocol = CommitProtocol::kOptimized3PC;
    opt.sim = SimConfig::Zero();
    auto cluster = Cluster::Create(opt);
    HARBOR_CHECK_OK(cluster.status());
    cluster_ = std::move(cluster).value();
    TableSpec spec;
    spec.name = "t";
    spec.schema = SmallSchema();
    auto table = cluster_->CreateTable(spec);
    HARBOR_CHECK_OK(table.status());
    table_ = *table;
  }

  // Sends one ExecUpdate to worker site 1 under a fresh txn id.
  TxnId SendInsert(int64_t id) {
    TxnId txn = next_txn_++;
    ExecUpdateMsg msg;
    msg.txn = txn;
    msg.coordinator = 0;
    msg.request.kind = UpdateRequest::Kind::kInsert;
    msg.request.table_id = table_;
    msg.request.values = SmallRow(id, id, "x");
    msg.request.tuple_id = static_cast<TupleId>(1000 + id);
    HARBOR_CHECK_OK(net()->Call(0, 1, msg.Encode()).status());
    return txn;
  }

  Result<bool> Prepare(TxnId txn, SiteId site = 1) {
    PrepareMsg msg;
    msg.txn = txn;
    msg.coordinator = 0;
    msg.participants = {1, 2};
    HARBOR_ASSIGN_OR_RETURN(Message reply, net()->Call(0, site, msg.Encode()));
    HARBOR_ASSIGN_OR_RETURN(VoteReply vote, VoteReply::Decode(reply));
    return vote.yes;
  }

  Status Commit(TxnId txn, Timestamp ts, SiteId site = 1) {
    CommitTsMsg msg;
    msg.txn = txn;
    msg.commit_ts = ts;
    return net()->Call(0, site, msg.Encode()).status();
  }

  Network* net() { return cluster_->network(); }
  Worker* worker(int i) { return cluster_->worker(i); }

  std::unique_ptr<Cluster> cluster_;
  TableId table_;
  TxnId next_txn_ = 500;
};

TEST_F(WorkerMessageTest, PrepareForUnknownTxnVotesNo) {
  // §4.3.2: "if a worker crashes, recovers, and subsequently receives a
  // vote request for an unknown transaction, the worker responds NO".
  ASSERT_OK_AND_ASSIGN(bool yes, Prepare(/*txn=*/999999));
  EXPECT_FALSE(yes);
}

TEST_F(WorkerMessageTest, DuplicatePrepareRepeatsVote) {
  TxnId txn = SendInsert(1);
  ASSERT_OK_AND_ASSIGN(bool first, Prepare(txn));
  ASSERT_OK_AND_ASSIGN(bool second, Prepare(txn));
  EXPECT_TRUE(first);
  EXPECT_TRUE(second);
}

TEST_F(WorkerMessageTest, DuplicateCommitIsIdempotent) {
  TxnId txn = SendInsert(1);
  ASSERT_OK(Prepare(txn).status());
  ASSERT_OK(Commit(txn, 5));
  ASSERT_OK(Commit(txn, 5));  // retransmission after the state was erased
  EXPECT_EQ(worker(0)->txns()->size(), 0u);
  EXPECT_EQ(worker(0)->local_catalog()->objects()[0]->index.size(), 1u);
}

TEST_F(WorkerMessageTest, AbortForUnknownTxnAcks) {
  TxnMsg abort;
  abort.type = MsgType::kAbort;
  abort.txn = 424242;
  EXPECT_TRUE(net()->Call(0, 1, abort.Encode()).ok());
}

TEST_F(WorkerMessageTest, UpdateAfterPrepareIsRejected) {
  TxnId txn = SendInsert(1);
  ASSERT_OK(Prepare(txn).status());
  // The transaction is no longer pending at the worker.
  ExecUpdateMsg msg;
  msg.txn = txn;
  msg.coordinator = 0;
  msg.request.kind = UpdateRequest::Kind::kInsert;
  msg.request.table_id = table_;
  msg.request.values = SmallRow(2, 2, "y");
  msg.request.tuple_id = 2000;
  EXPECT_TRUE(net()->Call(0, 1, msg.Encode()).status().IsAborted());
}

TEST_F(WorkerMessageTest, ProbeReportsPhaseProgression) {
  TxnId txn = SendInsert(1);
  auto probe = [&]() -> ProbeReply {
    TxnMsg msg;
    msg.type = MsgType::kTxnStateProbe;
    msg.txn = txn;
    auto reply = net()->Call(0, 1, msg.Encode());
    HARBOR_CHECK_OK(reply.status());
    auto decoded = ProbeReply::Decode(*reply);
    HARBOR_CHECK_OK(decoded.status());
    return *decoded;
  };
  EXPECT_EQ(static_cast<TxnPhase>(probe().phase), TxnPhase::kPending);
  ASSERT_OK(Prepare(txn).status());
  ProbeReply prepared = probe();
  EXPECT_EQ(static_cast<TxnPhase>(prepared.phase), TxnPhase::kPrepared);
  EXPECT_TRUE(prepared.voted_yes);
  EXPECT_EQ(prepared.participants.size(), 2u);
  CommitTsMsg ptc;
  ptc.type = MsgType::kPrepareToCommit;
  ptc.txn = txn;
  ptc.commit_ts = 7;
  ASSERT_OK(net()->Call(0, 1, ptc.Encode()).status());
  ProbeReply p2c = probe();
  EXPECT_EQ(static_cast<TxnPhase>(p2c.phase), TxnPhase::kPreparedToCommit);
  EXPECT_EQ(p2c.pending_commit_ts, 7u);
  ASSERT_OK(Commit(txn, 7));
  TxnMsg msg;
  msg.type = MsgType::kTxnStateProbe;
  msg.txn = txn;
  ASSERT_OK_AND_ASSIGN(Message reply, net()->Call(0, 1, msg.Encode()));
  ASSERT_OK_AND_ASSIGN(ProbeReply gone, ProbeReply::Decode(reply));
  EXPECT_FALSE(gone.known);  // committed state is forgotten
}

TEST_F(WorkerMessageTest, ScanShipsMinimalProjection) {
  TxnId txn = SendInsert(3);
  ASSERT_OK(Prepare(txn).status());
  ASSERT_OK(Commit(txn, 4));

  ScanMsg scan;
  scan.spec.object_id = worker(0)->local_catalog()->objects()[0]->object_id;
  scan.spec.mode = ScanMode::kSeeDeleted;
  scan.minimal_projection = true;
  ASSERT_OK_AND_ASSIGN(Message reply, net()->Call(0, 1, scan.Encode()));
  ASSERT_OK_AND_ASSIGN(ScanReplyMsg decoded, ScanReplyMsg::Decode(reply));
  ASSERT_TRUE(decoded.minimal);
  ASSERT_EQ(decoded.id_deletions.size(), 1u);
  EXPECT_EQ(decoded.id_deletions[0].tuple_id, 1003u);
  EXPECT_EQ(decoded.id_deletions[0].deletion_ts, kNotDeleted);
  EXPECT_EQ(decoded.id_deletions[0].insertion_ts, 4u);
}

TEST_F(WorkerMessageTest, ScanOnMissingObjectFails) {
  ScanMsg scan;
  scan.spec.object_id = 4040;
  EXPECT_TRUE(net()->Call(0, 1, scan.Encode()).status().IsNotFound());
}

TEST_F(WorkerMessageTest, TableLockBlocksAndReleases) {
  ObjectId object = worker(0)->local_catalog()->objects()[0]->object_id;
  TableLockMsg lock;
  lock.type = MsgType::kTableLock;
  lock.object_id = object;
  lock.owner_site = 2;
  ASSERT_OK(net()->Call(2, 1, lock.Encode()).status());

  // An update transaction cannot take its table IX while the recovery lock
  // is held.
  TxnId txn = next_txn_++;
  ExecUpdateMsg msg;
  msg.txn = txn;
  msg.coordinator = 0;
  msg.request.kind = UpdateRequest::Kind::kInsert;
  msg.request.table_id = table_;
  msg.request.values = SmallRow(9, 9, "z");
  msg.request.tuple_id = 9000;
  EXPECT_TRUE(net()->Call(0, 1, msg.Encode()).status().IsTimedOut());

  TableLockMsg unlock;
  unlock.type = MsgType::kTableUnlock;
  unlock.object_id = object;
  unlock.owner_site = 2;
  ASSERT_OK(net()->Call(2, 1, unlock.Encode()).status());
  EXPECT_TRUE(net()->Call(0, 1, msg.Encode()).ok());
}

TEST_F(WorkerMessageTest, CommitCountsTrackThroughput) {
  auto commits = [](Worker* w) {
    return w->metrics().counter(obs::CounterId::kTxnCommitted).value();
  };
  EXPECT_EQ(commits(worker(0)), 0);
  ASSERT_OK(cluster_->coordinator()->InsertTxn(table_, SmallRow(1, 1, "a")));
  ASSERT_OK(cluster_->coordinator()->InsertTxn(table_, SmallRow(2, 2, "b")));
  EXPECT_EQ(commits(worker(0)), 2);
  EXPECT_EQ(commits(worker(1)), 2);
  // The count lives in the cluster, not in the worker's runtime: it
  // survives a crash and restart.
  cluster_->CrashWorker(0);
  ASSERT_OK(cluster_->RecoverWorker(0).status());
  EXPECT_EQ(commits(worker(0)), 2);
}

TEST_F(WorkerMessageTest, RestartWhileRunningIsRejected) {
  EXPECT_TRUE(worker(0)->Start().IsAlreadyExists());
}

TEST_F(WorkerMessageTest, CrashIsIdempotentAndRestartable) {
  worker(1)->Crash();
  worker(1)->Crash();  // no-op
  EXPECT_FALSE(worker(1)->running());
  ASSERT_OK(cluster_->RecoverWorker(1).status());
  EXPECT_TRUE(worker(1)->running());
}

TEST_F(WorkerMessageTest, PartitionedObjectIgnoresForeignInserts) {
  // A second table partitioned on id: the worker hosts only [0, 10).
  TableSpec spec;
  spec.name = "part";
  spec.schema = SmallSchema();
  ReplicaSpec lo;
  lo.worker_index = 0;
  lo.partition = PartitionRange::On("id", 0, 10);
  ReplicaSpec full;
  full.worker_index = 1;
  spec.replicas = {lo, full};
  ASSERT_OK_AND_ASSIGN(TableId part, cluster_->CreateTable(spec));
  Coordinator* coord = cluster_->coordinator();
  ASSERT_OK(coord->InsertTxn(part, SmallRow(5, 5, "in")));
  ASSERT_OK(coord->InsertTxn(part, SmallRow(50, 50, "out")));
  cluster_->AdvanceEpoch();
  ASSERT_OK_AND_ASSIGN(TableObject * obj,
                       worker(0)->local_catalog()->GetObjectByName("part@1"));
  EXPECT_EQ(obj->index.size(), 1u);  // only id 5 landed here
  ASSERT_OK_AND_ASSIGN(TableObject * obj2,
                       worker(1)->local_catalog()->GetObjectByName("part@2"));
  EXPECT_EQ(obj2->index.size(), 2u);
}

}  // namespace
}  // namespace harbor
