// Fault-injection tests: the FaultInjector subsystem itself, the Table 4.1
// coordinator-crash matrix (which worker protocol state leads to which
// outcome under the backup-coordinator consensus / the 2PC blocking
// problem), and §5.5's recovery-under-failure cases.

#include "fault/fault_injector.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <fstream>
#include <mutex>
#include <set>
#include <string>
#include <thread>

#include "core/cluster.h"
#include "runtime/scheduler.h"
#include "exec/seq_scan.h"
#include "tests/test_util.h"

namespace harbor {
namespace {

using fault::ChaosSchedule;
using fault::FaultAction;
using fault::FaultInjector;
using fault::LinkDecision;
using fault::LinkFault;
using fault::PointFault;
using test::SmallSchema;

// ------------------------------------------------------- schedule grammar

TEST(FaultScheduleTest, ToStringParseRoundTrip) {
  ChaosSchedule sched;
  sched.seed = 12345;
  PointFault p1;
  p1.point = "coordinator.3pc.after_ptc";
  sched.points.push_back(p1);
  PointFault p2;
  p2.point = "worker.commit";
  p2.site = 2;
  p2.hit = 3;
  p2.action = FaultAction::kDelay;
  p2.delay_ms = 15;
  sched.points.push_back(p2);
  LinkFault l1;
  l1.from = 0;
  l1.to = 2;
  l1.msg_type = 4;
  l1.action = FaultAction::kDrop;
  l1.max_fires = 1;
  sched.links.push_back(l1);
  LinkFault l2;
  l2.action = FaultAction::kDuplicate;
  l2.probability = 0.25;
  sched.links.push_back(l2);

  const std::string text = sched.ToString();
  ASSERT_OK_AND_ASSIGN(ChaosSchedule parsed, ChaosSchedule::Parse(text));
  EXPECT_EQ(parsed.seed, sched.seed);
  ASSERT_EQ(parsed.points.size(), 2u);
  EXPECT_EQ(parsed.points[0].point, "coordinator.3pc.after_ptc");
  EXPECT_EQ(parsed.points[0].site, fault::kAnySite);
  EXPECT_EQ(parsed.points[0].hit, 1u);
  EXPECT_EQ(parsed.points[0].action, FaultAction::kCrash);
  EXPECT_EQ(parsed.points[1].site, 2u);
  EXPECT_EQ(parsed.points[1].hit, 3u);
  EXPECT_EQ(parsed.points[1].action, FaultAction::kDelay);
  EXPECT_EQ(parsed.points[1].delay_ms, 15);
  ASSERT_EQ(parsed.links.size(), 2u);
  EXPECT_EQ(parsed.links[0].from, 0u);
  EXPECT_EQ(parsed.links[0].to, 2u);
  EXPECT_EQ(parsed.links[0].msg_type, 4u);
  EXPECT_EQ(parsed.links[0].max_fires, 1u);
  EXPECT_EQ(parsed.links[1].from, fault::kAnySite);
  EXPECT_EQ(parsed.links[1].action, FaultAction::kDuplicate);
  EXPECT_DOUBLE_EQ(parsed.links[1].probability, 0.25);
  // Serialization is canonical: a second round trip is a fixed point.
  EXPECT_EQ(parsed.ToString(), text);
}

TEST(FaultScheduleTest, ParseRejectsMalformedInput) {
  EXPECT_FALSE(ChaosSchedule::Parse("bogus=1").ok());
  EXPECT_FALSE(ChaosSchedule::Parse("point=x,action=warp").ok());
  EXPECT_FALSE(ChaosSchedule::Parse("point=x,action=drop").ok());  // link-only
  EXPECT_FALSE(ChaosSchedule::Parse("link=0->1,action=crash").ok());
  EXPECT_FALSE(ChaosSchedule::Parse("link=01,action=drop").ok());
  EXPECT_FALSE(ChaosSchedule::Parse("point=x,action=crash,frob=1").ok());
}

// ----------------------------------------------------- injector semantics

TEST(FaultInjectorTest, NoInjectorInstalledByDefault) {
  EXPECT_EQ(FaultInjector::Current(), nullptr);
}

TEST(FaultInjectorTest, NthHitFiresOnceThenDisarms) {
  ChaosSchedule sched;
  PointFault p;
  p.point = "p";
  p.hit = 3;
  p.action = FaultAction::kError;
  sched.points.push_back(p);
  FaultInjector fi(sched);
  EXPECT_OK(fi.OnPoint("p", 1, fault::CrashMode::kSync));
  EXPECT_OK(fi.OnPoint("p", 1, fault::CrashMode::kSync));
  Status st = fi.OnPoint("p", 1, fault::CrashMode::kSync);
  EXPECT_TRUE(st.IsInternal()) << st.ToString();
  // One-shot: the 4th and later hits pass through.
  EXPECT_OK(fi.OnPoint("p", 1, fault::CrashMode::kSync));
  ASSERT_EQ(fi.fired().size(), 1u);
}

TEST(FaultInjectorTest, SiteFilterRestrictsFiring) {
  ChaosSchedule sched;
  PointFault p;
  p.point = "p";
  p.site = 2;
  p.action = FaultAction::kError;
  sched.points.push_back(p);
  FaultInjector fi(sched);
  EXPECT_OK(fi.OnPoint("p", 1, fault::CrashMode::kSync));
  EXPECT_OK(fi.OnPoint("q", 2, fault::CrashMode::kSync));
  EXPECT_FALSE(fi.OnPoint("p", 2, fault::CrashMode::kSync).ok());
}

TEST(FaultInjectorTest, CrashActionRunsHandlerAndReturnsUnavailable) {
  ChaosSchedule sched;
  PointFault p;
  p.point = "p";
  sched.points.push_back(p);  // default action: crash the hitting site
  FaultInjector fi(sched);
  bool crashed = false;
  fi.RegisterCrashHandler(3, [&crashed] { crashed = true; });
  Status st = fi.OnPoint("p", 3, fault::CrashMode::kSync);
  EXPECT_TRUE(st.IsUnavailable()) << st.ToString();
  EXPECT_TRUE(crashed);
}

TEST(FaultInjectorTest, LinkDecisionsAreSeedDeterministic) {
  ChaosSchedule sched;
  sched.seed = 7;
  LinkFault l;
  l.action = FaultAction::kDrop;
  l.probability = 0.5;
  sched.links.push_back(l);

  auto run = [](const ChaosSchedule& s) {
    FaultInjector fi(s);
    std::vector<bool> drops;
    for (int i = 0; i < 64; ++i) {
      drops.push_back(fi.OnMessage(0, 1, 4).drop);
    }
    return drops;
  };
  std::vector<bool> a = run(sched);
  std::vector<bool> b = run(sched);
  EXPECT_EQ(a, b) << "same seed must give the same drop sequence";
  int fired = 0;
  for (bool d : a) fired += d ? 1 : 0;
  EXPECT_GT(fired, 0);
  EXPECT_LT(fired, 64);

  sched.seed = 8;
  EXPECT_NE(run(sched), a) << "a different seed should shift the sequence";
}

TEST(FaultInjectorTest, LinkFiltersAndMaxFires) {
  ChaosSchedule sched;
  LinkFault l;
  l.from = 0;
  l.to = 2;
  l.msg_type = 4;
  l.action = FaultAction::kDrop;
  l.max_fires = 2;
  sched.links.push_back(l);
  FaultInjector fi(sched);
  EXPECT_FALSE(fi.OnMessage(0, 1, 4).drop);  // wrong destination
  EXPECT_FALSE(fi.OnMessage(1, 2, 4).drop);  // wrong source
  EXPECT_FALSE(fi.OnMessage(0, 2, 5).drop);  // wrong message type
  EXPECT_TRUE(fi.OnMessage(0, 2, 4).drop);
  EXPECT_TRUE(fi.OnMessage(0, 2, 4).drop);
  EXPECT_FALSE(fi.OnMessage(0, 2, 4).drop) << "max_fires exhausted";
}

TEST(FaultInjectorTest, DelayActionReturnsOkAfterSleeping) {
  ChaosSchedule sched;
  PointFault p;
  p.point = "p";
  p.action = FaultAction::kDelay;
  p.delay_ms = 20;
  sched.points.push_back(p);
  FaultInjector fi(sched);
  const auto start = std::chrono::steady_clock::now();
  EXPECT_OK(fi.OnPoint("p", 1, fault::CrashMode::kSync));
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_GE(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed)
                .count(),
            20);
}

TEST(FaultInjectorTest, DelayPointDoesNotHoldAPoolWorker) {
  // A pool task sleeping out a delay point is in a blocking section, so the
  // one-worker pool gets a spare and a second task runs during the delay.
  runtime::Scheduler::Options opt;
  opt.workers = 1;
  runtime::Scheduler sched(opt);
  ChaosSchedule cs;
  PointFault p;
  p.point = "p";
  p.action = FaultAction::kDelay;
  p.delay_ms = 300;
  cs.points.push_back(p);
  FaultInjector fi(cs);
  std::atomic<bool> delayed{false};
  std::atomic<bool> second_ran{false};
  std::atomic<int64_t> second_ms{-1};
  const auto start = std::chrono::steady_clock::now();
  ASSERT_TRUE(sched.Post([&] {
    delayed.store(true);
    EXPECT_OK(fi.OnPoint("p", 1, fault::CrashMode::kSync));
  }));
  while (!delayed.load()) std::this_thread::yield();
  ASSERT_TRUE(sched.Post([&] {
    second_ms.store(std::chrono::duration_cast<std::chrono::milliseconds>(
                        std::chrono::steady_clock::now() - start)
                        .count());
    second_ran.store(true);
  }));
  sched.Shutdown();
  ASSERT_TRUE(second_ran.load());
  EXPECT_LT(second_ms.load(), 150)
      << "the second task waited for the delay point to end";
}

// ----------------------------------------------------- cluster test rig

void RegisterClusterCrashHandlers(FaultInjector* fi, Cluster* cluster) {
  Coordinator* coord = cluster->coordinator();
  fi->RegisterCrashHandler(coord->site_id(), [coord] { coord->Crash(); });
  for (int i = 0; i < cluster->num_workers(); ++i) {
    fi->RegisterCrashHandler(Cluster::WorkerSite(i),
                             [cluster, i] { cluster->CrashWorker(i); });
  }
}

// How long the consensus / abort aftermath of a coordinator crash may take
// to settle.
constexpr std::chrono::milliseconds kDrainTimeout{3000};

// Ids visible in worker w's replica at `as_of`, read directly from its
// store (the coordinator may be dead).
std::set<int64_t> VisibleIds(Cluster* cluster, int w, Timestamp as_of) {
  Worker* worker = cluster->worker(w);
  TableObject* obj = worker->local_catalog()->objects()[0];
  ScanSpec spec;
  spec.object_id = obj->object_id;
  spec.mode = ScanMode::kVisible;
  spec.as_of = as_of;
  SeqScanOperator scan(worker->store(), obj, spec);
  auto rows = scan.Collect();
  HARBOR_CHECK_OK(rows.status());
  auto mapping = SmallSchema().MappingFrom(obj->schema);
  HARBOR_CHECK_OK(mapping.status());
  std::set<int64_t> ids;
  for (const Tuple& t : *rows) {
    ids.insert(t.RemapColumns(*mapping).value(0).AsInt64());
  }
  return ids;
}

struct MatrixRig {
  // Cluster first / guard last: members destroy in reverse order, so on a
  // failed assertion the guard dumps the cluster's merged trace while the
  // cluster (and the events recorded during the crash protocol) are still
  // alive.
  std::unique_ptr<Cluster> cluster;
  TableId table = 0;
  std::unique_ptr<test::TraceDumpOnFailure> dump_on_failure;
};

MatrixRig MakeMatrixRig(CommitProtocol protocol) {
  MatrixRig rig;
  ClusterOptions opt;
  opt.num_workers = 2;
  opt.protocol = protocol;
  opt.sim = SimConfig::Zero();
  auto cluster = Cluster::Create(opt);
  HARBOR_CHECK_OK(cluster.status());
  rig.cluster = std::move(*cluster);
  rig.dump_on_failure =
      std::make_unique<test::TraceDumpOnFailure>(rig.cluster->observer());
  TableSpec spec;
  spec.name = "t";
  spec.schema = SmallSchema();
  spec.default_segment_page_budget = 4;
  auto table = rig.cluster->CreateTable(spec);
  HARBOR_CHECK_OK(table.status());
  rig.table = *table;
  return rig;
}

// Runs one insert transaction whose commit trips `point` (crashing the
// coordinator there), returning the Commit status.
Status CommitThroughCrashPoint(MatrixRig* rig, FaultInjector* fi,
                               int64_t id) {
  auto txn = rig->cluster->coordinator()->Begin();
  HARBOR_CHECK_OK(txn.status());
  HARBOR_CHECK_OK(rig->cluster->coordinator()->Insert(
      *txn, rig->table, {Value(id), Value(int64_t{1}), Value("x")}));
  fi->Install();
  Status st = rig->cluster->coordinator()->Commit(*txn);
  fi->Uninstall();
  return st;
}

ChaosSchedule CoordinatorCrashAt(const std::string& point) {
  ChaosSchedule sched;
  PointFault p;
  p.point = point;
  p.site = 0;
  sched.points.push_back(p);
  return sched;
}

// --------------------------------------------- Table 4.1 coordinator crash
//
// The matrix the bench only samples: crash the coordinator in each worker
// protocol state and check the backup-coordinator action and final outcome.

TEST(CoordinatorCrashMatrixTest, ThreePhasePendingAborts) {
  // Workers have executed the update but seen no PREPARE: no site can have
  // voted, so the consensus protocol must abort (Table 4.1, row "pending").
  MatrixRig rig = MakeMatrixRig(CommitProtocol::kOptimized3PC);
  FaultInjector fi(CoordinatorCrashAt("coordinator.commit.begin"),
                   &rig.cluster->observer());
  RegisterClusterCrashHandlers(&fi, rig.cluster.get());
  Status st = CommitThroughCrashPoint(&rig, &fi, 1);
  EXPECT_TRUE(st.IsUnavailable()) << st.ToString();
  EXPECT_FALSE(rig.cluster->coordinator()->running());
  ASSERT_OK(rig.cluster->WaitForTxnDrain(kDrainTimeout));
  rig.cluster->AdvanceEpoch();
  const Timestamp now = rig.cluster->authority()->StableTime();
  EXPECT_EQ(VisibleIds(rig.cluster.get(), 0, now).count(1), 0u);
  EXPECT_EQ(VisibleIds(rig.cluster.get(), 1, now).count(1), 0u);
}

TEST(CoordinatorCrashMatrixTest, ThreePhasePreparedAborts) {
  // All workers voted YES but none reached prepared-to-commit: the old
  // coordinator cannot have sent any COMMIT, so abort is safe and required
  // (Table 4.1, row "prepared").
  MatrixRig rig = MakeMatrixRig(CommitProtocol::kOptimized3PC);
  FaultInjector fi(CoordinatorCrashAt("coordinator.after_prepare"),
                   &rig.cluster->observer());
  RegisterClusterCrashHandlers(&fi, rig.cluster.get());
  Status st = CommitThroughCrashPoint(&rig, &fi, 1);
  EXPECT_TRUE(st.IsUnavailable()) << st.ToString();
  ASSERT_OK(rig.cluster->WaitForTxnDrain(kDrainTimeout));
  rig.cluster->AdvanceEpoch();
  const Timestamp now = rig.cluster->authority()->StableTime();
  EXPECT_EQ(VisibleIds(rig.cluster.get(), 0, now).count(1), 0u);
  EXPECT_EQ(VisibleIds(rig.cluster.get(), 1, now).count(1), 0u);
}

TEST(CoordinatorCrashMatrixTest, ThreePhasePreparedToCommitCommits) {
  // Every worker holds PREPARE-TO-COMMIT: the coordinator may have reached
  // its commit point, so the backup coordinator must commit (Table 4.1,
  // row "prepared-to-commit") — with the same commit time everywhere.
  MatrixRig rig = MakeMatrixRig(CommitProtocol::kOptimized3PC);
  FaultInjector fi(CoordinatorCrashAt("coordinator.3pc.after_ptc"),
                   &rig.cluster->observer());
  RegisterClusterCrashHandlers(&fi, rig.cluster.get());
  Status st = CommitThroughCrashPoint(&rig, &fi, 1);
  EXPECT_TRUE(st.IsUnavailable()) << st.ToString();
  ASSERT_OK(rig.cluster->WaitForTxnDrain(kDrainTimeout));
  rig.cluster->AdvanceEpoch();
  const Timestamp now = rig.cluster->authority()->StableTime();
  EXPECT_EQ(VisibleIds(rig.cluster.get(), 0, now).count(1), 1u);
  EXPECT_EQ(VisibleIds(rig.cluster.get(), 1, now).count(1), 1u);
}

TEST(CoordinatorCrashMatrixTest, ThreePhaseMixedCommitStateCommits) {
  // One worker got COMMIT, the other's COMMIT was dropped on the wire and
  // then the coordinator died. The lagging worker is prepared-to-commit, so
  // consensus must finish the commit (Table 4.1, row "mixed").
  MatrixRig rig = MakeMatrixRig(CommitProtocol::kOptimized3PC);
  ChaosSchedule sched = CoordinatorCrashAt("coordinator.3pc.after_commit_send");
  LinkFault drop;
  drop.from = 0;
  drop.to = 2;          // second worker
  drop.msg_type = 4;    // MsgType::kCommit
  drop.action = FaultAction::kDrop;
  drop.max_fires = 1;
  sched.links.push_back(drop);
  FaultInjector fi(sched, &rig.cluster->observer());
  RegisterClusterCrashHandlers(&fi, rig.cluster.get());
  Status st = CommitThroughCrashPoint(&rig, &fi, 1);
  EXPECT_TRUE(st.IsUnavailable()) << st.ToString();
  ASSERT_OK(rig.cluster->WaitForTxnDrain(kDrainTimeout));
  rig.cluster->AdvanceEpoch();
  const Timestamp now = rig.cluster->authority()->StableTime();
  EXPECT_EQ(VisibleIds(rig.cluster.get(), 0, now).count(1), 1u);
  EXPECT_EQ(VisibleIds(rig.cluster.get(), 1, now).count(1), 1u);
}

TEST(CoordinatorCrashMatrixTest, TwoPhasePendingAborts) {
  // 2PC, no PREPARE seen: workers abort unilaterally (presumed abort).
  MatrixRig rig = MakeMatrixRig(CommitProtocol::kOptimized2PC);
  FaultInjector fi(CoordinatorCrashAt("coordinator.commit.begin"),
                   &rig.cluster->observer());
  RegisterClusterCrashHandlers(&fi, rig.cluster.get());
  Status st = CommitThroughCrashPoint(&rig, &fi, 1);
  EXPECT_TRUE(st.IsUnavailable()) << st.ToString();
  ASSERT_OK(rig.cluster->WaitForTxnDrain(kDrainTimeout));
  rig.cluster->AdvanceEpoch();
  const Timestamp now = rig.cluster->authority()->StableTime();
  EXPECT_EQ(VisibleIds(rig.cluster.get(), 0, now).count(1), 0u);
  EXPECT_EQ(VisibleIds(rig.cluster.get(), 1, now).count(1), 0u);
}

TEST(CoordinatorCrashMatrixTest, TwoPhasePreparedBlocksUntilRestart) {
  // The classic 2PC blocking problem (§4.3.2): the coordinator logged its
  // COMMIT decision and died before telling anyone. Prepared workers cannot
  // abort (the decision may be durable) and cannot commit (it may not be) —
  // they block until the coordinator restarts and re-delivers the outcome.
  MatrixRig rig = MakeMatrixRig(CommitProtocol::kOptimized2PC);
  FaultInjector fi(CoordinatorCrashAt("coordinator.2pc.after_decision_logged"),
                   &rig.cluster->observer());
  RegisterClusterCrashHandlers(&fi, rig.cluster.get());
  Status st = CommitThroughCrashPoint(&rig, &fi, 1);
  EXPECT_TRUE(st.IsUnavailable()) << st.ToString();

  // Blocked: the transaction stays active at both workers.
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  EXPECT_FALSE(rig.cluster->worker(0)->txns()->ActiveIds().empty());
  EXPECT_FALSE(rig.cluster->worker(1)->txns()->ActiveIds().empty());

  // Restart re-reads the decision log and re-delivers COMMIT (§4.3.2).
  ASSERT_OK(rig.cluster->coordinator()->Restart());
  ASSERT_OK(rig.cluster->WaitForTxnDrain(kDrainTimeout));
  rig.cluster->AdvanceEpoch();
  const Timestamp now = rig.cluster->authority()->StableTime();
  EXPECT_EQ(VisibleIds(rig.cluster.get(), 0, now).count(1), 1u);
  EXPECT_EQ(VisibleIds(rig.cluster.get(), 1, now).count(1), 1u);
}

TEST(CoordinatorCrashMatrixTest, TwoPhaseCommittedSurvivesRestart) {
  // COMMIT reached the workers but the coordinator died before collecting
  // ACKs: the data is already durable at the workers and the restarted
  // coordinator's re-delivery must be idempotent.
  MatrixRig rig = MakeMatrixRig(CommitProtocol::kOptimized2PC);
  FaultInjector fi(CoordinatorCrashAt("coordinator.2pc.after_commit_send"),
                   &rig.cluster->observer());
  RegisterClusterCrashHandlers(&fi, rig.cluster.get());
  Status st = CommitThroughCrashPoint(&rig, &fi, 1);
  EXPECT_TRUE(st.IsUnavailable()) << st.ToString();
  ASSERT_OK(rig.cluster->WaitForTxnDrain(kDrainTimeout));
  ASSERT_OK(rig.cluster->coordinator()->Restart());
  ASSERT_OK(rig.cluster->WaitForTxnDrain(kDrainTimeout));
  rig.cluster->AdvanceEpoch();
  const Timestamp now = rig.cluster->authority()->StableTime();
  EXPECT_EQ(VisibleIds(rig.cluster.get(), 0, now).count(1), 1u);
  EXPECT_EQ(VisibleIds(rig.cluster.get(), 1, now).count(1), 1u);
}

// ------------------------------------------ crashes racing crash handling

// Waits until `fi` has fired its first fault.
void WaitForFirstFault(const FaultInjector& fi) {
  while (fi.fired().empty()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

TEST(SimultaneousCrashTest, CrashWaitsForPeerCrashCallbackOnItsRuntime) {
  // Two workers crash at once. Worker B's crash runs worker A's crash
  // callback, which a fault point holds open while A crashes too. A's
  // Crash must wait for the callback: it then aborts a transaction B
  // coordinated on A's runtime, which must still be alive.
  MatrixRig rig = MakeMatrixRig(CommitProtocol::kOptimized2PC);
  Cluster* cluster = rig.cluster.get();
  const SiteId a = Cluster::WorkerSite(0);
  const SiteId b = Cluster::WorkerSite(1);
  ExecUpdateMsg dml;
  dml.txn = 777;
  dml.coordinator = b;
  dml.request.kind = UpdateRequest::Kind::kInsert;
  dml.request.table_id = rig.table;
  dml.request.values = {Value(int64_t{1}), Value(int64_t{1}), Value("x")};
  dml.request.tuple_id = 9001;
  ASSERT_OK(cluster->network()->Call(b, a, dml.Encode()).status());
  ASSERT_EQ(cluster->worker(0)->ActiveTxnIds().size(), 1u);

  ChaosSchedule sched;
  PointFault hold;
  hold.point = "worker.site_crash";
  hold.site = a;
  hold.action = FaultAction::kDelay;
  hold.delay_ms = 300;
  sched.points.push_back(hold);
  FaultInjector fi(sched, &cluster->observer());
  fi.Install();
  std::thread crash_b([cluster] { cluster->CrashWorker(1); });
  WaitForFirstFault(fi);
  cluster->CrashWorker(0);
  bool aborted = false;
  for (const obs::TraceEvent& e : cluster->observer().MergedTrace()) {
    if (e.site == a && e.txn == dml.txn &&
        std::string(e.kind) == "worker.aborted") {
      aborted = true;
    }
  }
  EXPECT_TRUE(aborted) << "A's Crash returned before its crash callback ran";
  crash_b.join();
  fi.Uninstall();
  EXPECT_FALSE(cluster->worker(0)->running());
  EXPECT_FALSE(cluster->worker(1)->running());
  // Both replicas are gone, so restart from the files without recovery.
  ASSERT_OK(cluster->worker(0)->Start());
  ASSERT_OK(cluster->worker(1)->Start());
  EXPECT_TRUE(cluster->worker(0)->ActiveTxnIds().empty());
}

class LateRegistrationTest
    : public ::testing::TestWithParam<CommitProtocol> {};

TEST_P(LateRegistrationTest, DmlHeldAcrossCoordinatorCrashStillTerminates) {
  // The coordinator crashes while worker 1's DML handler is held before it
  // registers the transaction, so the crash callback's scan misses it. The
  // handler must terminate the transaction itself once it registers.
  MatrixRig rig = MakeMatrixRig(GetParam());
  Cluster* cluster = rig.cluster.get();
  Coordinator* coord = cluster->coordinator();
  ChaosSchedule sched;
  PointFault hold;
  hold.point = "worker.exec_update";
  hold.site = Cluster::WorkerSite(0);
  hold.action = FaultAction::kDelay;
  hold.delay_ms = 300;
  sched.points.push_back(hold);
  FaultInjector fi(sched, &cluster->observer());
  ASSERT_OK_AND_ASSIGN(TxnId txn, coord->Begin());
  fi.Install();
  std::thread client([&] {
    (void)coord->Insert(txn, rig.table,
                        {Value(int64_t{1}), Value(int64_t{1}), Value("x")});
  });
  WaitForFirstFault(fi);
  coord->Crash();
  client.join();  // the held handler has registered the transaction
  EXPECT_OK(cluster->WaitForTxnDrain(std::chrono::milliseconds(1000)));
  fi.Uninstall();
}

INSTANTIATE_TEST_SUITE_P(Protocols, LateRegistrationTest,
                         ::testing::Values(CommitProtocol::kOptimized2PC,
                                           CommitProtocol::kOptimized3PC),
                         [](const auto& info) {
                           return info.param ==
                                          CommitProtocol::kOptimized2PC
                                      ? std::string("TwoPhase")
                                      : std::string("ThreePhase");
                         });

// -------------------------------------------- §5.5: failures DURING recovery

struct RecoveryRig {
  std::unique_ptr<Cluster> cluster;  // see MatrixRig on member order
  TableId table = 0;
  std::unique_ptr<test::TraceDumpOnFailure> dump_on_failure;
};

// 3 workers, full replicas; rows 0..9 checkpointed everywhere, rows 10..19
// committed while worker 0 is down (so its recovery has real work to do).
RecoveryRig MakeRecoveryRig() {
  RecoveryRig rig;
  ClusterOptions opt;
  opt.num_workers = 3;
  opt.protocol = CommitProtocol::kOptimized3PC;
  opt.sim = SimConfig::Zero();
  auto cluster = Cluster::Create(opt);
  HARBOR_CHECK_OK(cluster.status());
  rig.cluster = std::move(*cluster);
  rig.dump_on_failure =
      std::make_unique<test::TraceDumpOnFailure>(rig.cluster->observer());
  TableSpec spec;
  spec.name = "t";
  spec.schema = SmallSchema();
  spec.default_segment_page_budget = 4;
  auto table = rig.cluster->CreateTable(spec);
  HARBOR_CHECK_OK(table.status());
  rig.table = *table;
  Coordinator* coord = rig.cluster->coordinator();
  for (int64_t id = 0; id < 10; ++id) {
    HARBOR_CHECK_OK(coord->InsertTxn(
        rig.table, {Value(id), Value(id), Value("x")}));
  }
  rig.cluster->AdvanceEpoch();
  HARBOR_CHECK_OK(rig.cluster->CheckpointAll());
  rig.cluster->CrashWorker(0);
  for (int64_t id = 10; id < 20; ++id) {
    HARBOR_CHECK_OK(coord->InsertTxn(
        rig.table, {Value(id), Value(id), Value("x")}));
  }
  rig.cluster->AdvanceEpoch();
  return rig;
}

void ExpectConverged(RecoveryRig* rig, int recovered, int reference) {
  rig->cluster->AdvanceEpoch();
  const Timestamp now = rig->cluster->authority()->StableTime();
  std::set<int64_t> want = VisibleIds(rig->cluster.get(), reference, now);
  EXPECT_EQ(want.size(), 20u);
  EXPECT_EQ(VisibleIds(rig->cluster.get(), recovered, now), want);
}

TEST(RecoveryFaultTest, BuddyCrashMidPhase2RetriesWithOtherBuddy) {
  // §5.5.2: a recovery buddy dies while serving Phase 2 historical queries.
  // The attempt fails, and the retry replans the cover around the corpse.
  RecoveryRig rig = MakeRecoveryRig();
  ChaosSchedule sched;
  PointFault p;
  p.point = "worker.scan";  // first recovery scan kills the serving buddy
  sched.points.push_back(p);
  FaultInjector fi(sched, &rig.cluster->observer());
  RegisterClusterCrashHandlers(&fi, rig.cluster.get());
  fi.Install();
  RecoveryOptions ropt;
  ropt.max_attempts = 5;  // the dead buddy may win a liveness race once
  ASSERT_OK(rig.cluster->RecoverWorker(0, ropt).status());
  fi.Uninstall();
  ASSERT_EQ(fi.fired().size(), 1u);

  // Exactly one buddy died; converge against the survivor.
  int survivor = rig.cluster->worker(1)->running() ? 1 : 2;
  EXPECT_FALSE(rig.cluster->worker(survivor == 1 ? 2 : 1)->running());
  ExpectConverged(&rig, 0, survivor);
}

TEST(RecoveryFaultTest, RecoveringSiteCrashMidPhase3ReleasesBuddyLocks) {
  // §5.5.1's hard case: the recovering site dies while holding table read
  // locks on its buddies. The buddies must detect the failure and release
  // the orphaned locks, or updates would block forever.
  RecoveryRig rig = MakeRecoveryRig();
  ChaosSchedule sched;
  PointFault p;
  p.point = "recovery.phase3.locks_held";
  p.site = 1;  // the recovering site
  sched.points.push_back(p);
  FaultInjector fi(sched, &rig.cluster->observer());
  RegisterClusterCrashHandlers(&fi, rig.cluster.get());
  fi.Install();
  Status st = rig.cluster->RecoverWorker(0).status();
  fi.Uninstall();
  EXPECT_TRUE(st.IsUnavailable()) << st.ToString();
  EXPECT_FALSE(rig.cluster->worker(0)->running());

  // The buddies released the orphaned recovery locks: an update commits.
  ASSERT_OK(rig.cluster->coordinator()->InsertTxn(
      rig.table, {Value(int64_t{20}), Value(int64_t{20}), Value("x")}));
  rig.cluster->AdvanceEpoch();

  // A fresh attempt (fault disarmed) brings the site back.
  ASSERT_OK(rig.cluster->RecoverWorker(0).status());
  rig.cluster->AdvanceEpoch();
  const Timestamp now = rig.cluster->authority()->StableTime();
  std::set<int64_t> want = VisibleIds(rig.cluster.get(), 1, now);
  EXPECT_EQ(want.size(), 21u);
  EXPECT_EQ(VisibleIds(rig.cluster.get(), 0, now), want);
}

TEST(RecoveryFaultTest, CrashAfterPhase2CheckpointResumesFromIt) {
  // §5.5.1: per-object checkpoints written during Phase 2 survive a crash of
  // the recovering site; the next attempt starts from them instead of from
  // the pre-crash checkpoint (nothing is re-copied).
  RecoveryRig rig = MakeRecoveryRig();
  ChaosSchedule sched;
  PointFault p;
  p.point = "recovery.phase2.after_checkpoint";
  p.site = 1;
  sched.points.push_back(p);
  FaultInjector fi(sched, &rig.cluster->observer());
  RegisterClusterCrashHandlers(&fi, rig.cluster.get());
  fi.Install();
  Status st = rig.cluster->RecoverWorker(0).status();
  fi.Uninstall();
  EXPECT_TRUE(st.IsUnavailable()) << st.ToString();

  ASSERT_OK_AND_ASSIGN(RecoveryStats stats, rig.cluster->RecoverWorker(0));
  ASSERT_EQ(stats.objects.size(), 1u);
  EXPECT_EQ(stats.objects[0].phase2_tuples_copied, 0u)
      << "second attempt must resume from the mid-recovery checkpoint";
  ExpectConverged(&rig, 0, 1);
}

TEST(RecoveryFaultTest, ComingOnlineErrorIsRetriedWithinRecover) {
  // A transient failure of the coming-online exchange (§5.4.2) fails the
  // attempt but releases the recovery locks; Recover()'s own retry loop
  // completes on the next attempt without operator intervention.
  RecoveryRig rig = MakeRecoveryRig();
  ChaosSchedule sched;
  PointFault p;
  p.point = "recovery.phase3.coming_online";
  p.site = 1;
  p.action = FaultAction::kError;
  sched.points.push_back(p);
  FaultInjector fi(sched, &rig.cluster->observer());
  RegisterClusterCrashHandlers(&fi, rig.cluster.get());
  fi.Install();
  Status st = rig.cluster->RecoverWorker(0).status();
  fi.Uninstall();
  ASSERT_OK(st);
  ASSERT_EQ(fi.fired().size(), 1u);
  ExpectConverged(&rig, 0, 1);
}

// ----------------------------------- thread lifecycle across crash cycles

/// Live tasks in this process, from /proc/self/status.
int CountProcessThreads() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("Threads:", 0) == 0) {
      return std::atoi(line.c_str() + 8);
    }
  }
  return -1;
}

TEST(FaultInjectorTest, HundredAsyncCrashRecoverCyclesStayBounded) {
  // Regression: async crash handlers used to accumulate one un-joined
  // std::thread handle per firing for the injector's whole lifetime. A
  // long chaos run (100 crash/recover cycles here) must keep both the
  // retained-handle count and the process thread count flat.
  ClusterOptions opt;
  opt.num_workers = 2;
  opt.protocol = CommitProtocol::kOptimized3PC;
  opt.sim = SimConfig::Zero();
  ASSERT_OK_AND_ASSIGN(auto cluster, Cluster::Create(opt));
  TableSpec spec;
  spec.name = "t";
  spec.schema = SmallSchema();
  spec.default_segment_page_budget = 4;
  ASSERT_OK_AND_ASSIGN(TableId table, cluster->CreateTable(spec));
  for (int64_t id = 0; id < 5; ++id) {
    ASSERT_OK(cluster->coordinator()->InsertTxn(
        table, {Value(id), Value(id), Value("x")}));
  }
  cluster->AdvanceEpoch();
  ASSERT_OK(cluster->CheckpointAll());

  constexpr int kCycles = 100;
  ChaosSchedule sched;
  for (int i = 0; i < kCycles; ++i) {
    PointFault p;
    p.point = "cycle";
    p.site = 1;
    sched.points.push_back(p);  // one one-shot crash spec per cycle
  }
  FaultInjector fi(sched);
  Cluster* raw = cluster.get();
  fi.RegisterCrashHandler(1, [raw] { raw->CrashWorker(0); });
  fi.Install();

  const int baseline = CountProcessThreads();
  ASSERT_GT(baseline, 0);
  int max_threads = baseline;
  for (int i = 0; i < kCycles; ++i) {
    // Fired from this (non-pool) thread: exercises the fallback
    // crash-thread path and its reaping.
    Status st = fi.OnPoint("cycle", 1, fault::CrashMode::kAsync);
    ASSERT_TRUE(st.IsUnavailable()) << i << ": " << st.ToString();
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (cluster->worker(0)->running() &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    ASSERT_FALSE(cluster->worker(0)->running()) << "crash " << i << " hung";
    fi.WaitForCrashes();  // Crash() finished; recovery may start
    Status recovered = cluster->RecoverWorker(0).status();
    ASSERT_TRUE(recovered.ok()) << "cycle " << i << ": "
                                << recovered.ToString();
    EXPECT_LT(fi.pending_crash_threads(), 8)
        << "fallback crash threads not reaped at cycle " << i;
    max_threads = std::max(max_threads, CountProcessThreads());
  }
  fi.Uninstall();
  EXPECT_EQ(fi.pending_crash_threads(), 0);
  EXPECT_EQ(fi.fired().size(), static_cast<size_t>(kCycles));
  // Transient spares come and go; a leak of one thread per cycle would
  // blow far past this bound.
  EXPECT_LT(max_threads, baseline + 40)
      << "thread count grew across crash/recover cycles";
}

TEST(FaultInjectorTest, AsyncCrashFromPoolTaskRunsOnScheduler) {
  // An async crash tripped inside a pool task must run as a task on that
  // same scheduler — no fallback thread at all.
  runtime::Scheduler sched;
  ChaosSchedule cs;
  PointFault p;
  p.point = "p";
  p.site = 7;
  cs.points.push_back(p);
  FaultInjector fi(cs);
  std::atomic<bool> crashed{false};
  fi.RegisterCrashHandler(7, [&] { crashed.store(true); });
  fi.Install();
  std::mutex mu;
  std::condition_variable cv;
  bool fired = false;
  ASSERT_TRUE(sched.Post([&] {
    Status st = fi.OnPoint("p", 7, fault::CrashMode::kAsync);
    EXPECT_TRUE(st.IsUnavailable()) << st.ToString();
    std::lock_guard<std::mutex> lock(mu);
    fired = true;
    cv.notify_all();
  }));
  {
    std::unique_lock<std::mutex> lock(mu);
    ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(10),
                            [&] { return fired; }));
  }
  fi.WaitForCrashes();
  EXPECT_TRUE(crashed.load());
  EXPECT_EQ(fi.pending_crash_threads(), 0)
      << "pool-task crash should not have spawned a fallback thread";
  fi.Uninstall();
}

}  // namespace
}  // namespace harbor
