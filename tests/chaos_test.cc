// Chaos harness: randomly generated fault schedules (coordinator/worker
// crash points, message drops, duplicates, delays) run against a randomized
// workload on a 3-site K=2 cluster. After the dust settles — consensus,
// coordinator restart, worker recovery — the harness asserts HARBOR's
// end-to-end claims:
//   1. no certainly-committed transaction is lost, no certainly-aborted
//      transaction leaks;
//   2. live replicas are equivalent at the final time AND at every stable
//      timestamp recorded during the run (time travel survives chaos);
//   3. recovery of every crashed site terminates;
//   4. a coordinator crash blocks prepared workers under 2PC (until restart)
//      but not under 3PC — the protocols' central behavioral difference.
//
// Every case is reproducible: the failure message carries the schedule in
// ChaosSchedule grammar; re-run it verbatim via the HARBOR_CHAOS_SCHEDULE
// environment variable (see ChaosReplayTest), or shift the whole suite with
// HARBOR_SEED.

#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <iterator>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/cluster.h"
#include "exec/seq_scan.h"
#include "fault/fault_injector.h"
#include "tests/test_util.h"

namespace harbor {
namespace {

using fault::ChaosSchedule;
using fault::FaultAction;
using fault::FaultInjector;
using fault::LinkFault;
using fault::PointFault;
using test::SmallSchema;

// ------------------------------------------------------ schedule generator

// Crash points that are safe under 2PC: a coordinator death at
// "coordinator.after_prepare" leaves workers prepared with nothing in the
// decision log — blocked with no one to unblock them (the paper's argument
// for 3PC). The 3PC consensus protocol handles every row of Table 4.1.
const char* const k2pcCoordinatorPoints[] = {
    "coordinator.distribute",
    "coordinator.commit.begin",
    "coordinator.before_prepare",
    "coordinator.2pc.after_decision_logged",
    "coordinator.2pc.after_commit_send",
};
const char* const k3pcCoordinatorPoints[] = {
    "coordinator.distribute",
    "coordinator.commit.begin",
    "coordinator.before_prepare",
    "coordinator.after_prepare",
    "coordinator.3pc.after_ptc",
    "coordinator.3pc.after_commit_send",
};
const char* const kWorkerPoints[] = {
    "worker.exec_update",     "worker.prepare",
    "worker.prepare_to_commit", "worker.commit",
    "worker.commit.after_apply", "worker.abort",
};

ChaosSchedule MakeSchedule(uint64_t seed, CommitProtocol protocol) {
  Random rng(seed);
  ChaosSchedule sched;
  sched.seed = seed;

  if (rng.OneIn(0.7)) {  // coordinator crash at a random protocol state
    PointFault p;
    if (IsThreePhase(protocol)) {
      p.point = k3pcCoordinatorPoints[rng.Uniform(
          std::size(k3pcCoordinatorPoints))];
    } else {
      p.point = k2pcCoordinatorPoints[rng.Uniform(
          std::size(k2pcCoordinatorPoints))];
    }
    p.site = 0;
    p.hit = 1 + rng.Uniform(50);
    sched.points.push_back(p);
  }
  if (rng.OneIn(0.6)) {  // one worker fault: crash or handler delay
    PointFault p;
    p.point = kWorkerPoints[rng.Uniform(std::size(kWorkerPoints))];
    p.site = static_cast<SiteId>(1 + rng.Uniform(3));
    p.hit = 1 + rng.Uniform(60);
    if (!rng.OneIn(0.7)) {
      p.action = FaultAction::kDelay;
      p.delay_ms = 1 + static_cast<int64_t>(rng.Uniform(10));
    }
    sched.points.push_back(p);
  }
  const uint64_t nlinks = rng.Uniform(4);
  for (uint64_t i = 0; i < nlinks; ++i) {
    LinkFault l;
    switch (rng.Uniform(3)) {
      case 0:
        // Drops are confined to update distribution: pre-decision, and the
        // coordinator aborts at every attempted site on failure. Dropping
        // outcome messages without a site failure would model a network the
        // paper's fail-stop TCP assumption rules out.
        l.from = 0;
        l.msg_type = 1;  // kExecUpdate
        l.action = FaultAction::kDrop;
        l.probability = 0.05 + 0.2 * rng.NextDouble();
        l.max_fires = 1 + rng.Uniform(3);
        break;
      case 1:
        // Duplicates of outcome messages: handlers must be idempotent.
        l.msg_type = static_cast<uint16_t>(3 + rng.Uniform(3));  // PTC/C/A
        l.action = FaultAction::kDuplicate;
        l.probability = 0.2 + 0.5 * rng.NextDouble();
        l.max_fires = 1 + rng.Uniform(3);
        break;
      default:
        l.action = FaultAction::kDelay;
        l.delay_ms = 1 + static_cast<int64_t>(rng.Uniform(5));
        l.probability = 0.1 + 0.3 * rng.NextDouble();
        l.max_fires = 1 + rng.Uniform(5);
        break;
    }
    sched.links.push_back(l);
  }
  return sched;
}

// ------------------------------------------------------------ the harness

std::map<int64_t, int64_t> ReplicaRows(Cluster* cluster, int w,
                                       Timestamp as_of) {
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
  std::map<int64_t, int64_t> out;
  for (const Tuple& t : *rows) {
    Tuple logical = t.RemapColumns(*mapping);
    out[logical.value(0).AsInt64()] = logical.value(1).AsInt64();
  }
  return out;
}

// A continuous lock-free reader running through the chaos: every Query in
// the default (snapshot) mode must either succeed with an internally
// consistent result — no logical tuple visible twice (the torn-read
// symptom) — or fail cleanly; it must never stall, because it takes no
// locks and never waits on a recovering site.
struct SnapshotReaderStats {
  std::atomic<int64_t> attempts{0};
  std::atomic<int64_t> successes{0};
  std::atomic<int64_t> torn{0};
  std::atomic<int64_t> stalled{0};
  std::mutex mu;
  std::string first_anomaly;

  void Anomaly(std::atomic<int64_t>* counter, const std::string& what) {
    counter->fetch_add(1);
    std::lock_guard<std::mutex> lock(mu);
    if (first_anomaly.empty()) first_anomaly = what;
  }
};

void SnapshotReaderLoop(Coordinator* coord, TableId table,
                        std::atomic<bool>* stop, SnapshotReaderStats* stats) {
  for (;;) {
    // One final query always runs after stop is signalled — stop is set
    // post-recovery, when the cluster is healthy again, so the progress
    // assertion (successes > 0) cannot flake on a CPU-starved run where
    // the reader never got a turn while sites were down.
    const bool last = stop->load(std::memory_order_relaxed);
    const auto t0 = std::chrono::steady_clock::now();
    auto rows = coord->Query(table, Predicate());
    const auto elapsed = std::chrono::steady_clock::now() - t0;
    stats->attempts.fetch_add(1);
    if (elapsed > std::chrono::seconds(5)) {
      stats->Anomaly(&stats->stalled, "snapshot query stalled");
    }
    if (rows.ok()) {
      stats->successes.fetch_add(1);
      std::set<int64_t> ids;
      for (const Tuple& t : *rows) {
        const int64_t id = t.value(0).AsInt64();
        if (!ids.insert(id).second) {
          stats->Anomaly(&stats->torn, "torn read: id " + std::to_string(id) +
                                           " visible twice in one snapshot");
        }
      }
    }
    if (last) return;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

void RunChaos(const ChaosSchedule& schedule, CommitProtocol protocol) {
  SCOPED_TRACE("protocol=" + std::string(CommitProtocolToString(protocol)) +
               " schedule=\"" + schedule.ToString() + "\"");

  ClusterOptions opt;
  opt.num_workers = 3;
  opt.protocol = protocol;
  opt.sim = SimConfig::Zero();
  opt.lock_timeout = std::chrono::milliseconds(100);
  ASSERT_OK_AND_ASSIGN(auto cluster, Cluster::Create(opt));
  TableSpec spec;
  spec.name = "t";
  spec.schema = SmallSchema();
  spec.default_segment_page_budget = 4;
  // One physically permuted replica: equivalence must be logical (§3.1).
  ReplicaSpec r0, r1, r2;
  r0.worker_index = 0;
  r1.worker_index = 1;
  r1.column_order = {2, 0, 1};
  r2.worker_index = 2;
  spec.replicas = {r0, r1, r2};
  ASSERT_OK_AND_ASSIGN(TableId table, cluster->CreateTable(spec));
  Coordinator* coord = cluster->coordinator();

  FaultInjector injector(schedule, &cluster->observer());
  injector.RegisterCrashHandler(0, [coord] { coord->Crash(); });
  Cluster* raw = cluster.get();
  for (int i = 0; i < 3; ++i) {
    injector.RegisterCrashHandler(Cluster::WorkerSite(i),
                                  [raw, i] { raw->CrashWorker(i); });
  }

  // Reference model. An operation whose outcome the client cannot know
  // (commit failed mid-protocol with the coordinator dead or crashing) makes
  // its row's fate uncertain: `any_qty` rows must exist with some value,
  // `unknown` rows are exempt from presence checks. Everything else is
  // certain: in `rows` with an exact value, or absent.
  std::map<int64_t, int64_t> rows;
  std::set<int64_t> any_qty;
  std::set<int64_t> unknown;
  int64_t next_id = 0;
  std::vector<Timestamp> stable_history;
  Random rng(schedule.seed * 0x2545F4914F6CDD1DULL + 1);

  // Record the protocol timeline (and every fired fault) so a failing
  // replay prints an ordered event trace instead of a bare assertion.
  // Declared after the cluster: destroyed first, so a failed ASSERT_* on
  // any path below dumps the merged trace while the cluster still exists.
  test::TraceDumpOnFailure dump_on_failure(cluster->observer());
  injector.Install();

  // Snapshot readers run through the entire schedule — faults, crashes,
  // settle, recovery — and are joined on every exit path.
  SnapshotReaderStats reader_stats;
  std::atomic<bool> reader_stop{false};
  std::thread reader_thread(SnapshotReaderLoop, coord, table, &reader_stop,
                            &reader_stats);
  struct ReaderJoiner {
    std::atomic<bool>& stop;
    std::thread& thread;
    ~ReaderJoiner() {
      stop.store(true);
      if (thread.joinable()) thread.join();
    }
  } reader_joiner{reader_stop, reader_thread};

  for (int op = 0; op < 40; ++op) {
    if (op % 6 == 5) {
      cluster->AdvanceEpoch();
      stable_history.push_back(cluster->authority()->StableTime());
    }
    auto txn = coord->Begin();
    if (!txn.ok()) break;  // coordinator crashed; stop the workload

    // Choose insert (50%) / update (25%) / delete (25%), like the
    // property-test workload but against the certain rows only.
    const int kind = static_cast<int>(rng.Uniform(4));
    int64_t id;
    int64_t qty = rng.UniformRange(0, 1000);
    Status st;
    bool is_insert = kind <= 1 || rows.empty();
    if (is_insert) {
      id = next_id++;
      st = coord->Insert(*txn, table, {Value(id), Value(qty), Value("c")});
    } else {
      auto it = rows.begin();
      std::advance(it, rng.Uniform(rows.size()));
      id = it->first;
      Predicate p;
      p.And("id", CompareOp::kEq, Value(id));
      if (kind == 2) {
        st = coord->Delete(*txn, table, p);
      } else {
        st = coord->Update(*txn, table, p, {SetClause{"qty", Value(qty)}});
      }
    }
    if (!st.ok()) {
      // Update distribution failed (drop, worker crash, injected error):
      // the coordinator already aborted at every attempted site; certain.
      if (coord->running()) (void)coord->Abort(*txn);
      continue;
    }
    st = coord->Commit(*txn);
    if (st.ok()) {
      if (is_insert) {
        rows[id] = qty;
      } else if (kind == 2) {
        rows.erase(id);
        any_qty.erase(id);
      } else {
        rows[id] = qty;
      }
    } else if (st.IsAborted()) {
      // Certain abort: the model is untouched.
    } else {
      // Crash mid-commit-protocol: the outcome is whatever consensus or the
      // restarted coordinator decides. Taint the row.
      if (is_insert) {
        unknown.insert(id);
      } else if (kind == 2) {
        rows.erase(id);
        unknown.insert(id);
      } else {
        rows.erase(id);
        any_qty.insert(id);
      }
    }
  }
  injector.Uninstall();  // joins any in-flight crash threads

  // ---- Settle: consensus, coordinator restart, worker recovery ----
  const bool coordinator_crashed = !coord->running();
  if (coordinator_crashed) {
    if (IsThreePhase(protocol)) {
      // 3PC claim: the surviving workers resolve every in-flight
      // transaction among themselves — BEFORE the coordinator returns.
      const Status drained =
          cluster->WaitForTxnDrain(std::chrono::milliseconds(5000));
      EXPECT_TRUE(drained.ok())
          << "3PC consensus must terminate without the coordinator: "
          << drained.ToString();
      ASSERT_OK(coord->Restart());
    } else {
      // 2PC claim: prepared workers may block until the coordinator
      // restarts and re-delivers its logged decisions (§4.3.2).
      ASSERT_OK(coord->Restart());
      const Status drained =
          cluster->WaitForTxnDrain(std::chrono::milliseconds(5000));
      EXPECT_TRUE(drained.ok())
          << "2PC workers must unblock once the coordinator restarts: "
          << drained.ToString();
    }
  } else {
    ASSERT_OK(cluster->WaitForTxnDrain(std::chrono::milliseconds(5000)));
  }

  // Recovery terminates for every crashed worker.
  RecoveryOptions ropt;
  ropt.max_attempts = 5;
  for (int i = 0; i < 3; ++i) {
    if (!cluster->worker(i)->running()) {
      Status recovered = cluster->RecoverWorker(i, ropt).status();
      ASSERT_TRUE(recovered.ok())
          << "recovery of worker " << i
          << " must terminate: " << recovered.ToString();
    }
  }
  cluster->AdvanceEpoch();
  const Timestamp now = cluster->authority()->StableTime();

  // ---- Snapshot-reader invariants: the reader ran through every fault and
  // through recovery itself. No torn result, no stall (snapshot reads take
  // no locks and never wait on a recovering site), and it made progress.
  reader_stop.store(true);
  reader_thread.join();
  EXPECT_GT(reader_stats.successes.load(), 0)
      << "no snapshot query succeeded during the run";
  EXPECT_EQ(reader_stats.torn.load(), 0) << reader_stats.first_anomaly;
  EXPECT_EQ(reader_stats.stalled.load(), 0) << reader_stats.first_anomaly;

  // Quiesced zero-lock check: with the workload drained and every site
  // recovered, snapshot queries still acquire nothing from any LockManager,
  // and the two read modes agree on the final state.
  int64_t acquires_before = 0;
  for (int i = 0; i < 3; ++i) {
    acquires_before += cluster->worker(i)->metrics()
                           .counter(obs::CounterId::kLockAcquires)
                           .value();
  }
  ASSERT_OK_AND_ASSIGN(std::vector<Tuple> snap_rows,
                       coord->Query(table, Predicate()));
  int64_t acquires_after = 0;
  for (int i = 0; i < 3; ++i) {
    acquires_after += cluster->worker(i)->metrics()
                          .counter(obs::CounterId::kLockAcquires)
                          .value();
  }
  EXPECT_EQ(acquires_after, acquires_before)
      << "a snapshot query touched a lock manager after recovery";
  ASSERT_OK_AND_ASSIGN(
      std::vector<Tuple> lock_rows,
      coord->Query(table, Predicate(), ReadMode::kLocking));
  auto by_id = [](const std::vector<Tuple>& ts) {
    std::map<int64_t, int64_t> out;
    for (const Tuple& t : ts) out[t.value(0).AsInt64()] = t.value(1).AsInt64();
    return out;
  };
  EXPECT_EQ(by_id(snap_rows), by_id(lock_rows))
      << "snapshot and locking reads disagree on the settled state";

  // ---- Invariant 2: replica equivalence, now and at every recorded
  // stable timestamp (includes the recovered and permuted replicas).
  std::vector<Timestamp> checks = stable_history;
  checks.push_back(now);
  for (Timestamp ts : checks) {
    std::map<int64_t, int64_t> reference = ReplicaRows(cluster.get(), 0, ts);
    for (int w = 1; w < 3; ++w) {
      EXPECT_EQ(ReplicaRows(cluster.get(), w, ts), reference)
          << "replica " << w << " diverges at stable time " << ts;
    }
  }

  // ---- Invariant 1: certain outcomes are preserved.
  std::map<int64_t, int64_t> final_rows = ReplicaRows(cluster.get(), 0, now);
  for (const auto& [id, qty] : rows) {
    auto it = final_rows.find(id);
    ASSERT_NE(it, final_rows.end()) << "committed row " << id << " lost";
    if (any_qty.count(id) == 0) {
      EXPECT_EQ(it->second, qty) << "committed row " << id << " has a stale "
                                 << "value";
    }
  }
  for (int64_t id = 0; id < next_id; ++id) {
    if (rows.count(id) || any_qty.count(id) || unknown.count(id)) continue;
    EXPECT_EQ(final_rows.count(id), 0u)
        << "aborted/deleted row " << id << " reappeared";
  }
}

// ----------------------------------------- targeted recovery-stream chaos

// Kills the serving recovery buddy in the middle of a Phase 2 chunk stream.
// The recovering site must fail the attempt, then resume from its durable
// watermark against the *other* buddy — the (insertion_ts, tuple_id) cursor
// is replica-independent — without duplicating or losing a single tuple.
TEST(ChaosRecoveryStreamTest, BuddyCrashMidChunkStreamResumesFromWatermark) {
  ClusterOptions opt;
  opt.num_workers = 3;
  opt.protocol = CommitProtocol::kOptimized3PC;
  opt.sim = SimConfig::Zero();
  ASSERT_OK_AND_ASSIGN(auto cluster, Cluster::Create(opt));
  TableSpec spec;
  spec.name = "t";
  spec.schema = SmallSchema();
  spec.default_segment_page_budget = 4;
  ASSERT_OK_AND_ASSIGN(TableId table, cluster->CreateTable(spec));
  Coordinator* coord = cluster->coordinator();

  for (int i = 0; i < 10; ++i) {
    ASSERT_OK(coord->InsertTxn(table, {Value(int64_t{i}), Value(int64_t{i}),
                                       Value("base")}));
  }
  cluster->AdvanceEpoch();
  ASSERT_OK(cluster->CheckpointAll());
  for (int i = 10; i < 130; ++i) {
    ASSERT_OK(coord->InsertTxn(table, {Value(int64_t{i}), Value(int64_t{i}),
                                       Value("delta")}));
  }
  cluster->AdvanceEpoch();
  cluster->CrashWorker(2);

  // With buddies {worker 0, worker 1} alive, PlanCover picks worker 1 for
  // table 1; the point's crash handler kills it on the fourth streamed
  // chunk, after three watermark advances.
  ChaosSchedule sched;
  PointFault p;
  p.point = "recovery.phase2.chunk";
  p.site = Cluster::WorkerSite(2);
  p.hit = 4;
  sched.points.push_back(p);
  FaultInjector injector(sched, &cluster->observer());
  Cluster* raw = cluster.get();
  injector.RegisterCrashHandler(Cluster::WorkerSite(2),
                                [raw] { raw->CrashWorker(1); });
  test::TraceDumpOnFailure dump_on_failure(cluster->observer());
  injector.Install();

  RecoveryOptions ropt;
  ropt.stream_chunk_tuples = 8;
  ropt.watermark_interval_chunks = 1;
  ASSERT_OK(cluster->RecoverWorker(2, ropt).status());
  injector.Uninstall();

  const obs::Metrics& m = cluster->worker(2)->metrics();
  EXPECT_GE(m.counter(obs::CounterId::kRecoveryStreamResumes).value(), 1)
      << "the second attempt re-copied the object instead of resuming from "
         "the durable watermark";

  cluster->AdvanceEpoch();
  const Timestamp now = cluster->authority()->StableTime();
  std::map<int64_t, int64_t> reference = ReplicaRows(cluster.get(), 0, now);
  EXPECT_EQ(reference.size(), 130u);
  EXPECT_EQ(ReplicaRows(cluster.get(), 2, now), reference)
      << "recovered replica diverges after the mid-stream buddy crash";
}

TEST(ChaosRecoveryStreamTest, ParallelBuddyCrashMidChunkFailsOverAtCursor) {
  ClusterOptions opt;
  opt.num_workers = 4;
  opt.protocol = CommitProtocol::kOptimized3PC;
  opt.sim = SimConfig::Zero();
  ASSERT_OK_AND_ASSIGN(auto cluster, Cluster::Create(opt));
  TableSpec spec;
  spec.name = "t";
  spec.schema = SmallSchema();
  spec.default_segment_page_budget = 4;
  ASSERT_OK_AND_ASSIGN(TableId table, cluster->CreateTable(spec));
  Coordinator* coord = cluster->coordinator();

  for (int i = 0; i < 10; ++i) {
    ASSERT_OK(coord->InsertTxn(table, {Value(int64_t{i}), Value(int64_t{i}),
                                       Value("base")}));
  }
  cluster->AdvanceEpoch();
  ASSERT_OK(cluster->CheckpointAll());
  // Many insertion epochs so the catch-up round splits into real windows.
  for (int batch = 0; batch < 15; ++batch) {
    for (int i = 0; i < 10; ++i) {
      int64_t id = 10 + batch * 10 + i;
      ASSERT_OK(coord->InsertTxn(table, {Value(id), Value(id),
                                         Value("delta")}));
    }
    cluster->AdvanceEpoch();
  }
  cluster->CrashWorker(3);

  // Three buddies each serve one window-stream of the recovering site. The
  // fourth applied chunk kills worker 1 mid-round: the stream it was
  // serving must fail over to a surviving replica at its cursor — within
  // the same attempt — while the other streams keep going.
  ChaosSchedule sched;
  PointFault p;
  p.point = "recovery.phase2.chunk";
  p.site = Cluster::WorkerSite(3);
  p.hit = 4;
  sched.points.push_back(p);
  FaultInjector injector(sched, &cluster->observer());
  Cluster* raw = cluster.get();
  injector.RegisterCrashHandler(Cluster::WorkerSite(3),
                                [raw] { raw->CrashWorker(1); });
  test::TraceDumpOnFailure dump_on_failure(cluster->observer());
  injector.Install();

  RecoveryOptions ropt;
  ropt.stream_chunk_tuples = 8;
  ropt.watermark_interval_chunks = 1;
  ropt.max_parallel_streams = 3;
  ASSERT_OK(cluster->RecoverWorker(3, ropt).status());
  injector.Uninstall();

  const obs::Metrics& m = cluster->worker(3)->metrics();
  EXPECT_GE(m.counter(obs::CounterId::kRecoveryStreamFailovers).value(), 1)
      << "the dead buddy's stream did not fail over to another replica";
  int attempts = 0;
  for (const obs::TraceEvent& e : cluster->observer().MergedTrace()) {
    if (std::string(e.kind) == "recovery.begin") ++attempts;
  }
  EXPECT_EQ(attempts, 1)
      << "the buddy crash escalated to a whole-recovery retry instead of an "
         "in-stream cursor failover";

  // Zero lost and zero duplicated tuples; untouched streams unaffected.
  cluster->AdvanceEpoch();
  const Timestamp now = cluster->authority()->StableTime();
  std::map<int64_t, int64_t> reference = ReplicaRows(cluster.get(), 0, now);
  EXPECT_EQ(reference.size(), 160u);
  EXPECT_EQ(ReplicaRows(cluster.get(), 3, now), reference)
      << "recovered replica diverges after the mid-stream buddy crash";
}

// ------------------------------------------------------------- the suites

class ChaosScheduleTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ChaosScheduleTest, ClusterSurvivesRandomFaultSchedule) {
  const uint64_t seed = test::MixSeed(GetParam());
  // Alternate protocols across the suite so both families face chaos.
  const CommitProtocol protocol = GetParam() % 2 == 0
                                      ? CommitProtocol::kOptimized3PC
                                      : CommitProtocol::kOptimized2PC;
  RunChaos(MakeSchedule(seed, protocol), protocol);
}

// 24 distinct seeded schedules per run (shifted wholesale by HARBOR_SEED).
INSTANTIATE_TEST_SUITE_P(
    Seeds, ChaosScheduleTest,
    ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16,
                      17, 18, 19, 20, 21, 22, 23, 24));

// A pinned schedule against a fixed sequential workload must fire the same
// faults in the same order on every run — the determinism contract the
// replay workflow (and the shared-runtime migration) relies on: the fired()
// log and the surviving rows are bit-identical across runs.
TEST(ChaosReplayTest, PinnedScheduleReplaysIdentically) {
  const std::string pinned =
      "seed=7;"
      "point=worker.prepare,site=2,hit=3,action=error;"
      "point=worker.exec_update,site=1,hit=8,action=crash;"
      "link=0->2,type=1,action=drop,max=1";
  auto schedule_r = ChaosSchedule::Parse(pinned);
  ASSERT_OK(schedule_r.status());

  auto run_once = [&](std::vector<std::string>* fired_out,
                      std::map<int64_t, int64_t>* rows_out) {
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
    Coordinator* coord = cluster->coordinator();

    FaultInjector injector(*schedule_r);
    injector.RegisterCrashHandler(0, [coord] { coord->Crash(); });
    Cluster* raw = cluster.get();
    for (int i = 0; i < 2; ++i) {
      injector.RegisterCrashHandler(Cluster::WorkerSite(i),
                                    [raw, i] { raw->CrashWorker(i); });
    }
    injector.Install();
    // Fixed single-client workload, sized so the async crash fires on the
    // LAST insert (the 8th exec_update hit at site 1) — no post-crash ops
    // whose outcome would depend on crash-drain timing.
    for (int64_t id = 0; id < 8; ++id) {
      (void)coord->InsertTxn(table, {Value(id), Value(id), Value("x")});
    }
    injector.Uninstall();  // waits out the in-flight async crash
    for (int i = 0; i < 2; ++i) {
      if (!cluster->worker(i)->running()) {
        RecoveryOptions ropt;
        ropt.max_attempts = 5;
        ASSERT_OK(cluster->RecoverWorker(i, ropt).status());
      }
    }
    cluster->AdvanceEpoch();
    *fired_out = injector.fired();
    *rows_out =
        ReplicaRows(cluster.get(), 0, cluster->authority()->StableTime());
  };

  std::vector<std::string> fired_a, fired_b;
  std::map<int64_t, int64_t> rows_a, rows_b;
  run_once(&fired_a, &rows_a);
  run_once(&fired_b, &rows_b);
  EXPECT_FALSE(fired_a.empty());
  EXPECT_EQ(fired_a, fired_b)
      << "pinned chaos schedule fired differently across two runs";
  EXPECT_EQ(rows_a, rows_b)
      << "pinned chaos schedule left different surviving rows";
}

// Replays one exact schedule from the environment:
//   HARBOR_CHAOS_SCHEDULE='seed=...;point=...;link=...' HARBOR_CHAOS_PROTOCOL=2pc
//   ./chaos_test --gtest_filter='*Replay*'
TEST(ChaosReplayTest, ReplaysScheduleFromEnvironment) {
  const char* text = std::getenv("HARBOR_CHAOS_SCHEDULE");
  if (text == nullptr || *text == '\0') {
    GTEST_SKIP() << "set HARBOR_CHAOS_SCHEDULE to replay a chaos schedule";
  }
  auto schedule_r = ChaosSchedule::Parse(text);
  ASSERT_TRUE(schedule_r.ok()) << "HARBOR_CHAOS_SCHEDULE failed to parse: "
                               << schedule_r.status().ToString();
  ChaosSchedule schedule = std::move(schedule_r).value();
  const char* proto_env = std::getenv("HARBOR_CHAOS_PROTOCOL");
  const CommitProtocol protocol =
      proto_env != nullptr && std::string(proto_env) == "2pc"
          ? CommitProtocol::kOptimized2PC
          : CommitProtocol::kOptimized3PC;
  RunChaos(schedule, protocol);
}

}  // namespace
}  // namespace harbor
