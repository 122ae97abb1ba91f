// Snapshot read path: the lock-free default read mode (§3.1/§3.3 applied to
// up-to-date reads). Covers the SnapshotTracker low-water mark, the proof
// that snapshot scans acquire zero LockManager locks, the recovering-site
// refusal, and — under TSan — the invariant that no site's learned mark
// ever passes the cluster's stable time while commits, aborts, epoch ticks,
// and crash/recovery cycles run concurrently.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/cluster.h"
#include "core/messages.h"
#include "obs/observer.h"
#include "tests/test_util.h"
#include "txn/snapshot_tracker.h"

namespace harbor {
namespace {

using test::SmallSchema;

TEST(SnapshotTrackerTest, LearnIsMonotoneMaxMerge) {
  SnapshotTracker t;
  EXPECT_EQ(t.mark(), 0u);
  t.Learn(5);
  EXPECT_EQ(t.mark(), 5u);
  t.Learn(3);  // stale marks are ignored, never regress
  EXPECT_EQ(t.mark(), 5u);
  t.Learn(9);
  EXPECT_EQ(t.mark(), 9u);
  t.Learn(0);
  EXPECT_EQ(t.mark(), 9u);
}

TEST(SnapshotTrackerTest, ConcurrentLearnersConvergeToMax) {
  SnapshotTracker t;
  std::vector<std::thread> threads;
  for (int i = 0; i < 4; ++i) {
    threads.emplace_back([&t, i] {
      for (Timestamp ts = 1; ts <= 2000; ++ts) {
        t.Learn(ts + static_cast<Timestamp>(i));
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(t.mark(), 2003u);
}

class SnapshotReadTest : public ::testing::Test {
 protected:
  void Build(int num_workers) {
    ClusterOptions opt;
    opt.num_workers = num_workers;
    opt.sim = SimConfig::Zero();
    ASSERT_OK_AND_ASSIGN(cluster_, Cluster::Create(opt));
    TableSpec spec;
    spec.name = "t";
    spec.schema = SmallSchema();
    spec.default_segment_page_budget = 2;  // several pages -> several S locks
    ASSERT_OK_AND_ASSIGN(table_, cluster_->CreateTable(spec));
    for (int i = 0; i < 24; ++i) {
      ASSERT_OK(cluster_->coordinator()->InsertTxn(
          table_, {Value(int64_t{i}), Value(int64_t{i * 10}), Value("r")}));
    }
    cluster_->AdvanceEpoch();
  }

  int64_t SumCounter(obs::CounterId id) {
    int64_t sum = 0;
    for (int w = 0; w < cluster_->num_workers(); ++w) {
      sum += cluster_->worker(w)->metrics().counter(id).value();
    }
    return sum;
  }

  std::unique_ptr<Cluster> cluster_;
  TableId table_ = 0;
};

// The acceptance-criterion assertion: snapshot scans perform zero
// LockManager acquisitions (the registry's lock.acquires does not move)
// while forced locking reads still take their IS/S locks.
TEST_F(SnapshotReadTest, SnapshotScansAcquireZeroLocks) {
  Build(2);
  Coordinator* coord = cluster_->coordinator();

  const int64_t obs_before = SumCounter(obs::CounterId::kLockAcquires);
  const int64_t snap_before = SumCounter(obs::CounterId::kReadSnapshotScans);
  const int64_t bypass_before = SumCounter(obs::CounterId::kReadLockBypass);

  for (int i = 0; i < 5; ++i) {
    ASSERT_OK_AND_ASSIGN(std::vector<Tuple> rows,
                         coord->Query(table_, Predicate()));
    EXPECT_EQ(rows.size(), 24u);
  }

  EXPECT_EQ(SumCounter(obs::CounterId::kLockAcquires), obs_before)
      << "snapshot reads must not touch the lock manager";
  EXPECT_GE(SumCounter(obs::CounterId::kReadSnapshotScans) - snap_before, 5);
  EXPECT_GT(SumCounter(obs::CounterId::kReadLockBypass) - bypass_before, 0)
      << "bypass accounting should report the locks a locking read would "
         "have taken";
  for (int w = 0; w < 2; ++w) {
    EXPECT_EQ(cluster_->worker(w)->locks()->NumLockedResources(), 0u);
  }

  // Forcing the locking mode takes locks again and counts separately.
  const int64_t lock_scans_before =
      SumCounter(obs::CounterId::kReadLockScans);
  ASSERT_OK_AND_ASSIGN(
      std::vector<Tuple> rows,
      coord->Query(table_, Predicate(), ReadMode::kLocking));
  EXPECT_EQ(rows.size(), 24u);
  EXPECT_GT(SumCounter(obs::CounterId::kLockAcquires), obs_before);
  EXPECT_GT(SumCounter(obs::CounterId::kReadLockScans), lock_scans_before);
}

TEST_F(SnapshotReadTest, SnapshotLockingAndHistoricalReadsAgree) {
  Build(2);
  Coordinator* coord = cluster_->coordinator();
  const Timestamp stable = cluster_->authority()->StableTime();

  ASSERT_OK_AND_ASSIGN(std::vector<Tuple> snap,
                       coord->Query(table_, Predicate()));
  ASSERT_OK_AND_ASSIGN(
      std::vector<Tuple> locked,
      coord->Query(table_, Predicate(), ReadMode::kLocking));
  ASSERT_OK_AND_ASSIGN(std::vector<Tuple> hist,
                       coord->HistoricalQuery(table_, Predicate(), stable));

  auto key_sorted = [](std::vector<Tuple> rows) {
    std::sort(rows.begin(), rows.end(), [](const Tuple& a, const Tuple& b) {
      return a.value(0).AsInt64() < b.value(0).AsInt64();
    });
    std::vector<std::pair<int64_t, int64_t>> out;
    out.reserve(rows.size());
    for (const Tuple& t : rows) {
      out.emplace_back(t.value(0).AsInt64(), t.value(1).AsInt64());
    }
    return out;
  };
  EXPECT_EQ(key_sorted(snap), key_sorted(locked));
  EXPECT_EQ(key_sorted(snap), key_sorted(hist));
}

// Read-your-writes for sequential callers: a commit followed immediately by
// a snapshot query (no epoch tick in between) must see the new row.
TEST_F(SnapshotReadTest, SnapshotReadSeesOwnPrecedingCommit) {
  Build(1);
  Coordinator* coord = cluster_->coordinator();
  ASSERT_OK(coord->InsertTxn(
      table_, {Value(int64_t{900}), Value(int64_t{9000}), Value("new")}));
  ASSERT_OK_AND_ASSIGN(std::vector<Tuple> rows,
                       coord->Query(table_, Predicate()));
  EXPECT_EQ(rows.size(), 25u);
}

// A site that is not online refuses snapshot scans outright, and the
// coordinator's planner routes the query to an online replica — snapshot
// reads never block on recovery.
TEST_F(SnapshotReadTest, RecoveringSiteRefusesSnapshotReadsAndQueryRoutes) {
  Build(2);
  Coordinator* coord = cluster_->coordinator();
  const SiteId recovering = Cluster::WorkerSite(1);
  cluster_->liveness()->Set(recovering, SiteState::kRecovering);

  ScanMsg scan;
  scan.spec.object_id =
      cluster_->worker(1)->local_catalog()->objects()[0]->object_id;
  scan.spec.mode = ScanMode::kVisible;
  scan.spec.as_of = cluster_->authority()->StableTime();
  scan.snapshot_read = true;
  auto direct = cluster_->network()->Call(0, recovering, scan.Encode());
  ASSERT_FALSE(direct.ok());
  EXPECT_TRUE(direct.status().IsUnavailable()) << direct.status().ToString();

  // The same scan without snapshot mode is still served (recovery's own
  // locked reads must keep working).
  scan.snapshot_read = false;
  EXPECT_OK(
      cluster_->network()->Call(0, recovering, scan.Encode()).status());

  // The default read path silently routes around the recovering site.
  ASSERT_OK_AND_ASSIGN(std::vector<Tuple> rows,
                       coord->Query(table_, Predicate()));
  EXPECT_EQ(rows.size(), 24u);
  cluster_->liveness()->Set(recovering, SiteState::kOnline);
}

// TSan regression: the low-water mark must never advance past any in-flight
// commit timestamp — equivalently, every learned mark is <= StableTime()
// sampled afterwards (StableTime is non-decreasing and always below every
// in-flight commit) — under concurrent commits, aborts, epoch ticks, and a
// worker crash/recovery cycle. Per-site marks must also be monotone.
// Satellite regression: on a quiescent cluster no commit ever gossips a
// snapshot mark, so the coordinator's learned low-water mark stays at its
// never-learned value 0. With a generous snapshot_max_lag_epochs the lazy
// fast path used to serve that 0 as the snapshot time ("Now() - 0 is within
// lag"), and every snapshot query read at time zero — seeing none of the
// bulk-loaded data. The fallback must fire whenever the mark has never been
// learned, regardless of the configured lag.
TEST(SnapshotLowWaterMarkTest, QuiescentClusterDoesNotServeTimeZeroSnapshot) {
  ClusterOptions opt;
  opt.num_workers = 2;
  opt.sim = SimConfig::Zero();
  opt.snapshot_max_lag_epochs = 10;
  ASSERT_OK_AND_ASSIGN(auto cluster, Cluster::Create(opt));
  TableSpec spec;
  spec.name = "t";
  spec.schema = SmallSchema();
  ASSERT_OK_AND_ASSIGN(TableId table, cluster->CreateTable(spec));

  // Bulk load only — no transactions, no gossip, learned mark still 0.
  std::vector<LoadRow> rows;
  for (int i = 0; i < 8; ++i) {
    LoadRow r;
    r.tuple_id = static_cast<TupleId>(i + 1);
    r.insertion_ts = 1;
    r.values = {Value(int64_t{i}), Value(int64_t{i * 10}), Value("bulk")};
    rows.push_back(r);
  }
  ASSERT_OK(cluster->BulkLoad(table, rows));
  cluster->AdvanceEpoch(3);

  ASSERT_OK_AND_ASSIGN(std::vector<Tuple> got,
                       cluster->coordinator()->Query(table, Predicate()));
  EXPECT_EQ(got.size(), 8u)
      << "snapshot query on a quiescent cluster read at time zero";
}

TEST(SnapshotLowWaterMarkTest, MarkNeverPassesStableTimeUnderConcurrency) {
  ClusterOptions opt;
  opt.num_workers = 3;
  opt.sim = SimConfig::Zero();
  opt.lock_timeout = std::chrono::milliseconds(100);
  ASSERT_OK_AND_ASSIGN(auto cluster, Cluster::Create(opt));
  TableSpec spec;
  spec.name = "t";
  spec.schema = SmallSchema();
  spec.default_segment_page_budget = 4;
  ASSERT_OK_AND_ASSIGN(TableId table, cluster->CreateTable(spec));
  Coordinator* coord = cluster->coordinator();
  ASSERT_OK_AND_ASSIGN(Coordinator* coord2, cluster->AddCoordinator());

  std::atomic<bool> stop{false};
  std::atomic<int64_t> next_id{0};
  std::atomic<int64_t> violations{0};
  std::mutex first_mu;
  std::string first_violation;
  auto violate = [&](const std::string& what) {
    violations.fetch_add(1);
    std::lock_guard<std::mutex> lock(first_mu);
    if (first_violation.empty()) first_violation = what;
  };

  // Two coordinators commit and abort concurrently; statuses are ignored —
  // crashes make individual transactions fail, which is fine.
  auto workload = [&](Coordinator* c) {
    while (!stop.load(std::memory_order_relaxed)) {
      const int64_t id = next_id.fetch_add(1, std::memory_order_relaxed);
      (void)c->InsertTxn(table,
                         {Value(id), Value(id), Value("w")});
      if (id % 5 == 0) {
        auto txn = c->Begin();
        if (txn.ok()) {
          (void)c->Insert(*txn, table,
                          {Value(id + 1000000), Value(id), Value("a")});
          (void)c->Abort(*txn);
        }
      }
    }
  };
  std::thread committer1([&] { workload(coord); });
  std::thread committer2([&] { workload(coord2); });

  // Snapshot readers keep the gossip path hot while the sampler watches.
  std::thread reader([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      (void)coord->Query(table, Predicate());
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });

  std::thread sampler([&] {
    std::vector<Timestamp> last_mark(3, 0);
    while (!stop.load(std::memory_order_relaxed)) {
      for (int w = 0; w < 3; ++w) {
        // Order matters: sample the mark FIRST, the stable time AFTER.
        // StableTime is non-decreasing, so mark <= stable must hold.
        const Timestamp mark = cluster->worker(w)->snapshot_mark();
        const Timestamp stable = cluster->authority()->StableTime();
        if (mark > stable) {
          violate("worker " + std::to_string(w) + " mark " +
                  std::to_string(mark) + " > stable " +
                  std::to_string(stable));
        }
        if (mark < last_mark[w]) {
          violate("worker " + std::to_string(w) + " mark regressed " +
                  std::to_string(last_mark[w]) + " -> " +
                  std::to_string(mark));
        }
        last_mark[w] = std::max(last_mark[w], mark);
      }
      const Timestamp snap = coord->SnapshotTime();
      const Timestamp stable = cluster->authority()->StableTime();
      if (snap > stable) {
        violate("coordinator SnapshotTime " + std::to_string(snap) +
                " > stable " + std::to_string(stable));
      }
      cluster->AdvanceEpoch();
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });

  // Crash/recovery cycles: a recovering site must neither stall the marks
  // of the others nor regress its own.
  for (int cycle = 0; cycle < 2; ++cycle) {
    std::this_thread::sleep_for(std::chrono::milliseconds(60));
    cluster->CrashWorker(2);
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    RecoveryOptions ropt;
    ropt.max_attempts = 5;
    ASSERT_OK(cluster->RecoverWorker(2, ropt).status());
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(60));

  stop = true;
  committer1.join();
  committer2.join();
  reader.join();
  sampler.join();

  EXPECT_EQ(violations.load(), 0) << first_violation;

  // The marks actually moved: the piggyback protocol is alive, not vacuous.
  Timestamp max_mark = 0;
  for (int w = 0; w < 3; ++w) {
    max_mark = std::max(max_mark, cluster->worker(w)->snapshot_mark());
  }
  EXPECT_GT(max_mark, 0u);
}

}  // namespace
}  // namespace harbor
