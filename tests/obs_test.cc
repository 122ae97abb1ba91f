#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <thread>
#include <vector>

#include "buffer/buffer_pool.h"
#include "common/random.h"
#include "core/cluster.h"
#include "obs/metrics.h"
#include "storage/file_manager.h"
#include "obs/observer.h"
#include "obs/trace.h"
#include "tests/test_util.h"

namespace harbor {
namespace {

using obs::CounterId;
using obs::GaugeId;
using obs::Histogram;
using obs::HistogramId;
using obs::Metrics;
using obs::Observer;
using obs::TraceEvent;
using obs::TraceRing;

// ------------------------------------------------------------- histogram

TEST(HistogramTest, BucketBoundaries) {
  // Group 0 is exact: one bucket per value in [0, 16).
  for (size_t i = 0; i < Histogram::kSubBuckets; ++i) {
    EXPECT_EQ(Histogram::BucketLowerBound(i), static_cast<int64_t>(i));
  }
  // Group 1 stays width-1 (16..31), group 2 is width-2 (32, 34, ...).
  EXPECT_EQ(Histogram::BucketLowerBound(16), 16);
  EXPECT_EQ(Histogram::BucketLowerBound(31), 31);
  EXPECT_EQ(Histogram::BucketLowerBound(32), 32);
  EXPECT_EQ(Histogram::BucketLowerBound(33), 34);

  Histogram h;
  h.Record(0);
  h.Record(1);
  h.Record(3);    // exact buckets below 16
  h.Record(3);
  h.Record(33);   // bucket 32: [32, 34)
  h.Record(35);   // bucket 33: [34, 36)
  h.Record(1000);
  EXPECT_EQ(h.bucket(0), 1u);
  EXPECT_EQ(h.bucket(1), 1u);
  EXPECT_EQ(h.bucket(3), 2u);
  EXPECT_EQ(h.bucket(32), 1u);
  EXPECT_EQ(h.bucket(33), 1u);
  EXPECT_EQ(h.bucket(Histogram::BucketIndex(1000)), 1u);
  EXPECT_EQ(h.count(), 7);
  EXPECT_EQ(h.sum(), 1075);
  EXPECT_EQ(h.min(), 0);
  EXPECT_EQ(h.max(), 1000);
}

TEST(HistogramTest, LogLinearResolutionBound) {
  // Every bucket's width is at most max(1, lower/16): <= 6.25% relative
  // resolution at every magnitude (the p999 requirement).
  for (int64_t v = 1; v < (int64_t{1} << 50); v += 1 + v / 3) {
    const size_t i = Histogram::BucketIndex(v);
    const int64_t lo = Histogram::BucketLowerBound(i);
    const int64_t hi = Histogram::BucketLowerBound(i + 1);
    ASSERT_LE(lo, v) << v;
    ASSERT_GT(hi, v) << v;
    ASSERT_LE(hi - lo, std::max<int64_t>(1, lo / 16)) << v;
  }
}

TEST(HistogramTest, NegativeAndHugeValuesClamp) {
  Histogram h;
  h.Record(-5);  // clamps into bucket 0
  h.Record(std::numeric_limits<int64_t>::max());  // clamps into last bucket
  EXPECT_EQ(h.bucket(0), 1u);
  EXPECT_EQ(h.bucket(Histogram::kNumBuckets - 1), 1u);
  EXPECT_EQ(h.count(), 2);
}

TEST(HistogramTest, PercentileUpperBound) {
  Histogram h;
  EXPECT_EQ(h.PercentileUpperBound(0.5), 0);  // empty
  for (int i = 0; i < 99; ++i) h.Record(3);   // exact bucket 3
  h.Record(1000);                             // clamps to max
  EXPECT_EQ(h.PercentileUpperBound(0.5), 4);
  EXPECT_EQ(h.PercentileUpperBound(0.99), 4);
  EXPECT_EQ(h.PercentileUpperBound(1.0), 1000);
  EXPECT_NEAR(h.mean(), (99 * 3 + 1000) / 100.0, 1e-9);
}

TEST(HistogramTest, PercentileErrorBoundOnKnownDistribution) {
  // p50/p99/p999 against the exact sorted percentiles of a heavy-tailed
  // distribution spanning many octaves: the log-linear layout promises the
  // interpolated estimate stays within one bucket (<= 6.25%) of exact.
  Histogram h;
  Random rng(7);
  std::vector<int64_t> samples;
  constexpr int kN = 50000;
  samples.reserve(kN);
  for (int i = 0; i < kN; ++i) {
    const int64_t v =
        1 + static_cast<int64_t>(std::exp(rng.NextDouble() * 13.0));
    samples.push_back(v);
    h.Record(v);
  }
  std::sort(samples.begin(), samples.end());
  for (const double p : {0.5, 0.99, 0.999}) {
    const auto rank = static_cast<size_t>(
        std::ceil(p * static_cast<double>(kN)));
    const int64_t exact = samples[rank - 1];
    const int64_t got = h.Percentile(p);
    EXPECT_NEAR(static_cast<double>(got), static_cast<double>(exact),
                0.0625 * static_cast<double>(exact) + 1.0)
        << "p=" << p;
  }
  // CountAbove is the stall detector: conservative (bucket-granular), and
  // exact for thresholds on a bucket's upper edge.
  EXPECT_EQ(h.CountAbove(h.max()), 0);
  EXPECT_EQ(h.CountAbove(0), kN);
}

TEST(HistogramTest, ConcurrentRecording) {
  Histogram h;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h] {
      for (int i = 0; i < kPerThread; ++i) h.Record(i % 1024);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(h.count(), kThreads * kPerThread);
  uint64_t bucketed = 0;
  for (size_t i = 0; i < Histogram::kNumBuckets; ++i) bucketed += h.bucket(i);
  EXPECT_EQ(bucketed, static_cast<uint64_t>(kThreads * kPerThread));
  EXPECT_EQ(h.min(), 0);
  EXPECT_EQ(h.max(), 1023);
}

// ------------------------------------------------------------ trace ring

TEST(TraceRingTest, Wraparound) {
  TraceRing ring(4);
  for (uint64_t i = 1; i <= 10; ++i) {
    TraceEvent e;
    e.seq = i;
    e.kind = "test";
    ring.Record(std::move(e));
  }
  auto events = ring.Snapshot();
  ASSERT_EQ(events.size(), 4u);
  // Oldest events were overwritten; the last 4 remain, oldest first.
  EXPECT_EQ(events[0].seq, 7u);
  EXPECT_EQ(events[3].seq, 10u);
  EXPECT_EQ(ring.dropped(), 6u);
}

TEST(TraceRingTest, SnapshotBeforeFull) {
  TraceRing ring(8);
  for (uint64_t i = 1; i <= 3; ++i) {
    TraceEvent e;
    e.seq = i;
    ring.Record(std::move(e));
  }
  auto events = ring.Snapshot();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].seq, 1u);
  EXPECT_EQ(events[2].seq, 3u);
  EXPECT_EQ(ring.dropped(), 0u);
}

TEST(TraceRingTest, ConcurrentRecordKeepsBound) {
  TraceRing ring(64);
  constexpr int kThreads = 8;
  constexpr int kPerThread = 5000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&ring] {
      for (int i = 0; i < kPerThread; ++i) {
        TraceEvent e;
        e.kind = "spin";
        ring.Record(std::move(e));
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(ring.Snapshot().size(), 64u);
  EXPECT_EQ(ring.dropped(),
            static_cast<uint64_t>(kThreads * kPerThread - 64));
}

// -------------------------------------------------------------- observer

TEST(ObserverTest, TraceIsOffUntilEnabled) {
  Observer o;
  o.MetricsFor(1).counter(CounterId::kDiskForcedWrites).Add();
  o.MetricsFor(1).Trace("dropped");
  o.Trace(2, "dropped");
  EXPECT_FALSE(o.tracing());
  EXPECT_TRUE(o.MergedTrace().empty());
  // Counts are always on.
  EXPECT_EQ(o.MetricsFor(1).counter(CounterId::kDiskForcedWrites).value(), 1);
  o.EnableTrace();
  o.MetricsFor(1).Trace("kept");
  ASSERT_EQ(o.MergedTrace().size(), 1u);
  EXPECT_EQ(o.MergedTrace()[0].site, 1u);
}

TEST(ObserverTest, MergedTraceOrdersBySeqAcrossSites) {
  Observer o;
  o.EnableTrace();
  o.Trace(2, "b.first");
  o.Trace(1, "a.second");
  o.MetricsFor(2).Trace("b.third");
  auto merged = o.MergedTrace();
  ASSERT_EQ(merged.size(), 3u);
  EXPECT_STREQ(merged[0].kind, "b.first");
  EXPECT_STREQ(merged[1].kind, "a.second");
  EXPECT_STREQ(merged[2].kind, "b.third");
  EXPECT_LT(merged[0].seq, merged[1].seq);
  EXPECT_LT(merged[1].seq, merged[2].seq);
}

TEST(ObserverTest, ConcurrentRecordingAcrossSites) {
  Observer o;
  o.EnableTrace();
  constexpr int kThreads = 8;
  constexpr int kPerThread = 2000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    // Sparse ids that collide in the site table, added concurrently.
    threads.emplace_back([&o, t] {
      const SiteId site = static_cast<SiteId>((t % 3) * 1024 + 7);
      for (int i = 0; i < kPerThread; ++i) {
        Metrics& m = o.MetricsFor(site);
        m.counter(CounterId::kDiskWrites).Add();
        m.histogram(HistogramId::kWalBatchRecords).Record(i);
        if (i % 100 == 0) m.Trace("tick", 0, i);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(o.Sites(), (std::vector<SiteId>{7, 1031, 2055}));
  EXPECT_EQ(o.Total(CounterId::kDiskWrites), kThreads * kPerThread);
  EXPECT_EQ(o.MergedTrace().size(),
            static_cast<size_t>(kThreads * kPerThread / 100));
}

TEST(ObserverTest, TraceToStringFormatsMergedTimeline) {
  Observer o;
  o.EnableTrace();
  EXPECT_NE(o.TraceToString().find("no trace events"), std::string::npos);
  o.Trace(1, "coord.prepare.send", 42);
  o.Trace(2, "fault.point", 0, 0, 0, "worker.prepare@site2 action=crash");
  std::string dump = o.TraceToString();
  EXPECT_NE(dump.find("--- event trace (2 events) ---"), std::string::npos)
      << dump;
  EXPECT_NE(dump.find("coord.prepare.send"), std::string::npos) << dump;
  EXPECT_NE(dump.find("fault.point"), std::string::npos) << dump;
  EXPECT_NE(dump.find("worker.prepare@site2 action=crash"), std::string::npos)
      << dump;
  EXPECT_NE(dump.find("--- end trace ---"), std::string::npos) << dump;
}

TEST(ObserverTest, JsonSnapshotShape) {
  Observer o;
  Metrics& m = o.MetricsFor(7);
  m.counter(CounterId::kWalForces).Add(3);
  m.gauge(GaugeId::kWalFlushedLsn).Set(41);
  m.histogram(HistogramId::kWalForceNs).Record(1000);
  std::string json = o.MetricsJson(7);
  EXPECT_NE(json.find("\"site\":7"), std::string::npos) << json;
  EXPECT_NE(json.find("\"wal.forces\":3"), std::string::npos) << json;
  EXPECT_NE(json.find("\"wal.flushed_lsn\":41"), std::string::npos) << json;
  EXPECT_NE(json.find("\"wal.force_ns\":{\"count\":1"), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"p999\":"), std::string::npos) << json;
}

// ---------------------------------------------------- cluster integration

// Every pool count lives in one place: misses, evictions and dirty-victim
// flushes in the registry, hits in the pool's shard-local counters.
TEST(ObserverBufferPoolTest, PoolCountersMatchPoolAccounting) {
  Metrics m;
  FileManager fm(test::MakeTempDir("obs-pool"), nullptr);
  HARBOR_CHECK_OK(fm.OpenOrCreate(1));
  for (int i = 0; i < 16; ++i) {
    HARBOR_CHECK_OK(fm.AllocatePage(1).status());
  }
  BufferPool pool(&fm, 4, m);
  // Three rounds of 16 dirtied pages through 4 frames: misses, evictions,
  // and dirty-victim flushes all fire.
  int64_t accesses = 0;
  for (int round = 0; round < 3; ++round) {
    for (uint32_t p = 0; p < 16; ++p) {
      auto h = pool.GetPage(PageId{1, p});
      ASSERT_OK(h.status());
      ++accesses;
      PageLatchGuard latch(*h);
      h->data()[0] = static_cast<uint8_t>(p);
      h->MarkDirty();
    }
  }
  ASSERT_OK(pool.GetPage(PageId{1, 15}).status());  // guaranteed hit
  ++accesses;

  const int64_t misses = m.counter(CounterId::kBufMisses).value();
  EXPECT_EQ(pool.hits() + misses, accesses);
  EXPECT_GT(pool.hits(), 0);
  EXPECT_GE(misses, 16);  // the first round misses every page
  // Each miss past the 4 free frames recycled a victim, and every victim
  // was dirty.
  EXPECT_EQ(m.counter(CounterId::kBufEvictions).value(), misses - 4);
  EXPECT_EQ(m.counter(CounterId::kBufDirtyVictimFlushes).value(),
            misses - 4);
}

TEST(ObserverClusterTest, ForcedWriteMetricMatchesSimDisk) {
  ClusterOptions opt;
  opt.num_workers = 2;
  opt.protocol = CommitProtocol::kTraditional2PC;
  auto cluster_or = Cluster::Create(opt);
  ASSERT_OK(cluster_or.status());
  std::unique_ptr<Cluster> cluster = std::move(cluster_or).value();
  test::TraceDumpOnFailure dump_on_failure(cluster->observer());

  TableSpec spec;
  spec.name = "t";
  spec.schema = test::SmallSchema();
  ASSERT_OK_AND_ASSIGN(TableId table, cluster->CreateTable(spec));

  obs::Observer& o = cluster->observer();
  auto count = [&](SiteId site, CounterId id) {
    return o.MetricsFor(site).counter(id).value();
  };
  std::vector<int64_t> wal0, disk0;
  for (int i = 0; i < cluster->num_workers(); ++i) {
    wal0.push_back(count(Cluster::WorkerSite(i), CounterId::kWalForces));
    disk0.push_back(
        count(Cluster::WorkerSite(i), CounterId::kDiskForcedWrites));
  }
  ASSERT_OK(cluster->coordinator()->InsertTxn(
      table, test::SmallRow(1, 10, "alpha")));

  for (int i = 0; i < cluster->num_workers(); ++i) {
    const SiteId site = Cluster::WorkerSite(i);
    // Each log force is one forced write on the site's log disk: PREPARE
    // and COMMIT under 2PC.
    const int64_t forces = count(site, CounterId::kWalForces) - wal0[i];
    EXPECT_EQ(forces, 2) << "site " << site;
    EXPECT_EQ(count(site, CounterId::kDiskForcedWrites) - disk0[i], forces)
        << "site " << site;
    EXPECT_EQ(count(site, CounterId::kTxnCommitted), 1) << "site " << site;
  }
  // The 2PC coordinator forced its decision record.
  const Metrics& cm = o.MetricsFor(cluster->coordinator()->site_id());
  EXPECT_EQ(cm.counter(CounterId::kDiskForcedWrites).value(), 1);
  EXPECT_EQ(cm.counter(CounterId::kTxnCommitted).value(), 1);
  EXPECT_EQ(cm.histogram(HistogramId::kCommitLatencyNs).count(), 1);
}

// ------------------------------------------------- Table 4.2 from the registry

struct Table42Row {
  CommitProtocol protocol;
  int64_t msgs_per_worker, coord_forces, worker_forces;
};

void PrintTo(const Table42Row& row, std::ostream* os) {
  *os << CommitProtocolToString(row.protocol);
}

// Messages and forced writes of one single-insert commit (§4.3.4), counted
// by the cluster's registry: the rows bench_table_4_2 prints.
class ClusterMetricsTest : public ::testing::TestWithParam<Table42Row> {};

TEST_P(ClusterMetricsTest, Table42CommitCostsAreExact) {
  const Table42Row& row = GetParam();
  constexpr int kWorkers = 2;
  ClusterOptions opt;
  opt.num_workers = kWorkers;
  opt.protocol = row.protocol;
  ASSERT_OK_AND_ASSIGN(auto cluster, Cluster::Create(opt));
  TableSpec spec;
  spec.name = "t";
  spec.schema = test::SmallSchema();
  ASSERT_OK_AND_ASSIGN(TableId table, cluster->CreateTable(spec));
  Coordinator* coord = cluster->coordinator();
  ASSERT_OK_AND_ASSIGN(TxnId txn, coord->Begin());
  ASSERT_OK(coord->Insert(txn, table, test::SmallRow(1, 1, "x")));

  obs::Observer& o = cluster->observer();
  auto forces = [&](SiteId site) {
    return o.MetricsFor(site).counter(CounterId::kWalForces).value();
  };
  auto worker_forces = [&] {
    int64_t n = 0;
    for (int w = 0; w < kWorkers; ++w) n += forces(Cluster::WorkerSite(w));
    return n;
  };
  const int64_t msgs0 = o.Total(CounterId::kNetMessagesSent);
  const int64_t coord0 = forces(coord->site_id());
  const int64_t workers0 = worker_forces();
  ASSERT_OK(coord->Commit(txn));
  EXPECT_EQ((o.Total(CounterId::kNetMessagesSent) - msgs0) / kWorkers,
            row.msgs_per_worker);
  EXPECT_EQ(forces(coord->site_id()) - coord0, row.coord_forces);
  EXPECT_EQ((worker_forces() - workers0) / kWorkers, row.worker_forces);
}

INSTANTIATE_TEST_SUITE_P(
    Protocols, ClusterMetricsTest,
    ::testing::Values(
        Table42Row{CommitProtocol::kTraditional2PC, 4, 1, 2},
        Table42Row{CommitProtocol::kOptimized2PC, 4, 1, 0},
        Table42Row{CommitProtocol::kCanonical3PC, 6, 0, 3},
        Table42Row{CommitProtocol::kOptimized3PC, 6, 0, 0}),
    [](const ::testing::TestParamInfo<Table42Row>& info) {
      std::string name = CommitProtocolToString(info.param.protocol);
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

// Each cluster owns its registry: two clusters in one process never share
// a count, and neither sees the other's trace.
TEST(ClusterMetricsTwoClustersTest, KeepSeparateCounts) {
  ClusterOptions opt;
  opt.num_workers = 2;
  ASSERT_OK_AND_ASSIGN(auto a, Cluster::Create(opt));
  ASSERT_OK_AND_ASSIGN(auto b, Cluster::Create(opt));
  a->observer().EnableTrace();
  TableSpec spec;
  spec.name = "t";
  spec.schema = test::SmallSchema();
  ASSERT_OK_AND_ASSIGN(TableId ta, a->CreateTable(spec));
  ASSERT_OK_AND_ASSIGN(TableId tb, b->CreateTable(spec));
  for (int i = 0; i < 3; ++i) {
    ASSERT_OK(a->coordinator()->InsertTxn(ta, test::SmallRow(i, i, "a")));
  }
  ASSERT_OK(b->coordinator()->InsertTxn(tb, test::SmallRow(0, 0, "b")));

  auto committed = [](Cluster* c) {
    return c->observer()
        .MetricsFor(c->coordinator()->site_id())
        .counter(CounterId::kTxnCommitted)
        .value();
  };
  EXPECT_EQ(committed(a.get()), 3);
  EXPECT_EQ(committed(b.get()), 1);
  EXPECT_EQ(a->worker(0)->metrics().counter(CounterId::kTxnCommitted).value(),
            3);
  EXPECT_EQ(b->worker(0)->metrics().counter(CounterId::kTxnCommitted).value(),
            1);
  EXPECT_GT(a->observer().Total(CounterId::kNetMessagesSent),
            b->observer().Total(CounterId::kNetMessagesSent));
  EXPECT_FALSE(a->observer().MergedTrace().empty());
  EXPECT_TRUE(b->observer().MergedTrace().empty());
}

}  // namespace
}  // namespace harbor
