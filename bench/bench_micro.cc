// Microbenchmarks of the substrate components (google-benchmark): heap page
// operations, buffer pool access, lock manager, log appends/forces, tuple
// pack/unpack, and sequential scans. Pure in-memory speed — the simulated
// cost model is disabled so these measure the implementation itself.

#include <benchmark/benchmark.h>

#include <atomic>
#include <cstring>
#include <map>
#include <mutex>
#include <thread>

#include "bench/bench_util.h"
#include "buffer/buffer_pool.h"
#include "core/recovery_manager.h"
#include "exec/seq_scan.h"
#include "lock/lock_manager.h"
#include "obs/metrics.h"
#include "sim/sim_disk.h"
#include "storage/heap_page.h"
#include "storage/local_catalog.h"
#include "tests/test_util.h"
#include "txn/version_store.h"
#include "wal/log_manager.h"

namespace harbor {
namespace {

std::string BenchDir(const std::string& hint) {
  std::string tmpl = "/tmp/harbor-micro-" + hint + "-XXXXXX";
  char* dir = ::mkdtemp(tmpl.data());
  HARBOR_CHECK(dir != nullptr);
  return dir;
}

/// The registry the standalone components below (no cluster) count in.
obs::Metrics& BenchMetrics() {
  static auto* metrics = new obs::Metrics();
  return *metrics;
}

Schema BenchSchema() {
  std::vector<Column> cols;
  for (int i = 0; i < 14; ++i) {
    cols.push_back(Column::Int32("f" + std::to_string(i)));
  }
  return Schema(std::move(cols));
}

void BM_TuplePackUnpack(benchmark::State& state) {
  Schema schema = BenchSchema();
  std::vector<Value> values;
  for (int i = 0; i < 14; ++i) values.push_back(Value(i));
  Tuple t(values);
  t.set_tuple_id(1);
  std::vector<uint8_t> buf(schema.tuple_bytes());
  for (auto _ : state) {
    t.Pack(schema, buf.data());
    Tuple back = Tuple::Unpack(schema, buf.data());
    benchmark::DoNotOptimize(back);
  }
}
BENCHMARK(BM_TuplePackUnpack);

void BM_HeapPageInsert(benchmark::State& state) {
  std::vector<uint8_t> page(kPageSize);
  HeapPage view(page.data(), 80);
  view.Init();
  std::vector<uint8_t> tuple(80, 0x5a);
  for (auto _ : state) {
    auto slot = view.InsertTuple(tuple.data());
    if (!slot.ok()) {
      view.Init();
      continue;
    }
    benchmark::DoNotOptimize(*slot);
  }
}
BENCHMARK(BM_HeapPageInsert);

void BM_BufferPoolHit(benchmark::State& state) {
  FileManager fm(BenchDir("pool"), nullptr);
  HARBOR_CHECK_OK(fm.OpenOrCreate(1));
  HARBOR_CHECK_OK(fm.AllocatePage(1).status());
  BufferPool pool(&fm, 16, BenchMetrics());
  for (auto _ : state) {
    auto h = pool.GetPage(PageId{1, 0});
    benchmark::DoNotOptimize(h->data());
  }
}
BENCHMARK(BM_BufferPoolHit);

// --------------------------------------------------------------------------
// Multi-threaded buffer-pool benchmarks (threads x pool-size grid). These are
// the numbers recorded in BENCH_buffer_pool.json: aggregate page-access
// throughput when several site threads share one pool, with and without
// modeled disk latency on the miss path. Run them with
//   bench_micro --benchmark_filter=BufferPoolMT --benchmark_format=json

struct MtPoolEnv {
  std::unique_ptr<SimDisk> disk;
  std::unique_ptr<FileManager> fm;
  std::unique_ptr<BufferPool> pool;
};

/// Process-lifetime environment keyed by (tag, pool size); the first caller
/// builds it. File pages are preallocated through a cost-model-free
/// FileManager so setup I/O is never charged against the benchmark's disk.
MtPoolEnv& MtEnv(const std::string& tag, size_t pool_pages, size_t file_pages,
                 bool modeled_disk,
                 EvictionPolicy eviction = EvictionPolicy::kRandom) {
  static std::mutex mu;
  static std::map<std::string, std::unique_ptr<MtPoolEnv>> envs;
  std::lock_guard<std::mutex> lock(mu);
  auto& e = envs[tag + "/" + std::to_string(pool_pages)];
  if (!e) {
    e = std::make_unique<MtPoolEnv>();
    std::string dir = BenchDir("mtpool");
    {
      FileManager setup(dir, nullptr);
      HARBOR_CHECK_OK(setup.OpenOrCreate(1));
      for (size_t i = 0; i < file_pages; ++i) {
        HARBOR_CHECK_OK(setup.AllocatePage(1).status());
      }
    }
    if (modeled_disk) {
      // Scaled-down cost model (fast modern disk): the shape (miss >> hit)
      // is what matters, the absolute seek time is shrunk so the grid
      // finishes quickly.
      SimConfig cfg;
      cfg.disk_bandwidth_bytes_per_sec = 1'000'000'000;
      cfg.disk_random_latency_ns = 15'000;
      cfg.disk_force_latency_ns = 15'000;
      e->disk = std::make_unique<SimDisk>("bench-mt-" + tag, cfg,
                                          BenchMetrics());
    }
    e->fm = std::make_unique<FileManager>(dir, e->disk.get());
    HARBOR_CHECK_OK(e->fm->OpenOrCreate(1));
    BufferPool::Options po;
    po.eviction = eviction;
    if (const char* sh = ::getenv("BENCH_SHARDS")) po.shards = atoi(sh);
    e->pool = std::make_unique<BufferPool>(e->fm.get(), pool_pages,
                                           BenchMetrics(), po);
  }
  return *e;
}

Random MtRng(const benchmark::State& state) {
  return Random(Random::GlobalSeed() ^
                (static_cast<uint64_t>(state.thread_index()) * 2654435761u));
}

/// The per-page "work" of a scan: touch every word, as a tuple scan would.
uint64_t ChecksumPage(const uint8_t* data) {
  uint64_t sum = 0;
  for (size_t k = 0; k < kPageSize; k += sizeof(uint64_t)) {
    uint64_t w;
    std::memcpy(&w, data + k, sizeof(w));
    sum += w;
  }
  return sum;
}

/// Pure hit-path scan: every thread reads pages of a resident hot set. This
/// isolates the cost of pin/unpin and page-table lookup under concurrency.
void BM_BufferPoolMTScanHot(benchmark::State& state) {
  const size_t pool_pages = static_cast<size_t>(state.range(0));
  const uint32_t hot = static_cast<uint32_t>(pool_pages / 2);
  MtPoolEnv& env = MtEnv("hot", pool_pages, pool_pages, false);
  Random rng = MtRng(state);
  for (auto _ : state) {
    PageId pid{1, static_cast<uint32_t>(rng.Uniform(hot))};
    auto h = env.pool->GetPage(pid, /*sequential=*/true);
    HARBOR_CHECK(h.ok());
    PageLatchGuard latch(*h);
    benchmark::DoNotOptimize(ChecksumPage(h->data()));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BufferPoolMTScanHot)
    ->Arg(64)
    ->Arg(1024)
    ->Threads(1)
    ->Threads(4)
    ->Threads(8)
    ->UseRealTime();

/// Mixed scan: mostly hot hits plus an occasional cold read that misses and
/// pays the modeled seek. With the single-mutex pool the miss's disk time is
/// spent holding the global lock, so every hitting thread stalls behind it.
void BM_BufferPoolMTScanMixed(benchmark::State& state) {
  const size_t pool_pages = static_cast<size_t>(state.range(0));
  const uint32_t hot = static_cast<uint32_t>(pool_pages / 2);
  const uint32_t cold_lo = static_cast<uint32_t>(pool_pages * 2);
  const uint32_t cold_n = 2048;
  const bool lru = state.range(1) != 0;
  MtPoolEnv& env =
      MtEnv(lru ? "mixed-lru" : "mixed", pool_pages, cold_lo + cold_n, true,
            lru ? EvictionPolicy::kLru : EvictionPolicy::kRandom);
  Random rng = MtRng(state);
  int64_t i = 0;
  for (auto _ : state) {
    const bool cold = (++i % 64) == 0;
    const uint32_t page_no = cold
                                 ? cold_lo + static_cast<uint32_t>(
                                                 rng.Uniform(cold_n))
                                 : static_cast<uint32_t>(rng.Uniform(hot));
    auto h = env.pool->GetPage(PageId{1, page_no}, /*sequential=*/false);
    HARBOR_CHECK(h.ok());
    PageLatchGuard latch(*h);
    benchmark::DoNotOptimize(ChecksumPage(h->data()));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BufferPoolMTScanMixed)
    ->Args({256, 0})
    ->Args({256, 1})
    ->Threads(1)
    ->Threads(4)
    ->Threads(8)
    ->UseRealTime();

/// Update mix: mostly hot-page writes (dirtying frames) plus an occasional
/// cold read; evictions must steal dirty victims, so the flush write path
/// (hooks + WritePage) runs continuously alongside foreground traffic.
void BM_BufferPoolMTUpdate(benchmark::State& state) {
  const size_t pool_pages = static_cast<size_t>(state.range(0));
  const uint32_t hot = static_cast<uint32_t>(pool_pages / 2);
  const uint32_t cold_lo = static_cast<uint32_t>(pool_pages * 2);
  const uint32_t cold_n = 2048;
  MtPoolEnv& env = MtEnv("update", pool_pages, cold_lo + cold_n, true);
  Random rng = MtRng(state);
  int64_t i = 0;
  for (auto _ : state) {
    const bool cold = (++i % 64) == 0;
    if (cold) {
      auto h = env.pool->GetPage(
          PageId{1, cold_lo + static_cast<uint32_t>(rng.Uniform(cold_n))},
          /*sequential=*/false);
      HARBOR_CHECK(h.ok());
      PageLatchGuard latch(*h);
      benchmark::DoNotOptimize(h->data()[0]);
    } else {
      auto h = env.pool->GetPage(
          PageId{1, static_cast<uint32_t>(rng.Uniform(hot))},
          /*sequential=*/false);
      HARBOR_CHECK(h.ok());
      PageLatchGuard latch(*h);
      h->data()[64] = static_cast<uint8_t>(i);
      h->MarkDirty();
    }
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BufferPoolMTUpdate)
    ->Arg(256)
    ->Threads(1)
    ->Threads(4)
    ->Threads(8)
    ->UseRealTime();

void BM_LockAcquireRelease(benchmark::State& state) {
  LockManager lm(BenchMetrics());
  LockOwnerId owner = 1;
  for (auto _ : state) {
    HARBOR_CHECK_OK(lm.AcquirePageLock(owner, PageId{1, 7},
                                       LockMode::kExclusive));
    lm.ReleaseAll(owner);
    ++owner;
  }
}
BENCHMARK(BM_LockAcquireRelease);

void BM_LogAppend(benchmark::State& state) {
  auto log_r = LogManager::Open(BenchDir("wal"), nullptr, true,
                                BenchMetrics());
  HARBOR_CHECK_OK(log_r.status());
  auto log = std::move(log_r).value();
  LogRecord rec;
  rec.type = LogRecordType::kTupleInsert;
  rec.txn = 1;
  rec.tuple_image.assign(80, 0x11);
  for (auto _ : state) {
    benchmark::DoNotOptimize(log->Append(rec));
  }
  HARBOR_CHECK_OK(log->FlushAll());
}
BENCHMARK(BM_LogAppend);

void BM_LogAppendAndForce(benchmark::State& state) {
  auto log_r = LogManager::Open(BenchDir("walf"), nullptr, true,
                                BenchMetrics());
  HARBOR_CHECK_OK(log_r.status());
  auto log = std::move(log_r).value();
  LogRecord rec;
  rec.type = LogRecordType::kTxnCommit;
  rec.txn = 1;
  for (auto _ : state) {
    Lsn lsn = log->Append(rec);
    HARBOR_CHECK_OK(log->Flush(lsn));
  }
}
BENCHMARK(BM_LogAppendAndForce);

class ScanFixture : public benchmark::Fixture {
 public:
  void SetUp(const benchmark::State&) override {
    if (store_) return;
    fm_ = std::make_unique<FileManager>(BenchDir("scan"), nullptr);
    catalog_ = std::make_unique<LocalCatalog>(fm_.get());
    pool_ = std::make_unique<BufferPool>(fm_.get(), 4096, BenchMetrics());
    locks_ = std::make_unique<LockManager>(BenchMetrics());
    txns_ = std::make_unique<TxnTable>();
    store_ = std::make_unique<VersionStore>(catalog_.get(), pool_.get(),
                                            locks_.get(), nullptr,
                                            txns_.get());
    auto obj = catalog_->CreateObject(1, 1, "t", BenchSchema(),
                                      PartitionRange::Full(), 64);
    HARBOR_CHECK_OK(obj.status());
    obj_ = *obj;
    std::vector<Value> values;
    for (int i = 0; i < 14; ++i) values.push_back(Value(i));
    for (int i = 0; i < 50000; ++i) {
      Tuple t(values);
      t.set_tuple_id(static_cast<TupleId>(i));
      t.set_insertion_ts(1);
      HARBOR_CHECK_OK(store_->InsertCommittedTuple(obj_, t).status());
    }
  }

 protected:
  static std::unique_ptr<FileManager> fm_;
  static std::unique_ptr<LocalCatalog> catalog_;
  static std::unique_ptr<BufferPool> pool_;
  static std::unique_ptr<LockManager> locks_;
  static std::unique_ptr<TxnTable> txns_;
  static std::unique_ptr<VersionStore> store_;
  static TableObject* obj_;
};

std::unique_ptr<FileManager> ScanFixture::fm_;
std::unique_ptr<LocalCatalog> ScanFixture::catalog_;
std::unique_ptr<BufferPool> ScanFixture::pool_;
std::unique_ptr<LockManager> ScanFixture::locks_;
std::unique_ptr<TxnTable> ScanFixture::txns_;
std::unique_ptr<VersionStore> ScanFixture::store_;
TableObject* ScanFixture::obj_;

BENCHMARK_F(ScanFixture, SeqScan50K)(benchmark::State& state) {
  for (auto _ : state) {
    ScanSpec spec;
    spec.object_id = 1;
    spec.mode = ScanMode::kVisible;
    spec.as_of = 1;
    SeqScanOperator scan(store_.get(), obj_, spec);
    auto rows = scan.Collect();
    HARBOR_CHECK_OK(rows.status());
    benchmark::DoNotOptimize(rows->size());
  }
  state.SetItemsProcessed(state.iterations() * 50000);
}

BENCHMARK_F(ScanFixture, SeqScanPrunedToLastSegment)(benchmark::State& state) {
  for (auto _ : state) {
    ScanSpec spec;
    spec.object_id = 1;
    spec.mode = ScanMode::kSeeDeleted;
    spec.has_insertion_after = true;
    spec.insertion_after = 1;  // nothing matches; pruning skips everything
    SeqScanOperator scan(store_.get(), obj_, spec);
    auto rows = scan.Collect();
    HARBOR_CHECK_OK(rows.status());
    benchmark::DoNotOptimize(rows->size());
  }
}

// ---------------------------------------------------------------------
// Row vs columnar scan throughput on a selective predicate. Two objects
// with identical data: one row-format, one with the PAX-style columnar
// segment layout. range(1) picks the predicate, each selecting 782 rows
// (~1.5%):
//  0: tag == 'hot' on a 2-value CHAR column: 1-byte dictionary codes (and,
//     once hot, the per-segment adaptive eq index) on the columnar path,
//     a packed-byte compare on the row path;
//  1: f0 >= 20000 AND f1 < 20783 on INT32 columns holding a permutation of
//     0..49999, so no zone map prunes: 2-byte frame-of-reference codes on
//     the columnar path, packed integers on the row path.
// Both paths must return the same count. Source of BENCH_columnar_scan.json:
//   bench_micro --benchmark_filter=ColumnarVsRowScan
//               --benchmark_format=json

constexpr size_t kColScanRows = 50000;
constexpr size_t kColScanMatches = 782;

Schema ColScanSchema() {
  std::vector<Column> cols;
  for (int i = 0; i < 12; ++i) {
    cols.push_back(Column::Int32("f" + std::to_string(i)));
  }
  cols.push_back(Column::Char("tag", 16));
  return Schema(std::move(cols));
}

struct ColScanEnv {
  std::unique_ptr<FileManager> fm;
  std::unique_ptr<LocalCatalog> catalog;
  std::unique_ptr<BufferPool> pool;
  std::unique_ptr<LockManager> locks;
  std::unique_ptr<TxnTable> txns;
  std::unique_ptr<VersionStore> store;
  TableObject* row_obj = nullptr;
  TableObject* col_obj = nullptr;
};

ColScanEnv& ColEnv() {
  static ColScanEnv* env = [] {
    auto* e = new ColScanEnv();
    e->fm = std::make_unique<FileManager>(BenchDir("colscan"), nullptr);
    e->catalog = std::make_unique<LocalCatalog>(e->fm.get());
    e->pool = std::make_unique<BufferPool>(e->fm.get(), 8192, BenchMetrics());
    e->locks = std::make_unique<LockManager>(BenchMetrics());
    e->txns = std::make_unique<TxnTable>();
    e->store = std::make_unique<VersionStore>(e->catalog.get(), e->pool.get(),
                                              e->locks.get(), nullptr,
                                              e->txns.get());
    Schema schema = ColScanSchema();
    auto row = e->catalog->CreateObject(1, 1, "row", schema,
                                        PartitionRange::Full(), 64);
    HARBOR_CHECK_OK(row.status());
    e->row_obj = *row;
    auto col = e->catalog->CreateObject(2, 1, "col", schema,
                                        PartitionRange::Full(), 64,
                                        /*indexed_column=*/"",
                                        /*columnar=*/true);
    HARBOR_CHECK_OK(col.status());
    e->col_obj = *col;
    for (size_t i = 0; i < kColScanRows; ++i) {
      std::vector<Value> values;
      for (int c = 0; c < 12; ++c) {
        values.push_back(Value(static_cast<int32_t>((i * 7919) % 50000 + c)));
      }
      values.push_back(Value(i % 64 == 0 ? "hot" : "cold"));
      Tuple t(values);
      t.set_tuple_id(static_cast<TupleId>(i));
      t.set_insertion_ts(1);
      HARBOR_CHECK_OK(e->store->InsertCommittedTuple(e->row_obj, t).status());
      HARBOR_CHECK_OK(e->store->InsertCommittedTuple(e->col_obj, t).status());
    }
    return e;
  }();
  return *env;
}

void BM_ColumnarVsRowScan(benchmark::State& state) {
  ColScanEnv& env = ColEnv();
  TableObject* obj = state.range(0) == 0 ? env.row_obj : env.col_obj;
  const bool numeric = state.range(1) != 0;
  size_t matched = 0;
  size_t columnar_segments = 0;
  size_t adaptive = 0;
  for (auto _ : state) {
    ScanSpec spec;
    spec.object_id = obj->object_id;
    spec.mode = ScanMode::kVisible;
    spec.as_of = 1;
    if (numeric) {
      spec.predicate.And("f0", CompareOp::kGe, Value(int32_t{20000}))
          .And("f1", CompareOp::kLt, Value(int32_t{20783}));
    } else {
      spec.predicate.And("tag", CompareOp::kEq, Value("hot"));
    }
    SeqScanOperator scan(env.store.get(), obj, spec);
    auto rows = scan.Collect();
    HARBOR_CHECK_OK(rows.status());
    HARBOR_CHECK(rows->size() == kColScanMatches);
    matched = rows->size();
    columnar_segments = scan.columnar_segments();
    adaptive = scan.adaptive_index_probes();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kColScanRows));
  state.counters["rows_matched"] = static_cast<double>(matched);
  state.counters["columnar_segments"] = static_cast<double>(columnar_segments);
  state.counters["adaptive_index_segments"] = static_cast<double>(adaptive);
}
BENCHMARK(BM_ColumnarVsRowScan)
    ->ArgNames({"columnar", "numeric"})
    ->ArgsProduct({{0, 1}, {0, 1}})
    ->Threads(1)
    ->Threads(4)
    ->Threads(8)
    ->UseRealTime();

// ---------------------------------------------------------------------
// Recovery catch-up transfer: crash one of two replicas, bulk-load a
// post-checkpoint delta into the survivor, and measure bringing the
// crashed site back online. range(0) is the delta row count, range(1) the
// streaming chunk size in tuples, range(2) whether the table uses the
// columnar segment layout (chunk replies then ship FOR/dictionary-compressed
// column blocks instead of serialized rows). peak_reply_bytes is the largest
// scan-reply payload the recovering site saw -- the quantity chunking
// bounds, and which the columnar wire encoding shrinks. Source of
// BENCH_recovery_stream.json:
//   bench_micro --benchmark_filter=RecoveryStreamTransfer
//               --benchmark_format=json
void BM_RecoveryStreamTransfer(benchmark::State& state) {
  const size_t delta_rows = static_cast<size_t>(state.range(0));
  const size_t chunk = static_cast<size_t>(state.range(1));
  const bool columnar = state.range(2) != 0;
  int64_t peak_reply = 0;
  int64_t chunks = 0;
  for (auto _ : state) {
    ClusterOptions opt;
    opt.num_workers = 2;
    opt.protocol = CommitProtocol::kOptimized3PC;
    opt.sim = SimConfig::Zero();
    auto cluster_r = Cluster::Create(opt);
    HARBOR_CHECK_OK(cluster_r.status());
    std::unique_ptr<Cluster> cluster = std::move(cluster_r).value();
    TableId table = bench::MakeEvalTable(cluster.get(), "t", 16, columnar);
    bench::Preload(cluster.get(), table, 5000, 1000);
    cluster->AdvanceEpoch();
    HARBOR_CHECK_OK(cluster->CheckpointAll());
    const Timestamp ckpt = cluster->authority()->StableTime();
    cluster->CrashWorker(1);
    // The delta the survivor accumulated while the site was down.
    std::vector<LoadRow> rows;
    rows.reserve(delta_rows);
    Timestamp max_ts = ckpt + 1;
    for (size_t i = 0; i < delta_rows; ++i) {
      LoadRow row;
      row.tuple_id = (uint64_t{7} << 32) + i;
      row.insertion_ts = ckpt + 1 + static_cast<Timestamp>(i / 500);
      max_ts = std::max(max_ts, row.insertion_ts);
      row.values = bench::EvalRow(static_cast<int32_t>(i));
      rows.push_back(std::move(row));
    }
    HARBOR_CHECK_OK(cluster->BulkLoad(table, rows));
    while (cluster->authority()->StableTime() <= max_ts) {
      cluster->AdvanceEpoch();
    }
    RecoveryOptions ropt;
    ropt.stream_chunk_tuples = chunk;
    Stopwatch watch;
    auto stats = cluster->RecoverWorker(1, ropt);
    state.SetIterationTime(watch.ElapsedSeconds());
    HARBOR_CHECK_OK(stats.status());
    HARBOR_CHECK((*stats).objects[0].phase2_tuples_copied +
                     (*stats).objects[0].phase3_tuples_copied ==
                 delta_rows);
    const obs::Metrics& m = cluster->worker(1)->metrics();
    const obs::Histogram& bytes =
        m.histogram(obs::HistogramId::kRecoveryChunkBytes);
    if (bytes.count() > 0) peak_reply = std::max(peak_reply, bytes.max());
    chunks += m.counter(obs::CounterId::kRecoveryChunks).value();
  }
  state.counters["peak_reply_bytes"] = static_cast<double>(peak_reply);
  state.counters["chunks_per_recovery"] =
      benchmark::Counter(static_cast<double>(chunks),
                         benchmark::Counter::kAvgIterations);
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(delta_rows));
}
BENCHMARK(BM_RecoveryStreamTransfer)
    ->ArgsProduct({{2000, 10000, 40000}, {128, 512, 2048}, {0, 1}})
    ->UseManualTime()
    ->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------
// Parallel multi-buddy recovery: 5 workers, 4 fully replicated tables, each
// with a 10k-row post-checkpoint delta (40k rows total). One site crashes
// and recovers streaming each object's catch-up range from range(0) buddies
// concurrently. Objects recover serially (parallel=false) so the
// measurement isolates the per-object multi-stream win: with 1 stream an
// object's whole delta serializes through a single buddy's NIC, with 4 the
// disjoint insertion-time windows split across all four surviving replicas.
// The network is modeled at the paper's measured scale (85 Mb/s ~= 10.6
// MB/s, §6.1) rather than the default 2x-scaled SimConfig: the paper's
// recovery experiments stream ~1 GB tables and are transfer-dominated, and
// matching that regime at bench scale is what makes the per-buddy NIC the
// resource multi-buddy streaming parallelizes. offline_seconds is the
// phases-1+2 wall time. Source of BENCH_recovery_parallel.json:
//   bench_micro --benchmark_filter=RecoveryParallelTransfer
//               --benchmark_format=json
void BM_RecoveryParallelTransfer(benchmark::State& state) {
  const int streams = static_cast<int>(state.range(0));
  constexpr int kTables = 4;
  constexpr size_t kDeltaRows = 10000;  // per table; 40k total
  double offline = 0;
  double phase1 = 0, phase2 = 0, phase3 = 0;
  int64_t failovers = 0;
  for (auto _ : state) {
    ClusterOptions opt;
    opt.num_workers = 5;
    opt.protocol = CommitProtocol::kOptimized3PC;
    opt.sim = SimConfig();
    opt.sim.net_bandwidth_bytes_per_sec = 10'600'000;  // paper's 85 Mb/s
    opt.sim.net_latency_ns = 150'000;                  // paper-scale RTT/2
    auto cluster_r = Cluster::Create(opt);
    HARBOR_CHECK_OK(cluster_r.status());
    std::unique_ptr<Cluster> cluster = std::move(cluster_r).value();
    std::vector<TableId> tables;
    for (int t = 0; t < kTables; ++t) {
      TableId table =
          bench::MakeEvalTable(cluster.get(), "t" + std::to_string(t), 16);
      bench::Preload(cluster.get(), table, 2000, 500);
      tables.push_back(table);
    }
    cluster->AdvanceEpoch();
    HARBOR_CHECK_OK(cluster->CheckpointAll());
    const Timestamp ckpt = cluster->authority()->StableTime();
    cluster->CrashWorker(4);
    Timestamp max_ts = ckpt + 1;
    for (int t = 0; t < kTables; ++t) {
      std::vector<LoadRow> rows;
      rows.reserve(kDeltaRows);
      for (size_t i = 0; i < kDeltaRows; ++i) {
        LoadRow row;
        row.tuple_id = (uint64_t{7 + t} << 32) + i;
        // ~40 insertion epochs per object so the round has a wide
        // insertion-time range to split into per-buddy windows.
        row.insertion_ts = ckpt + 1 + static_cast<Timestamp>(i / 250);
        max_ts = std::max(max_ts, row.insertion_ts);
        row.values = bench::EvalRow(static_cast<int32_t>(i));
        rows.push_back(std::move(row));
      }
      HARBOR_CHECK_OK(cluster->BulkLoad(tables[t], rows));
    }
    while (cluster->authority()->StableTime() <= max_ts) {
      cluster->AdvanceEpoch();
    }
    RecoveryOptions ropt;
    ropt.parallel = false;  // one object at a time: isolate stream scaling
    ropt.max_parallel_streams = streams;
    ropt.stream_chunk_tuples = 512;
    Stopwatch watch;
    auto stats = cluster->RecoverWorker(4, ropt);
    state.SetIterationTime(watch.ElapsedSeconds());
    HARBOR_CHECK_OK(stats.status());
    HARBOR_CHECK((*stats).objects.size() == kTables);
    size_t copied = 0;
    for (const ObjectRecoveryStats& o : (*stats).objects) {
      copied += o.phase2_tuples_copied + o.phase3_tuples_copied;
    }
    HARBOR_CHECK(copied == kTables * kDeltaRows);
    offline += (*stats).offline_seconds;
    phase1 += (*stats).phase1_seconds;
    phase2 += (*stats).phase2_seconds;
    phase3 += (*stats).phase3_seconds;
    failovers += cluster->worker(4)
                     ->metrics()
                     .counter(obs::CounterId::kRecoveryStreamFailovers)
                     .value();
  }
  state.counters["offline_seconds"] =
      benchmark::Counter(offline, benchmark::Counter::kAvgIterations);
  state.counters["phase1_seconds"] =
      benchmark::Counter(phase1, benchmark::Counter::kAvgIterations);
  state.counters["phase2_seconds"] =
      benchmark::Counter(phase2, benchmark::Counter::kAvgIterations);
  state.counters["phase3_seconds"] =
      benchmark::Counter(phase3, benchmark::Counter::kAvgIterations);
  state.counters["stream_failovers"] = benchmark::Counter(
      static_cast<double>(failovers), benchmark::Counter::kAvgIterations);
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kTables * kDeltaRows));
}
BENCHMARK(BM_RecoveryParallelTransfer)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->UseManualTime()
    ->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------
// Snapshot vs S-locking read throughput under a concurrent update mix.
// range(0): 0 = snapshot (the default lock-free read path), 1 = locking.
// Reader threads (1/4/8) run full-table Querys against a shared 2-worker
// cluster while one background updater continuously commits single-row
// updates; its DML takes X page locks, so locking readers queue behind the
// writer while snapshot readers bypass the LockManager entirely.
// Source of BENCH_snapshot_reads.json:
//   bench_micro --benchmark_filter=SnapshotVsLockingRead
//               --benchmark_format=json

struct SnapshotReadEnv {
  std::unique_ptr<Cluster> cluster;
  TableId table = 0;
  std::thread updater;
  std::atomic<bool> stop{false};
};

SnapshotReadEnv& SnapshotEnv() {
  static SnapshotReadEnv* env = [] {
    auto* e = new SnapshotReadEnv();
    ClusterOptions opt;
    opt.num_workers = 2;
    opt.protocol = CommitProtocol::kOptimized3PC;
    opt.sim = SimConfig::Zero();
    auto cluster_r = Cluster::Create(opt);
    HARBOR_CHECK_OK(cluster_r.status());
    e->cluster = std::move(cluster_r).value();
    e->table = bench::MakeEvalTable(e->cluster.get(), "t", 16);
    bench::Preload(e->cluster.get(), e->table, 2000);
    e->cluster->AdvanceEpoch();
    return e;
  }();
  return *env;
}

void BM_SnapshotVsLockingRead(benchmark::State& state) {
  const ReadMode mode =
      state.range(0) == 0 ? ReadMode::kSnapshot : ReadMode::kLocking;
  SnapshotReadEnv& env = SnapshotEnv();
  Coordinator* coord = env.cluster->coordinator();
  if (state.thread_index() == 0) {
    env.stop.store(false);
    env.updater = std::thread([&env] {
      Coordinator* c = env.cluster->coordinator();
      Random rng(Random::GlobalSeed() ^ 0xBADC0FFEULL);
      while (!env.stop.load(std::memory_order_relaxed)) {
        Predicate p;
        p.And("f0", CompareOp::kEq,
              Value(static_cast<int32_t>(rng.Uniform(2000))));
        auto txn = c->Begin();
        if (!txn.ok()) continue;
        Status st = c->Update(
            *txn, env.table, p,
            {SetClause{"f1", Value(static_cast<int32_t>(rng.Uniform(1000)))}});
        if (st.ok()) {
          (void)c->Commit(*txn);
        } else {
          (void)c->Abort(*txn);
        }
      }
    });
  }
  int64_t ok = 0, failed = 0;
  for (auto _ : state) {
    auto rows = coord->Query(env.table, Predicate(), mode);
    if (rows.ok()) {
      ++ok;
      benchmark::DoNotOptimize(rows->size());
    } else {
      ++failed;  // a locking read can time out behind the writer
    }
  }
  if (state.thread_index() == 0) {
    env.stop.store(true);
    env.updater.join();
  }
  state.SetItemsProcessed(ok);
  state.counters["failed_reads"] = benchmark::Counter(
      static_cast<double>(failed), benchmark::Counter::kAvgThreads);
}
BENCHMARK(BM_SnapshotVsLockingRead)
    ->ArgName("locking")
    ->Arg(0)
    ->Arg(1)
    ->Threads(1)
    ->Threads(4)
    ->Threads(8)
    ->UseRealTime();

}  // namespace
}  // namespace harbor

BENCHMARK_MAIN();
