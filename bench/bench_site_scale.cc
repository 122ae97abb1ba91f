// Site scale-out: one process hosting 8 / 32 / 128 worker sites on the
// shared task-scheduler runtime.
//
// Before the shared runtime every site carried its own dispatch threads
// (eight handler threads per endpoint) plus per-subsystem timers, so a
// 128-site cluster meant a thousand-plus parked OS threads before the
// first transaction. Now dispatch strands, checkpoint/epoch timers,
// consensus rounds and recovery fan-out all multiplex onto one fixed
// worker pool, and the process thread count stays flat as sites grow.
//
// Per site count this bench records:
//   - process thread count after cluster bring-up (the headline number),
//   - conflict-free insert throughput (8 streams against rendezvous-placed
//     replication_factor-2 tables),
//   - HARBOR three-phase recovery of a crashed site while the rest of the
//     cluster stays up: offline time (phases 1+2) and total time for a
//     fixed-size probe table, so the recovery number is comparable across
//     site counts and isolates per-site runtime overhead,
//   - scheduler introspection (tasks run, spare threads spawned).
//
// Results land in BENCH_site_scale.json.
//
// Env knobs (all optional):
//   HARBOR_SITE_SCALE_SITES        comma list of site counts (default 8,32,128)
//   HARBOR_SITE_SCALE_DURATION_MS  throughput measure window (default 500)
//   HARBOR_SITE_SCALE_PRELOAD     probe-table rows to recover (default 2000)
//   HARBOR_SITE_SCALE_OUT          output JSON path (default BENCH_site_scale.json)

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "bench/bench_util.h"

namespace harbor::bench {
namespace {

int64_t EnvInt(const char* name, int64_t fallback) {
  const char* v = std::getenv(name);
  return v ? std::strtoll(v, nullptr, 10) : fallback;
}

/// Live OS threads in this process, from /proc/self/status. The whole
/// point of the shared runtime is that this number no longer scales with
/// the site count.
int CountProcessThreads() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("Threads:", 0) == 0) {
      return std::atoi(line.c_str() + 8);
    }
  }
  return -1;
}

struct SiteScaleResult {
  int sites = 0;
  int threads_baseline = 0;
  int threads_after_create = 0;
  int threads_after_run = 0;
  double tps = 0;
  int64_t committed = 0;
  int64_t aborted = 0;
  double offline_ms = 0;
  double phase3_ms = 0;
  double total_ms = 0;
  int64_t tuples_recovered = 0;
  int64_t sched_tasks_run = 0;
  int64_t sched_spares = 0;
  int sched_threads = 0;
};

SiteScaleResult RunOne(int sites, int64_t duration_ms, int64_t preload_rows) {
  SiteScaleResult r;
  r.sites = sites;
  r.threads_baseline = CountProcessThreads();

  ClusterOptions opt;
  opt.num_workers = sites;
  opt.protocol = CommitProtocol::kOptimized3PC;
  opt.group_commit = true;
  // Zero-cost sim: the measurement target is protocol + scheduling
  // overhead as sites multiply, not modeled disk/NIC time.
  opt.sim = SimConfig::Zero();
  opt.epoch_tick_ms = 10;
  // 2 MB of buffer pool per site keeps a 128-site cluster inside a small
  // container's memory; the workload is sized to fit.
  opt.buffer_pages = 512;
  auto cluster_r = Cluster::Create(opt);
  HARBOR_CHECK_OK(cluster_r.status());
  std::unique_ptr<Cluster> cluster = std::move(cluster_r).value();
  r.threads_after_create = CountProcessThreads();

  // Fixed-size probe table pinned to workers 0/1/2: the recovery
  // measurement recovers the same data at every site count, so any growth
  // in offline time is per-site runtime overhead, not workload size.
  TableSpec probe_spec;
  probe_spec.name = "probe";
  probe_spec.schema = EvalSchema();
  probe_spec.default_segment_page_budget = 64;
  for (int w = 0; w < 3; ++w) {
    ReplicaSpec rep;
    rep.worker_index = w;
    probe_spec.replicas.push_back(rep);
  }
  auto probe = cluster->CreateTable(probe_spec);
  HARBOR_CHECK_OK(probe.status());
  Preload(cluster.get(), *probe, static_cast<size_t>(preload_rows),
          /*tuples_per_epoch=*/256);

  // Stream tables spread over the whole cluster by rendezvous hash,
  // replication factor 2 — the many-site population the throughput
  // streams write into.
  const int num_tables = std::min(sites, 16);
  std::vector<TableId> tables;
  for (int t = 0; t < num_tables; ++t) {
    TableSpec spec;
    spec.name = "t" + std::to_string(t);
    spec.schema = EvalSchema();
    spec.default_segment_page_budget = 64;
    spec.replication_factor = 2;
    auto table = cluster->CreateTable(spec);
    HARBOR_CHECK_OK(table.status());
    tables.push_back(*table);
  }
  HARBOR_CHECK_OK(cluster->CheckpointAll());

  const int streams = std::min(sites, 8);
  ThroughputResult tp = MeasureInsertThroughput(
      cluster.get(), tables, streams, duration_ms / 1000.0,
      /*cpu_cycles=*/0, /*warmup_seconds=*/0.2);
  r.tps = tp.tps;
  r.committed = tp.committed;
  r.aborted = tp.aborted;
  r.threads_after_run = CountProcessThreads();

  // Recovery: absorb the stream deltas into a fresh checkpoint first —
  // which tables rendezvous onto worker 0 varies with the site count —
  // then commit a fixed post-checkpoint delta on the probe, so phase 2
  // copies the same tuples at every site count and offline-time growth
  // isolates per-site runtime overhead.
  HARBOR_CHECK_OK(cluster->CheckpointAll());
  const int kProbeDelta = 500;
  for (int i = 0; i < kProbeDelta; ++i) {
    HARBOR_CHECK_OK(
        cluster->coordinator()->InsertTxn(*probe, EvalRow(1000000 + i)));
  }
  cluster->CrashWorker(0);
  RecoveryOptions ropt;
  ropt.max_parallel_streams = 2;
  auto stats = cluster->RecoverWorker(0, ropt);
  HARBOR_CHECK_OK(stats.status());
  r.offline_ms = stats->offline_seconds * 1000.0;
  r.phase3_ms = stats->phase3_seconds * 1000.0;
  r.total_ms = stats->total_seconds * 1000.0;
  for (const ObjectRecoveryStats& o : stats->objects) {
    r.tuples_recovered += static_cast<int64_t>(o.phase2_tuples_copied +
                                               o.phase3_tuples_copied);
  }

  r.sched_tasks_run = cluster->scheduler()->tasks_run();
  r.sched_spares = cluster->scheduler()->spares_spawned();
  r.sched_threads = cluster->scheduler()->threads_alive();
  return r;
}

void Run() {
  Banner("site scale-out on the shared scheduler runtime",
         "single-process many-site deployment; thread-per-site removal");
  const int64_t duration_ms = EnvInt("HARBOR_SITE_SCALE_DURATION_MS", 500);
  const int64_t preload_rows = EnvInt("HARBOR_SITE_SCALE_PRELOAD", 2000);
  const char* out_env = std::getenv("HARBOR_SITE_SCALE_OUT");
  const std::string out_path = out_env ? out_env : "BENCH_site_scale.json";

  std::vector<int> site_counts;
  const char* sites_env = std::getenv("HARBOR_SITE_SCALE_SITES");
  std::string sites_str = sites_env ? sites_env : "8,32,128";
  for (size_t pos = 0; pos < sites_str.size();) {
    size_t comma = sites_str.find(',', pos);
    if (comma == std::string::npos) comma = sites_str.size();
    site_counts.push_back(std::atoi(sites_str.substr(pos, comma - pos).c_str()));
    pos = comma + 1;
  }

  std::printf("%-8s %8s %8s %10s %10s %10s %10s %12s %8s\n", "sites",
              "threads", "peak", "tps", "offline", "total", "recovered",
              "tasks_run", "spares");
  std::vector<SiteScaleResult> results;
  for (int sites : site_counts) {
    SiteScaleResult r = RunOne(sites, duration_ms, preload_rows);
    std::printf("%-8d %8d %8d %10.0f %8.1fms %8.1fms %10lld %12lld %8lld\n",
                r.sites, r.threads_after_create, r.threads_after_run, r.tps,
                r.offline_ms, r.total_ms,
                static_cast<long long>(r.tuples_recovered),
                static_cast<long long>(r.sched_tasks_run),
                static_cast<long long>(r.sched_spares));
    std::fflush(stdout);
    results.push_back(r);
  }

  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", out_path.c_str());
    return;
  }
  std::fprintf(f, "{\n  \"benchmark\": \"bench_site_scale\",\n");
  std::fprintf(
      f,
      "  \"description\": \"One process hosting N worker sites on the shared "
      "task-scheduler runtime: every site's RPC dispatch strand, the "
      "checkpoint/epoch timers, consensus rounds and recovery fan-out "
      "multiplex onto one fixed worker pool, so process thread count stays "
      "flat as sites grow (threads_after_create). Throughput is %d "
      "conflict-free single-insert streams over replication_factor-2 tables "
      "placed by rendezvous hash. Recovery checkpoints the cluster, commits "
      "a fixed 500-row delta to a %lld-row probe table (replicas pinned on "
      "workers 0/1/2), then crashes site 1 and runs three-phase HARBOR "
      "recovery (max_parallel_streams=2) while the rest of the cluster "
      "stays online; offline_ms is the phase-1..2 window. The recovered "
      "data is identical at every site count, so offline-time growth "
      "isolates per-site runtime overhead.\",\n",
      8, static_cast<long long>(preload_rows));
  std::fprintf(f,
               "  \"environment\": {\"cpus\": %ld, \"duration_ms\": %lld, "
               "\"sim\": \"Zero (no modeled disk/net: measures protocol + "
               "scheduling overhead)\", \"protocol\": \"optimized-3PC\", "
               "\"buffer_pages_per_site\": 512},\n",
               sysconf(_SC_NPROCESSORS_ONLN),
               static_cast<long long>(duration_ms));
  std::fprintf(f, "  \"grid\": {\n");
  for (size_t i = 0; i < results.size(); ++i) {
    const SiteScaleResult& r = results[i];
    std::fprintf(
        f,
        "    \"sites_%d\": {\"threads_baseline\": %d, "
        "\"threads_after_create\": %d, \"threads_after_run\": %d, "
        "\"tps\": %.1f, \"committed\": %lld, \"aborted\": %lld, "
        "\"recovery_offline_ms\": %.1f, \"recovery_phase3_ms\": %.1f, "
        "\"recovery_total_ms\": %.1f, \"tuples_recovered\": %lld, "
        "\"sched_tasks_run\": %lld, \"sched_spares_spawned\": %lld, "
        "\"sched_threads_alive\": %d}%s\n",
        r.sites, r.threads_baseline, r.threads_after_create,
        r.threads_after_run, r.tps, static_cast<long long>(r.committed),
        static_cast<long long>(r.aborted), r.offline_ms, r.phase3_ms,
        r.total_ms, static_cast<long long>(r.tuples_recovered),
        static_cast<long long>(r.sched_tasks_run),
        static_cast<long long>(r.sched_spares), r.sched_threads,
        i + 1 < results.size() ? "," : "");
  }
  std::fprintf(f, "  }\n}\n");
  std::fclose(f);
  std::printf("\nwrote %s\n", out_path.c_str());
}

}  // namespace
}  // namespace harbor::bench

int main() {
  harbor::bench::Run();
  return 0;
}
