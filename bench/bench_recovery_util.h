#ifndef HARBOR_BENCH_BENCH_RECOVERY_UTIL_H_
#define HARBOR_BENCH_BENCH_RECOVERY_UTIL_H_

#include <functional>
#include <string>

#include "bench/bench_util.h"

namespace harbor::bench {

/// The four recovery scenarios of §6.4:
///   1. ARIES, one table            (traditional 2PC worker log)
///   2. HARBOR, one table
///   3. HARBOR, two tables, serial
///   4. HARBOR, two tables, parallel
struct RecoveryScenario {
  const char* name;
  bool aries;
  int num_tables;
  bool parallel;
};

inline std::vector<RecoveryScenario> PaperRecoveryScenarios() {
  return {
      {"ARIES, 1 table", true, 1, false},
      {"HARBOR, serial, 2 tables", false, 2, false},
      {"HARBOR, parallel, 2 tables", false, 2, true},
      {"HARBOR, 1 table", false, 1, false},
  };
}

struct RecoveryRunResult {
  double recovery_seconds = 0;
  RecoveryStats stats;
  /// The recovering site's metrics snapshot (see obs::Metrics::ToJson).
  std::string metrics_json;
};

/// Builds a fresh 3-worker cluster with `num_tables` preloaded tables of
/// `preload_tuples` rows each (the scaled stand-ins for the paper's 1 GB
/// tables of 101 segments), checkpoints everything, runs `workload`, crashes
/// worker 2 and measures bringing it back online. No transactions run during
/// recovery (as in §6.4; §6.5 covers the online case).
inline RecoveryRunResult RunRecoveryExperiment(
    const RecoveryScenario& scenario, size_t preload_tuples,
    uint32_t segment_pages,
    const std::function<void(Cluster*, const std::vector<TableId>&)>&
        workload) {
  // One insertion epoch per preloaded segment (50 tuples/page), so the
  // segment directory's insertion ranges are meaningful.
  const size_t tuples_per_epoch = static_cast<size_t>(segment_pages) * 50;
  auto cluster = MakePaperCluster(
      scenario.aries ? CommitProtocol::kTraditional2PC
                     : CommitProtocol::kOptimized3PC,
      /*workers=*/3, /*group_commit=*/true, /*checkpoint_period_ms=*/0);
  std::vector<TableId> tables;
  for (int t = 0; t < scenario.num_tables; ++t) {
    TableId table =
        MakeEvalTable(cluster.get(), "t" + std::to_string(t), segment_pages);
    Preload(cluster.get(), table, preload_tuples, tuples_per_epoch);
    tables.push_back(table);
  }
  HARBOR_CHECK_OK(cluster->CheckpointAll());

  workload(cluster.get(), tables);
  cluster->AdvanceEpoch();

  cluster->CrashWorker(2);
  RecoveryOptions opt;
  opt.parallel = scenario.parallel;
  Stopwatch watch;
  auto stats = cluster->RecoverWorker(2, opt);
  HARBOR_CHECK_OK(stats.status());
  RecoveryRunResult result;
  result.recovery_seconds = watch.ElapsedSeconds();
  result.stats = std::move(stats).value();
  result.metrics_json =
      cluster->observer().MetricsJson(Cluster::WorkerSite(2));
  return result;
}

/// Inserts `total` rows spread over the tables through committed
/// transactions. The rows are batched `rows_per_txn` to a transaction: the
/// recovery cost under both ARIES (log records) and HARBOR (tuples to copy)
/// is driven by the *row* count, and batching keeps the setup phase short —
/// single-row transactions into one table serialize on the last page's
/// exclusive lock, which only slows the (unmeasured) load.
inline void RunInsertTxns(Cluster* cluster, const std::vector<TableId>& tables,
                          size_t total, size_t rows_per_txn = 50,
                          int streams = 3) {
  std::atomic<size_t> next{0};
  std::vector<std::thread> threads;
  for (int s = 0; s < streams; ++s) {
    threads.emplace_back([&, s] {
      while (true) {
        size_t start = next.fetch_add(rows_per_txn);
        if (start >= total) return;
        size_t end = std::min(total, start + rows_per_txn);
        TableId table = tables[(start / rows_per_txn) % tables.size()];
        // Deadlock victims (lock timeouts) retry, as a client would.
        while (true) {
          Coordinator* coord = cluster->coordinator();
          auto txn = coord->Begin();
          HARBOR_CHECK_OK(txn.status());
          Status st = Status::OK();
          for (size_t i = start; i < end && st.ok(); ++i) {
            st = coord->Insert(txn.value(), table,
                               EvalRow(static_cast<int32_t>(1000000 + i)));
          }
          if (st.ok()) st = coord->Commit(*txn);
          if (st.ok()) break;
          (void)coord->Abort(*txn);
          HARBOR_CHECK(st.IsAborted() || st.IsTimedOut());
        }
        (void)s;
      }
    });
  }
  for (auto& t : threads) t.join();
}

}  // namespace harbor::bench

#endif  // HARBOR_BENCH_BENCH_RECOVERY_UTIL_H_
