// Ablation: segment size (§4.2).
//
// The segment architecture trades a little normal-processing overhead
// (extra per-segment setup during scans, earlier rollovers during inserts)
// for recovery-query pruning. This bench quantifies both sides: full-scan
// and insert cost vs segment size, and the recovery benefit of pruning via
// a recovery run whose updates touch only the newest data.

#include <cstdio>

#include "bench/bench_recovery_util.h"
#include "exec/seq_scan.h"

namespace harbor::bench {
namespace {

constexpr size_t kRows = 40000;  // ~800 pages of data per replica

void Run() {
  Banner("Ablation — segment size vs scan/insert/recovery cost", "§4.2");

  const std::vector<uint32_t> budgets = {8, 32, 128, 1024};
  std::printf("%14s %10s %12s %12s %14s %9s %8s\n", "segment pages",
              "segments", "scan (ms)", "insert(tps)", "recovery (ms)",
              "pruned", "pages");
  for (uint32_t budget : budgets) {
    auto cluster = MakePaperCluster(CommitProtocol::kOptimized3PC, 2,
                                    /*group_commit=*/true,
                                    /*checkpoint_period_ms=*/0);
    TableId table = MakeEvalTable(cluster.get(), "t", budget);
    Preload(cluster.get(), table, kRows);
    HARBOR_CHECK_OK(cluster->CheckpointAll());

    // Full sequential scan at worker 0 (historical, lock-free).
    Worker* w0 = cluster->worker(0);
    TableObject* obj = w0->local_catalog()->objects()[0];
    Stopwatch scan_watch;
    ScanSpec spec;
    spec.object_id = obj->object_id;
    spec.mode = ScanMode::kVisible;
    spec.as_of = cluster->authority()->StableTime();
    SeqScanOperator scan(w0->store(), obj, spec);
    auto rows = scan.Collect();
    HARBOR_CHECK_OK(rows.status());
    HARBOR_CHECK(rows->size() == kRows);
    double scan_ms = scan_watch.ElapsedMillis();
    size_t segments = obj->file->num_segments();

    // Pruning effectiveness of a selective scan on the same layout: an
    // insertion-range probe for data newer than anything loaded. The
    // directory prunes row segments; zone (min/max) stats prune columnar
    // images. Both collapse to "visit nothing" — the counters prove it.
    ScanSpec probe;
    probe.object_id = obj->object_id;
    probe.mode = ScanMode::kSeeDeleted;
    probe.has_insertion_after = true;
    probe.insertion_after = cluster->authority()->StableTime();
    SeqScanOperator pruned_scan(w0->store(), obj, probe);
    auto pruned_rows = pruned_scan.Collect();
    HARBOR_CHECK_OK(pruned_rows.status());
    HARBOR_CHECK(pruned_rows->empty());
    const size_t pruned = pruned_scan.segments_pruned() +
                          pruned_scan.zone_pruned_segments();
    const size_t pages_visited = pruned_scan.pages_visited();

    // Insert throughput (single stream; rollover frequency differs).
    ThroughputResult ins =
        MeasureInsertThroughput(cluster.get(), {table}, 1, 0.6);

    // Recovery after a small recent-data workload: small segments let the
    // recovery queries prune nearly everything.
    RunInsertTxns(cluster.get(), {table}, 500);
    cluster->AdvanceEpoch();
    cluster->CrashWorker(1);
    Stopwatch rec_watch;
    HARBOR_CHECK_OK(cluster->RecoverWorker(1).status());
    double rec_ms = rec_watch.ElapsedMillis();

    std::printf("%14u %10zu %12.1f %12.0f %14.1f %9zu %8zu\n", budget,
                segments, scan_ms, ins.tps, rec_ms, pruned, pages_visited);
  }
  std::printf("\n(expected: scans/inserts nearly flat — the merge across "
              "segments is cheap; recovery cost grows with segment size "
              "because Phase 1/2 must scan whole segments; the selective "
              "probe prunes every segment — directory ranges for row "
              "segments, zone stats for columnar images — visiting 0 "
              "pages)\n");
}

}  // namespace
}  // namespace harbor::bench

int main() {
  harbor::bench::Run();
  return 0;
}
