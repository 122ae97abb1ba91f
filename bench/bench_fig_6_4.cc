// Figure 6-4: recovery performance as a function of the number of insert
// transactions executed since the last checkpoint / crash (§6.4.1).
//
// Four scenarios: ARIES from the log (1 table), HARBOR from a replica
// (1 table), and HARBOR recovering two tables serially vs in parallel.
//
// Expected shape: ARIES is cheapest at very small N but its per-transaction
// slope is several times steeper than HARBOR's (log processing with random
// page I/O vs streaming committed tuples from a replica), so the lines
// cross; parallel 2-table recovery beats serial, with the gap growing in N.

#include <cstdio>

#include "bench/bench_recovery_util.h"

namespace harbor::bench {
namespace {

// Scaled stand-in for the paper's 1 GB preloaded tables: the preload size
// only sets the amount of *historical* (checkpointed) data, which recovery
// prunes away via the segment directory; 10 segments keep the setup quick.
constexpr uint32_t kSegmentPages = 32;
constexpr size_t kPreloadTuples = 10 * kSegmentPages * 50;  // 16 K rows

void Run() {
  Banner("Figure 6-4 — recovery time vs insert transactions since crash",
         "§6.4.1, Figure 6-4");

  const std::vector<size_t> txn_counts = {2, 2500, 5000, 10000, 20000};

  std::printf("%-28s", "scenario\\inserts");
  for (size_t n : txn_counts) std::printf("%10zu", n);
  std::printf("   (recovery seconds)\n");

  std::vector<std::vector<double>> grid;
  std::string last_metrics;
  for (const RecoveryScenario& scenario : PaperRecoveryScenarios()) {
    std::printf("%-28s", scenario.name);
    std::fflush(stdout);
    std::vector<double> row;
    for (size_t n : txn_counts) {
      RecoveryRunResult r = RunRecoveryExperiment(
          scenario, kPreloadTuples, kSegmentPages,
          [n](Cluster* cluster, const std::vector<TableId>& tables) {
            RunInsertTxns(cluster, tables, n);
          });
      row.push_back(r.recovery_seconds);
      last_metrics = std::move(r.metrics_json);
      std::printf("%10.3f", r.recovery_seconds);
      std::fflush(stdout);
    }
    grid.push_back(std::move(row));
    std::printf("\n");
  }

  // Slopes (seconds per additional insert transaction) over the linear tail.
  auto slope = [&](const std::vector<double>& row) {
    return (row.back() - row[1]) /
           static_cast<double>(txn_counts.back() - txn_counts[1]);
  };
  const double aries_slope = slope(grid[0]);
  const double harbor_slope = slope(grid[3]);
  std::printf("\nARIES slope %.1f us/txn vs HARBOR slope %.1f us/txn -> "
              "ARIES degrades %.1fx faster (paper: ~3.3x)\n",
              aries_slope * 1e6, harbor_slope * 1e6,
              aries_slope / harbor_slope);
  std::printf("parallel vs serial 2-table gap at N=%zu: %.3f s vs %.3f s "
              "(paper: parallel wins, gap grows with N)\n",
              txn_counts.back(), grid[2].back(), grid[1].back());

  // Worker 2 is the crashed-and-recovered site in every HARBOR scenario
  // (see RunRecoveryExperiment); each cell's cluster keeps its own counts.
  std::printf("\nRecovering-site metrics (site %u, last cell):\n%s\n",
              Cluster::WorkerSite(2), last_metrics.c_str());
}

}  // namespace
}  // namespace harbor::bench

int main() {
  harbor::bench::Run();
  return 0;
}
