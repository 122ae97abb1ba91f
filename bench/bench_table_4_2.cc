// Table 4.2: overhead of the four commit protocols, measured on a live
// 1-coordinator / 2-worker cluster by counting actual protocol messages and
// forced log writes for a single-insert transaction (§4.3.4), read from the
// cluster's metrics registry. Exits non-zero on any MISMATCH.
//
// Expected (per the paper):
//   protocol          msgs/worker   coord forces   worker forces
//   traditional 2PC        4             1               2
//   optimized 2PC          4             1               0
//   canonical 3PC          6             0               3
//   optimized 3PC          6             0               0

#include <cstdio>

#include "bench/bench_util.h"
#include "obs/observer.h"

namespace harbor::bench {
namespace {

int64_t Forces(Cluster* cluster, SiteId site) {
  return cluster->observer()
      .MetricsFor(site)
      .counter(obs::CounterId::kWalForces)
      .value();
}

bool Run() {
  Banner("Table 4.2 — messages and forced writes per commit protocol",
         "§4.3.4, Table 4.2");

  struct Expected {
    CommitProtocol protocol;
    int msgs, coord_fw, worker_fw;
  };
  const std::vector<Expected> rows = {
      {CommitProtocol::kTraditional2PC, 4, 1, 2},
      {CommitProtocol::kOptimized2PC, 4, 1, 0},
      {CommitProtocol::kCanonical3PC, 6, 0, 3},
      {CommitProtocol::kOptimized3PC, 6, 0, 0},
      // Extension: the logless one-phase commit of §4.3.2 (valid here
      // because workers verify constraints per operation).
      {CommitProtocol::kOptimized1PC, 2, 0, 0},
  };

  std::printf("%-18s %14s %14s %14s   (expected in parens)\n", "protocol",
              "msgs/worker", "coord forces", "worker forces");
  constexpr int kWorkers = 2;
  bool all_match = true;
  for (const Expected& e : rows) {
    ClusterOptions opt;
    opt.num_workers = kWorkers;
    opt.protocol = e.protocol;
    opt.sim = SimConfig::Zero();  // counting, not timing
    auto cluster_r = Cluster::Create(opt);
    HARBOR_CHECK_OK(cluster_r.status());
    auto cluster = std::move(cluster_r).value();
    TableId table = MakeEvalTable(cluster.get(), "t", 64);
    Coordinator* coord = cluster->coordinator();
    obs::Observer& o = cluster->observer();

    auto txn = coord->Begin();
    HARBOR_CHECK_OK(txn.status());
    HARBOR_CHECK_OK(coord->Insert(*txn, table, EvalRow(1)));

    // Snapshot the cluster's counters after the update phase: Table 4.2
    // counts only the commit protocol itself.
    const int64_t msgs0 = o.Total(obs::CounterId::kNetMessagesSent);
    const int64_t coord_fw0 = Forces(cluster.get(), coord->site_id());
    int64_t worker_fw0 = 0;
    for (int w = 0; w < kWorkers; ++w) {
      worker_fw0 += Forces(cluster.get(), Cluster::WorkerSite(w));
    }

    HARBOR_CHECK_OK(coord->Commit(*txn));

    const int64_t msgs =
        (o.Total(obs::CounterId::kNetMessagesSent) - msgs0) / kWorkers;
    const int64_t coord_fw =
        Forces(cluster.get(), coord->site_id()) - coord_fw0;
    int64_t worker_fw = -worker_fw0;
    for (int w = 0; w < kWorkers; ++w) {
      worker_fw += Forces(cluster.get(), Cluster::WorkerSite(w));
    }
    worker_fw /= kWorkers;

    const bool match = msgs == e.msgs && coord_fw == e.coord_fw &&
                       worker_fw == e.worker_fw;
    all_match &= match;
    std::printf("%-18s %9lld (%d) %9lld (%d) %9lld (%d)   %s\n",
                CommitProtocolToString(e.protocol), (long long)msgs, e.msgs,
                (long long)coord_fw, e.coord_fw, (long long)worker_fw,
                e.worker_fw, match ? "MATCH" : "MISMATCH");
    std::printf("  per-site metrics:\n%s", o.AllMetricsJson().c_str());
  }
  std::printf("\n%s\n", all_match ? "All rows match Table 4.2."
                                  : "Some rows deviate from Table 4.2!");
  return all_match;
}

}  // namespace
}  // namespace harbor::bench

int main() { return harbor::bench::Run() ? 0 : 1; }
