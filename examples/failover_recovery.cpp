// Failover and online recovery: a continuously loaded cluster loses a
// worker, keeps serving, and brings the site back online with HARBOR's
// three phases while inserts never stop — the end-to-end story of §6.5,
// narrated.

#include <cstdio>

#include <atomic>
#include <thread>

#include "core/cluster.h"

using namespace harbor;

int main() {
  std::printf("Failover & online recovery example\n");
  std::printf("==================================\n\n");

  ClusterOptions options;
  options.num_workers = 2;
  options.protocol = CommitProtocol::kOptimized3PC;
  options.sim = SimConfig::Zero();
  options.epoch_tick_ms = 5;
  options.checkpoint_period_ms = 50;  // Figure 3-2 checkpoints
  auto cluster_r = Cluster::Create(options);
  HARBOR_CHECK_OK(cluster_r.status());
  auto cluster = std::move(cluster_r).value();
  Coordinator* db = cluster->coordinator();

  TableSpec spec;
  spec.name = "events";
  spec.schema = Schema({Column::Int64("id"), Column::Int64("payload")});
  auto table_r = cluster->CreateTable(spec);
  HARBOR_CHECK_OK(table_r.status());
  TableId events = *table_r;

  // A writer that never stops: the cluster is not quiesced at any point.
  std::atomic<bool> stop{false};
  std::atomic<int64_t> next_id{0};
  std::atomic<int64_t> errors{0};
  std::thread writer([&] {
    while (!stop.load()) {
      int64_t id = next_id.fetch_add(1);
      Status st = db->InsertTxn(events, {Value(id), Value(id * 3)});
      if (!st.ok()) errors.fetch_add(1);
    }
  });

  const obs::Counter& committed = cluster->observer()
                                      .MetricsFor(db->site_id())
                                      .counter(obs::CounterId::kTxnCommitted);
  auto committed_now = [&] { return committed.value(); };

  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  std::printf("steady state: %lld transactions committed on 2 replicas\n",
              (long long)committed_now());

  std::printf("\n*** worker 1 crashes (fail-stop: volatile state gone) ***\n");
  cluster->CrashWorker(1);
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  std::printf("still committing with 1 replica: %lld total "
              "(aborted so far: %lld — at most the one in flight)\n",
              (long long)committed_now(), (long long)errors.load());

  std::printf("\n*** recovery starts; writes continue throughout ***\n");
  auto stats = cluster->RecoverWorker(1);
  HARBOR_CHECK_OK(stats.status());
  const ObjectRecoveryStats& obj = stats->objects[0];
  std::printf("phase 1 (local restore to checkpoint):   %.4f s — removed "
              "%zu post-checkpoint/uncommitted tuples, undid %zu "
              "deletions\n",
              obj.phase1_seconds, obj.phase1_removed, obj.phase1_undeleted);
  std::printf("phase 2 (lock-free historical queries):  %.4f s — copied "
              "%zu tuples, %zu deletions over %d round(s)\n",
              obj.phase2_delete_seconds + obj.phase2_insert_seconds,
              obj.phase2_tuples_copied, obj.phase2_deletions_copied,
              obj.phase2_rounds);
  std::printf("phase 3 (read-locked catch-up + join):   %.4f s — copied "
              "%zu more tuples, then joined pending transactions\n",
              stats->phase3_seconds, obj.phase3_tuples_copied);

  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  stop = true;
  writer.join();

  // Verify: both replicas hold exactly the committed set.
  cluster->AdvanceEpoch();
  auto rows = db->Query(events, Predicate::True());
  HARBOR_CHECK_OK(rows.status());
  std::printf("\nfinal state: %lld committed transactions, %zu rows "
              "readable, both replicas online\n",
              (long long)committed_now(), rows->size());
  HARBOR_CHECK(static_cast<int64_t>(rows->size()) == committed_now());
  std::printf("row count matches committed count: ACID held across crash "
              "and online recovery\n");
  return 0;
}
