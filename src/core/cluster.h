#ifndef HARBOR_CORE_CLUSTER_H_
#define HARBOR_CORE_CLUSTER_H_

#include <chrono>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "core/coordinator.h"
#include "core/global_catalog.h"
#include "core/liveness.h"
#include "core/protocol.h"
#include "core/recovery_manager.h"
#include "core/worker.h"
#include "net/network.h"
#include "obs/observer.h"
#include "runtime/scheduler.h"
#include "txn/timestamp_authority.h"

namespace harbor {

struct ClusterOptions {
  /// Number of worker sites (the coordinator is site 0; workers are sites
  /// 1..N as in the paper's 4-node testbed: 1 coordinator + 3 workers).
  int num_workers = 3;
  CommitProtocol protocol = CommitProtocol::kOptimized3PC;
  bool group_commit = true;
  SimConfig sim = SimConfig::Zero();
  /// Base directory for site storage; "" creates a fresh temp directory,
  /// which the cluster deletes when destroyed. A given directory is kept.
  std::string base_dir;
  /// HARBOR / ARIES background checkpoint period; 0 = manual checkpoints.
  int64_t checkpoint_period_ms = 0;
  /// Timestamp-epoch advance period; 0 = advance manually (tests).
  int64_t epoch_tick_ms = 0;
  size_t buffer_pages = 8192;
  std::chrono::milliseconds lock_timeout{500};
  bool continue_on_worker_failure = false;
  /// Forwarded to every coordinator: how stale (in epochs behind Now) the
  /// gossip-learned snapshot mark may be before SnapshotTime() falls back
  /// to the authority (see CoordinatorOptions::snapshot_max_lag_epochs).
  int64_t snapshot_max_lag_epochs = 1;
};

/// One replica placement in a CreateTable request.
struct ReplicaSpec {
  int worker_index = 0;  // 0-based worker (site = index + 1)
  PartitionRange partition = PartitionRange::Full();
  /// Physical column order as a permutation of the logical schema's column
  /// indices; empty = logical order. Lets tests/benches build physically
  /// non-identical replicas (§3.1).
  std::vector<size_t> column_order;
  uint32_t segment_page_budget = 64;
  /// Integer column to maintain a per-segment secondary index on ("" =
  /// none; overrides TableSpec::indexed_column when set).
  std::string indexed_column;
  /// Columnar sealed segments: -1 inherits TableSpec::columnar, 0 forces
  /// row format, 1 forces columnar — replicas of one table may differ.
  int columnar = -1;
};

struct TableSpec {
  std::string name;
  Schema schema;
  /// Empty = one full replica per worker (or a deterministic K-safe subset
  /// when replication_factor is set), logical column order, the default
  /// segment budget below.
  std::vector<ReplicaSpec> replicas;
  /// When > 0 and `replicas` is empty, the table is placed with
  /// GlobalCatalog::PlaceTable: this many full replicas on the worker
  /// sites with the highest rendezvous hash — K-safety = factor - 1 —
  /// instead of one replica on every worker. 0 keeps the replicate-
  /// everywhere default.
  uint32_t replication_factor = 0;
  uint32_t default_segment_page_budget = 64;
  /// Default secondary-index column applied to every replica ("" = none).
  std::string indexed_column;
  /// Serve sealed segments from dictionary-encoded columnar images (the
  /// open tail segment always stays row-format).
  bool columnar = false;
};

/// A pre-timestamped row for bulk loading (§4.2's segment-based bulk load).
struct LoadRow {
  TupleId tuple_id = 0;
  Timestamp insertion_ts = 1;
  Timestamp deletion_ts = kNotDeleted;
  std::vector<Value> values;  // logical schema order
};

/// \brief Assembles a whole simulated cluster: network, timestamp authority,
/// global catalog, one coordinator, N workers — the distributed database of
/// Figure 6-1 in one process.
class Cluster {
 public:
  static Result<std::unique_ptr<Cluster>> Create(ClusterOptions options);
  ~Cluster();

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  Coordinator* coordinator() { return coordinators_[0].get(); }
  /// Additional coordinators (the multi-coordinator configuration of §4.1;
  /// the shared TimestampAuthority plays the timestamp-consensus role).
  Result<Coordinator*> AddCoordinator();
  Coordinator* coordinator(int i) {
    return coordinators_[static_cast<size_t>(i)].get();
  }
  int num_coordinators() const {
    return static_cast<int>(coordinators_.size());
  }
  std::vector<SiteId> CoordinatorSites() const;

  Worker* worker(int i) { return workers_[static_cast<size_t>(i)].get(); }
  int num_workers() const { return static_cast<int>(workers_.size()); }
  static SiteId WorkerSite(int i) { return static_cast<SiteId>(i + 1); }
  /// Extra coordinators live at high site ids so worker numbering is
  /// unaffected.
  static SiteId ExtraCoordinatorSite(int n) {
    return static_cast<SiteId>(1000 + n);
  }

  Network* network() { return network_.get(); }
  /// The cluster's metrics registry: one Metrics per site, always on, kept
  /// across worker restarts. Tracing is off until observer().EnableTrace().
  obs::Observer& observer() { return observer_; }
  /// The cluster-wide task scheduler every subsystem shares (RPC dispatch,
  /// checkpoint/epoch timers, consensus rounds, recovery fan-out).
  runtime::Scheduler* scheduler() { return scheduler_.get(); }
  TimestampAuthority* authority() { return &authority_; }
  GlobalCatalog* catalog() { return &catalog_; }
  LivenessDirectory* liveness() { return &liveness_; }
  const ClusterOptions& options() const { return options_; }
  const std::string& base_dir() const { return base_dir_; }

  /// Registers the table and provisions its objects at the workers.
  Result<TableId> CreateTable(const TableSpec& spec);

  /// Loads pre-timestamped rows into every replica of the table, bypassing
  /// transactions (the hourly/daily bulk load path, §4.2). Rows land in the
  /// open segment; pass `seal_segment` to close it afterwards.
  Status BulkLoad(TableId table, const std::vector<LoadRow>& rows,
                  bool seal_segment = false);

  /// Flushes and checkpoints every live worker (a quiescent baseline state
  /// for experiments).
  Status CheckpointAll();

  /// Fail-stop crash of worker i.
  void CrashWorker(int i) { workers_[static_cast<size_t>(i)]->Crash(); }

  /// Restarts worker i and brings it online:
  ///  - logging protocols run ARIES restart recovery inside Start();
  ///  - logless protocols run HARBOR's three-phase recovery.
  /// Returns HARBOR phase stats (empty object list in ARIES mode).
  Result<RecoveryStats> RecoverWorker(int i, RecoveryOptions options = {});

  /// Advances the logical clock n epochs.
  void AdvanceEpoch(int n = 1);

  /// Waits until no running worker has an active transaction: the
  /// consensus or abort aftermath of a coordinator crash has settled.
  /// TimedOut names the transactions each worker still holds.
  Status WaitForTxnDrain(std::chrono::milliseconds timeout);

 private:
  explicit Cluster(ClusterOptions options);

  const ClusterOptions options_;
  std::string base_dir_;
  bool owns_base_dir_ = false;
  /// Declared first (destroyed last): every site and the network record
  /// into it until they are gone.
  obs::Observer observer_;
  /// Declared before network_ (and so destroyed after it): the network's
  /// teardown still posts/drains dispatch tasks on this scheduler.
  std::unique_ptr<runtime::Scheduler> scheduler_;
  std::unique_ptr<Network> network_;
  TimestampAuthority authority_;
  GlobalCatalog catalog_;
  LivenessDirectory liveness_;
  std::vector<std::unique_ptr<Coordinator>> coordinators_;
  std::vector<std::unique_ptr<Worker>> workers_;
};

}  // namespace harbor

#endif  // HARBOR_CORE_CLUSTER_H_
