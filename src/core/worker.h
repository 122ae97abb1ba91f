#ifndef HARBOR_CORE_WORKER_H_
#define HARBOR_CORE_WORKER_H_

#include <atomic>
#include <chrono>
#include <functional>
#include <latch>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "aries/aries.h"
#include "buffer/buffer_pool.h"
#include "common/result.h"
#include "core/checkpoint_file.h"
#include "core/global_catalog.h"
#include "core/liveness.h"
#include "core/messages.h"
#include "core/protocol.h"
#include "lock/lock_manager.h"
#include "net/network.h"
#include "sim/sim_cpu.h"
#include "sim/sim_disk.h"
#include "storage/local_catalog.h"
#include "txn/snapshot_tracker.h"
#include "txn/timestamp_authority.h"
#include "txn/transaction.h"
#include "txn/version_store.h"
#include "wal/log_manager.h"

namespace harbor {

struct WorkerOptions {
  SiteId site_id = kInvalidSiteId;
  std::string dir;
  SimConfig sim = SimConfig::Zero();
  CommitProtocol protocol = CommitProtocol::kOptimized3PC;
  bool group_commit = true;
  size_t buffer_pages = 8192;
  std::chrono::milliseconds lock_timeout{500};
  /// Period of the background checkpointer (Fig 3-2 in HARBOR mode, fuzzy
  /// ARIES checkpoints in logging mode); 0 disables it.
  int64_t checkpoint_period_ms = 0;
  /// Coordinator to consult for ARIES in-doubt resolution at restart.
  SiteId default_coordinator = 0;
};

/// \brief A worker site: the storage stack of Figure 6-1 plus the message
/// handlers for transaction execution, commit processing, query shipping,
/// and recovery support.
///
/// The Worker object itself is a restartable host; all volatile state lives
/// in an internal runtime that Crash() destroys (keeping the site's files)
/// and Start() rebuilds — fail-stop semantics (§3.2). Every user of the
/// runtime either holds it by construction (message handlers and pool hooks
/// bind the runtime they were registered with; the crash drains them before
/// it can go) or pins it (crash callbacks, consensus rounds, checkpoint
/// writers, accessors). Crash() returns only once the last pin is dropped.
class Worker {
 public:
  /// `metrics` is this site's registry in the cluster's observer; it
  /// outlives every restart, so counts survive a crash.
  Worker(Network* network, GlobalCatalog* catalog,
         TimestampAuthority* authority, LivenessDirectory* liveness,
         obs::Metrics& metrics, WorkerOptions options);
  ~Worker();

  Worker(const Worker&) = delete;
  Worker& operator=(const Worker&) = delete;

  /// Creates local objects for every catalog placement at this site (no-op
  /// for objects that already exist).
  Status ProvisionReplicas();

  /// Builds the runtime over the site's files and brings the endpoint up.
  /// In logging mode this first runs ARIES restart recovery. `target_state`
  /// is kOnline for a normal start and kRecovering when HARBOR recovery will
  /// follow (the endpoint must be up to receive forwarded updates, but new
  /// transactions must not target the site yet, §5.4.2).
  Status Start(SiteState target_state = SiteState::kOnline);

  /// Fail-stop crash: drops every piece of volatile state. Files survive.
  /// Returns once no code is left running on the old runtime.
  void Crash();

  bool running() const { return Pin() != nullptr; }

  /// Ids of the transactions active at this site; empty when it is down.
  std::vector<TxnId> ActiveTxnIds() const;

  // --- Checkpointing (Figure 3-2) ---
  Status WriteCheckpoint();
  Result<CheckpointRecord> LastCheckpoint() const;
  /// Records `t` for `object` and clears any interrupted-stream watermark —
  /// an object checkpoint means the round completed.
  Status WriteObjectCheckpoint(ObjectId object, Timestamp t);
  /// Durably marks how far an interrupted Phase-2 catch-up stream got, so a
  /// buddy failure mid-stream resumes from the watermark instead of
  /// re-copying the object. Caller must have flushed the copied pages first.
  Status WriteObjectResume(ObjectId object, const StreamResume& resume);
  /// Collapses per-object checkpoints into a single global time once
  /// recovery of all objects completes (§5.3).
  Status PromoteGlobalCheckpoint(Timestamp t);
  /// Recovery disables the periodic checkpointer (§5.2).
  void PauseCheckpoints(bool paused) { checkpoints_paused_ = paused; }

  // --- Internals (used by RecoveryManager, Cluster, tests) ---
  // The pointers stay valid only while the worker stays up.
  VersionStore* store() { return Pin()->store.get(); }
  LocalCatalog* local_catalog() { return &Pin()->catalog; }
  LockManager* locks() { return &Pin()->locks; }
  BufferPool* pool() { return &Pin()->pool; }
  LogManager* log() { return Pin()->log.get(); }
  TxnTable* txns() { return &Pin()->txns; }
  obs::Metrics& metrics() { return metrics_; }
  TimestampAuthority* authority() { return authority_; }
  Network* network() { return network_; }
  runtime::Scheduler* scheduler() { return network_->scheduler(); }
  GlobalCatalog* global_catalog() { return catalog_; }
  LivenessDirectory* liveness() { return liveness_; }
  const WorkerOptions& options() const { return options_; }
  SiteId site_id() const { return options_.site_id; }

  /// Test hook: the next PREPARE vote is NO (simulates a consistency
  /// constraint violation, §4.3).
  void FailNextPrepare() { fail_next_prepare_ = true; }

  /// This site's snapshot low-water mark: the newest cluster-wide stable
  /// timestamp it has learned from piggybacked commit/abort traffic and
  /// served snapshot scans. Every timestamp <= mark is safe to read without
  /// locks. Lives outside the runtime: a learned mark is valid forever
  /// (stability is monotone), so it survives Crash()/Start().
  Timestamp snapshot_mark() const { return snapshots_.mark(); }

 private:
  struct Runtime : std::enable_shared_from_this<Runtime> {
    Runtime(const WorkerOptions& options, obs::Metrics& metrics);

    SimDisk data_disk;
    SimDisk log_disk;
    SimCpu cpu;
    FileManager fm;
    LocalCatalog catalog;
    BufferPool pool;
    LockManager locks;
    TxnTable txns;
    std::unique_ptr<LogManager> log;  // null when the protocol is logless
    std::unique_ptr<VersionStore> store;

    /// Repeating checkpoint timer on the shared runtime; 0 = none.
    runtime::TimerId checkpoint_timer = 0;
  };

  /// The running runtime, kept alive for as long as the caller holds the
  /// result; null when the worker is down.
  std::shared_ptr<Runtime> Pin() const;

  Result<Message> Handle(Runtime& rt, const Message& m);
  Result<Message> HandleExecUpdate(Runtime& rt, const ExecUpdateMsg& m);
  Result<Message> HandlePrepare(Runtime& rt, const PrepareMsg& m);
  Result<Message> HandlePrepareToCommit(Runtime& rt, const CommitTsMsg& m);
  Result<Message> HandleCommit(Runtime& rt, const CommitTsMsg& m);
  Result<Message> HandleAbort(Runtime& rt, const TxnMsg& m);
  Result<Message> HandleScan(Runtime& rt, const ScanMsg& m);
  Result<Message> HandleTableLock(Runtime& rt, const TableLockMsg& m);
  Result<Message> HandleProbe(Runtime& rt, const TxnMsg& m);

  /// Appends a `type` record to `txn`'s log chain and forces it; a no-op
  /// under the logless protocols. The one place a worker forces a
  /// transaction-state record.
  Status ForceTxnRecord(Runtime& rt, TxnState* txn, LogRecordType type,
                        Timestamp commit_ts = 0);
  Status AbortLocally(Runtime& rt, TxnState* txn);
  Status CommitLocally(Runtime& rt, TxnState* txn, Timestamp commit_ts);

  void OnSiteCrash(SiteId crashed);
  /// Starts termination of `txn`, whose coordinator has crashed (§4.3.2 /
  /// §4.3.3): 2PC aborts it while that is still safe, 3PC posts a consensus
  /// round. Caller holds txn->mu.
  void TerminateOrphan(Runtime& rt, TxnState* txn);
  /// Consensus building protocol (backup coordinator, §4.3.3 / Table 4.1).
  void RunConsensus(Runtime& rt, TxnId txn_id, SiteId dead_coordinator);

  void CheckpointTick();
  /// Reads the checkpoint record, lets `edit` change it and force-writes
  /// the result; Unavailable while the worker is down. An `edit` that
  /// returns false leaves the file as it is and charges no write.
  Status RewriteCheckpointRecord(
      const std::function<bool(CheckpointRecord&)>& edit);

  Network* const network_;
  GlobalCatalog* const catalog_;
  TimestampAuthority* const authority_;
  LivenessDirectory* const liveness_;
  obs::Metrics& metrics_;
  const WorkerOptions options_;

  /// Guards the pointer only (a plain mutex, not std::atomic<shared_ptr>:
  /// libstdc++ 12's atomic load releases its lock bit relaxed, which is a
  /// data race under TSan).
  mutable std::mutex rt_mu_;
  std::shared_ptr<Runtime> rt_;
  /// Serializes Start() against Crash(); never taken by a pin holder.
  std::mutex lifecycle_mu_;
  /// Counted down by the running runtime's deleter (guarded by
  /// lifecycle_mu_).
  std::shared_ptr<std::latch> runtime_gone_;
  SnapshotTracker snapshots_;
  std::atomic<bool> checkpoints_paused_{false};
  std::atomic<bool> fail_next_prepare_{false};
  /// Serializes read-modify-write cycles on the checkpoint record file
  /// (parallel object recovery checkpoints concurrently, §5.3).
  mutable std::mutex checkpoint_file_mu_;
};

}  // namespace harbor

#endif  // HARBOR_CORE_WORKER_H_
