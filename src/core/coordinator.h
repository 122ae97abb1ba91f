#ifndef HARBOR_CORE_COORDINATOR_H_
#define HARBOR_CORE_COORDINATOR_H_

#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "core/global_catalog.h"
#include "core/liveness.h"
#include "core/messages.h"
#include "core/protocol.h"
#include "exec/predicate.h"
#include "net/network.h"
#include "sim/sim_disk.h"
#include "txn/snapshot_tracker.h"
#include "txn/timestamp_authority.h"
#include "wal/log_manager.h"

namespace harbor {

struct CoordinatorOptions {
  SiteId site_id = 0;
  std::string dir;
  SimConfig sim = SimConfig::Zero();
  CommitProtocol protocol = CommitProtocol::kOptimized3PC;
  bool group_commit = true;
  /// §4.3.5: commit with K-1 safety when a worker crashes mid-transaction
  /// instead of aborting.
  bool continue_on_worker_failure = false;
  /// How stale (in epochs behind Now) the cached snapshot mark may be before
  /// SnapshotTime() re-consults the authority. Larger values make snapshot
  /// reads cheaper under load at the price of older snapshots.
  int64_t snapshot_max_lag_epochs = 1;
};

/// How Query() reads (§3.1 vs §3.3).
enum class ReadMode : uint8_t {
  /// Default: lock-free read at a recent cluster-wide stable timestamp.
  /// Never blocks on or interferes with writers; may miss commits still in
  /// flight at other coordinators.
  kSnapshot = 0,
  /// Up-to-date read transaction with shared page locks.
  kLocking = 1,
};

/// \brief The transaction coordinator (§4.1): distributes update requests to
/// all live sites holding the relevant data, maintains each transaction's
/// in-memory queue of logical update requests (the state a recovering site
/// joins from, §5.4.2), runs the configured commit protocol, and serves the
/// recovery-side services (coming-online, in-doubt resolution).
class Coordinator {
 public:
  /// Commit/abort decisions, commit latency and protocol trace events are
  /// recorded in `metrics`, this site's registry in the cluster's observer.
  Coordinator(Network* network, GlobalCatalog* catalog,
              TimestampAuthority* authority, LivenessDirectory* liveness,
              obs::Metrics& metrics, CoordinatorOptions options);
  ~Coordinator();

  Coordinator(const Coordinator&) = delete;
  Coordinator& operator=(const Coordinator&) = delete;

  Status Start();
  /// Fail-stop crash (coordinator state is volatile except its 2PC log).
  void Crash();
  /// Restart: under 2PC, completes transactions whose COMMIT record is
  /// durable but whose workers were never told (re-sends COMMIT; workers
  /// treat duplicates idempotently).
  Status Restart();
  bool running() const { return running_.load(); }

  // --- Client transaction API ---
  Result<TxnId> Begin();
  Status Insert(TxnId txn, TableId table, std::vector<Value> values,
                int64_t cpu_work_cycles = 0);
  Status Delete(TxnId txn, TableId table, Predicate predicate);
  Status Update(TxnId txn, TableId table, Predicate predicate,
                std::vector<SetClause> sets);
  /// Runs the configured commit protocol; returns kAborted if the
  /// transaction could not commit.
  Status Commit(TxnId txn);
  Status Abort(TxnId txn);

  /// Convenience: one single-row insert transaction (the Figure 6-2
  /// workload unit).
  Status InsertTxn(TableId table, std::vector<Value> values,
                   int64_t cpu_work_cycles = 0);
  /// Convenience: one predicate update / delete as its own transaction
  /// (the trickle-update unit driven by the workload front-end).
  Status UpdateTxn(TableId table, Predicate predicate,
                   std::vector<SetClause> sets);
  Status DeleteTxn(TableId table, Predicate predicate);

  // --- Reads ---
  /// Historical read-only query at time `as_of` (lock-free, §3.3); `as_of`
  /// must be <= the authority's StableTime. Results use the logical schema.
  Result<std::vector<Tuple>> HistoricalQuery(TableId table,
                                             const Predicate& predicate,
                                             Timestamp as_of);
  /// Read-only query. The default mode serves a lock-free scan at
  /// SnapshotTime(); ReadMode::kLocking forces the S-locking read
  /// transaction path.
  Result<std::vector<Tuple>> Query(TableId table, const Predicate& predicate,
                                   ReadMode mode = ReadMode::kSnapshot);

  /// The stable timestamp the next snapshot read will use. Served from the
  /// piggyback-learned low-water mark when it is fresh enough (lock-free);
  /// falls back to the authority — advancing the epoch if needed so this
  /// coordinator's own latest commit is visible (read-your-writes for
  /// sequential callers).
  Timestamp SnapshotTime();

  /// Fresh tuple id for an insert (shared by all replicas of the tuple).
  TupleId NextTupleId();

  LogManager* log() { return log_.get(); }
  SimDisk* log_disk() { return log_disk_.get(); }
  SiteId site_id() const { return options_.site_id; }
  const CoordinatorOptions& options() const { return options_; }

 private:
  struct CoordTxn {
    explicit CoordTxn(TxnId id) : id(id) {}
    const TxnId id;
    std::mutex mu;
    std::vector<UpdateRequest> queue;  // §4.1 per-transaction update queue
    std::vector<SiteId> workers;       // participants (received updates)
    bool failed = false;               // a worker died mid-transaction
    bool finished = false;             // commit/abort already ran
  };

  Result<Message> Handle(SiteId from, const Message& m);
  Result<Message> HandleComingOnline(const ComingOnlineMsg& m);
  Result<Message> HandleResolveTxn(const TxnMsg& m);

  Status Distribute(TxnId txn, UpdateRequest request);
  /// Runs `update` in a fresh transaction, then commits it; aborts it if
  /// `update` fails.
  Status Autocommit(const std::function<Status(TxnId)>& update);
  Result<std::shared_ptr<CoordTxn>> GetTxn(TxnId txn);
  void EraseTxn(TxnId txn);

  /// Sends `m` to `sites` in one fan-out round; true if every site replied
  /// OK.
  bool Broadcast(const std::vector<SiteId>& sites, const Message& m);

  Status RunCommitProtocol(const std::shared_ptr<CoordTxn>& ct);
  Status AbortWithWorkers(const std::shared_ptr<CoordTxn>& ct,
                          const std::vector<SiteId>& prepared_sites);

  /// Plans an online cover of `def` and sends `scan` to each piece in turn,
  /// one Call per piece in plan order, appending the replies in the logical
  /// schema to `out`. Records each site it sends to in `touched` if given.
  /// Stops at the first failure.
  Status ScanCover(const TableDef& def, ScanMsg scan, std::vector<Tuple>* out,
                   std::vector<SiteId>* touched = nullptr);
  /// Lock-free snapshot scan of `table` at stable time `as_of` across an
  /// online cover; re-plans once if a site fails mid-query.
  Result<std::vector<Tuple>> SnapshotQueryAt(TableId table,
                                             const Predicate& predicate,
                                             Timestamp as_of);
  /// StableTime() now, folded into the local mark — the value stamped onto
  /// outgoing commit/abort traffic.
  Timestamp StampStableTime();

  Status LogDecisionForced(TxnId txn, bool commit, Timestamp ts);
  /// Appends `txn`'s END record, lazily (no force); a no-op without a log.
  void LogTxnEnd(TxnId txn);

  Network* const network_;
  GlobalCatalog* const catalog_;
  TimestampAuthority* const authority_;
  LivenessDirectory* const liveness_;
  obs::Metrics& metrics_;
  const CoordinatorOptions options_;

  std::unique_ptr<SimDisk> log_disk_;
  std::unique_ptr<LogManager> log_;  // only under 2PC protocols

  std::mutex txns_mu_;
  std::unordered_map<TxnId, std::shared_ptr<CoordTxn>> txns_;

  /// Commit/abort outcomes workers have not yet acknowledged; consulted by
  /// kResolveTxn after a worker restart (presumed abort if absent).
  mutable std::mutex unresolved_mu_;
  std::unordered_map<TxnId, std::pair<bool, Timestamp>> unresolved_;

  /// Blocks new update distribution while a recovering site joins pending
  /// transactions, eliminating forward/new-update races (§5.4.2).
  std::shared_mutex online_gate_;

  /// Low-water mark of cluster-wide stable time, fed by this coordinator's
  /// own StableTime() reads; SnapshotTime()'s lock-free fast path.
  SnapshotTracker snapshots_;
  /// Newest commit timestamp this coordinator successfully committed; the
  /// freshness floor for SnapshotTime (read-your-writes).
  SnapshotTracker last_commit_;

  std::atomic<bool> running_{false};
  std::atomic<uint64_t> txn_counter_{0};
  std::atomic<uint64_t> tuple_counter_{0};
  uint64_t restart_epoch_ = 0;
};

}  // namespace harbor

#endif  // HARBOR_CORE_COORDINATOR_H_
