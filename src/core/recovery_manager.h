#ifndef HARBOR_CORE_RECOVERY_MANAGER_H_
#define HARBOR_CORE_RECOVERY_MANAGER_H_

#include <functional>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "core/worker.h"

namespace harbor {

struct RecoveryOptions {
  /// Recover multiple objects in parallel, one thread per object (§5.1,
  /// evaluated in §6.4).
  bool parallel = true;
  /// Phase-2 catch-up streams per object: the (checkpoint, HWM] insertion
  /// window splits into up to this many disjoint sub-windows, each streamed
  /// from a *different* recovery buddy concurrently. Only full-replica
  /// covers split; partitioned covers keep one serial stream per piece.
  /// 1 = the classic single-stream behavior.
  int max_parallel_streams = 1;
  /// Whole-recovery retry attempts after a recovery-buddy failure (§5.5.2).
  int max_attempts = 3;
  /// Catch-up chunk size (> 0): remote phase-2/3 scans return at most ~this
  /// many tuples per reply, fetched as a double-buffered pipeline (chunk
  /// N+1 is in flight while chunk N applies).
  size_t stream_chunk_tuples = 512;
  /// Advance the durable phase-2 resume watermark every N applied chunks,
  /// so a buddy failure mid-stream resumes instead of re-copying the
  /// object. Each advance costs a FlushAll + forced checkpoint write;
  /// 0 disables mid-stream watermarks.
  int watermark_interval_chunks = 8;
  /// Coordinator sites to notify with "coming online" (§5.4.2).
  std::vector<SiteId> coordinators;
};

/// Per-object recovery measurements; the basis of Figures 6-4 to 6-6.
struct ObjectRecoveryStats {
  ObjectId object_id = 0;
  double phase1_seconds = 0;
  double phase2_seconds = 0;         // whole Phase 2 wall time, this object
  double phase2_delete_seconds = 0;  // SELECT + UPDATE of deletions (§5.3)
  double phase2_insert_seconds = 0;  // SELECT + INSERT of new tuples
  size_t phase1_removed = 0;
  size_t phase1_undeleted = 0;
  size_t phase2_deletions_copied = 0;
  size_t phase2_tuples_copied = 0;
  size_t phase3_deletions_copied = 0;
  size_t phase3_tuples_copied = 0;
  int phase2_rounds = 0;
  Timestamp hwm = 0;
};

/// Aggregate timings. phase1/phase2 are derived from the per-object
/// measurements — max across objects when they recovered in parallel, sum
/// when serial — while offline_seconds is the directly-measured wall time
/// of phases 1+2 together, so it bounds phase1 + phase2 from above.
struct RecoveryStats {
  double phase1_seconds = 0;
  double phase2_seconds = 0;
  double phase3_seconds = 0;
  double offline_seconds = 0;  // measured wall time of phases 1+2
  double total_seconds = 0;
  std::vector<ObjectRecoveryStats> objects;
};

/// Runs one remote scan of `buddy` as a pipelined chunk stream of up to
/// `chunk_tuples` tuples per reply: chunk N+1 is fetched with CallAsync —
/// which never runs on the caller — while `apply` consumes chunk N.
/// Chunk counts, sizes and apply/stall times are recorded in `metrics`.
Status StreamScan(Network* net, obs::Metrics& metrics, SiteId self,
                  SiteId buddy, ScanMsg msg, size_t chunk_tuples,
                  const std::function<Status(ScanReplyMsg&)>& apply);

/// \brief HARBOR's three-phase replica-query recovery (Chapter 5).
///
/// Runs on a restarted worker whose endpoint is up in the kRecovering state:
///  - Phase 1 restores the local state to the last checkpoint by removing
///    tuples inserted after it (or uncommitted) and undoing deletions after
///    it — two local queries driven by the segment directory (§5.2).
///  - Phase 2 catches up to a high water mark with *lock-free historical
///    queries* against recovery buddies chosen from the catalog; the system
///    is never quiesced (§5.3). With max_parallel_streams > 1 the catch-up
///    range splits into disjoint insertion-time windows streamed from
///    different buddies concurrently; each stream carries its own durable
///    resume watermark, and a buddy dying mid-stream fails the stream over
///    to another replica at the cursor instead of restarting the round.
///  - Phase 3 takes table-granularity read locks on every recovery object
///    at once, copies the final delta with ordinary queries, then joins
///    pending transactions through the coordinator and comes online (§5.4).
///
/// Every copy — a Phase-2 window, one piece of a partitioned cover, a
/// Phase-3 delta — is one RunStream: the same deletion pass and insertion
/// stream, historical below a HWM in Phase 2 and ordinary reads in Phase 3.
///
/// Unsurvivable buddy failures restart the affected recovery with a fresh
/// plan (§5.5.2); failures of the recovering site itself simply leave its
/// per-object checkpoints behind for the next attempt (§5.5.1).
class RecoveryManager {
 public:
  RecoveryManager(Worker* worker, RecoveryOptions options);

  /// Recovers every local object and brings the site online.
  Result<RecoveryStats> Recover();

 private:
  struct ObjectPlan {
    TableObject* obj = nullptr;
    Timestamp checkpoint = 0;
    Timestamp hwm = 0;
    std::vector<RecoveryObject> cover;
    /// Durable mid-stream watermarks loaded from the checkpoint record: the
    /// previous attempt died inside Phase-2 catch-up streams, and within
    /// each stream's insertion-time window every version key
    /// <= (insertion_ts, tuple_id) is already on disk.
    std::vector<StreamResume> resume;
    ObjectRecoveryStats stats;
  };

  /// One catch-up stream's half-open insertion-time window (lo, hi], plus
  /// the durable watermark to resume from, if any. hi == 0 means
  /// "unbounded above" (the serving buddy pins a cap instead).
  struct StreamWindow {
    uint32_t stream_index = 0;
    Timestamp lo = 0;  // exclusive
    Timestamp hi = 0;  // inclusive; 0 = unbounded (cap pinned by the buddy)
    std::optional<StreamResume> resume;
  };

  /// In-memory continuation cursor of a live stream: the last applied
  /// (insertion_ts, tuple_id). Failover re-issues the scan strictly past it.
  using StreamCursor = std::optional<std::pair<Timestamp, TupleId>>;

  Status RunPhase1(ObjectPlan* plan);
  Status RunPhase2(ObjectPlan* plan);
  Status RunPhase2Round(ObjectPlan* plan, Timestamp hwm);
  Status RunPhase3(std::vector<ObjectPlan>* plans, double* out_seconds);
  /// Runs fn on every plan — concurrently when options_.parallel (§5.1),
  /// else one after another — and returns the first failure.
  Status ForEachPlan(std::vector<ObjectPlan>* plans,
                     const std::function<Status(ObjectPlan*)>& fn);

  Status ComputeCover(ObjectPlan* plan);
  /// Splits the round's (checkpoint, hwm] range into up to max_streams
  /// disjoint windows — or, when durable watermarks exist, reconstructs the
  /// interrupted round's windows from them and covers any gaps with fresh
  /// windows under fresh stream indexes.
  std::vector<StreamWindow> PlanWindows(const ObjectPlan& plan, Timestamp hwm,
                                        size_t max_streams) const;
  /// Runs one window to completion against the replica pool: deletion
  /// pass (when the window owns one) then the insertion stream. hwm != 0
  /// makes it a Phase-2 stream of historical queries as of hwm; hwm == 0 a
  /// Phase-3 one of ordinary reads, counted in the phase3_* stats. Durable
  /// watermarks only make sense on a full-replica Phase-2 stream. A buddy
  /// dying mid-stream (kUnavailable from the wire, never a local apply
  /// failure) fails over to the next usable replica at the in-memory
  /// cursor. Local applies of concurrent same-object streams run without
  /// mutual exclusion — page latches and the internally-locked index /
  /// segment-header / checkpoint structures carry the safety — so stats_mu_
  /// only guards the final merge into plan->stats.
  Status RunStream(ObjectPlan* plan, const std::vector<RecoveryObject>& pool,
                   const StreamWindow& window, Timestamp hwm,
                   bool durable_watermarks);
  /// Abandons unresumable watermarks: wipes everything past the object
  /// checkpoint and durably clears the resume entries so the round restarts
  /// cleanly from the object checkpoint.
  Status DiscardResume(ObjectPlan* plan);
  /// harbor::StreamScan from this worker with the configured chunk size.
  /// *retriable reports whether a failure is safe to fail over: it came
  /// from the wire rather than the local apply.
  Status StreamScan(const RecoveryObject& piece, ScanMsg msg,
                    const std::function<Status(ScanReplyMsg&)>& apply,
                    bool* retriable);
  /// Ships deletion times for tuples with ins_after < insertion_ts <=
  /// ins_at_or_before (ins_after == 0 leaves the lower bound unset) and
  /// deletion_ts > the object checkpoint, as of hwm (0 = an ordinary read).
  Status ApplyRemoteDeletions(ObjectPlan* plan, const RecoveryObject& piece,
                              Timestamp ins_after, Timestamp ins_at_or_before,
                              Timestamp hwm, size_t* copied, bool* retriable);
  /// Streams the window's insertions from `piece` as of hwm (0 = an
  /// ordinary read), resuming strictly past *cursor when set and updating
  /// it after every applied chunk; *cap carries the buddy-pinned insertion
  /// cap across failover.
  Status CopyRemoteInsertions(ObjectPlan* plan, const RecoveryObject& piece,
                              const StreamWindow& window, Timestamp hwm,
                              bool durable_watermarks, StreamCursor* cursor,
                              Timestamp* cap, size_t* copied,
                              bool* retriable);

  bool BuddyUsable(SiteId site) const;
  /// Prefixes an Unavailable planning failure with the object identity so
  /// exhausted-replica errors surfaced to the caller name what is stuck.
  Status AnnotateUnavailable(const ObjectPlan& plan, Status st) const;

  Worker* const worker_;
  obs::Metrics& metrics_;  // the worker's site registry
  const RecoveryOptions options_;
  std::mutex stats_mu_;  // guards RunStream's merge into plan->stats
};

}  // namespace harbor

#endif  // HARBOR_CORE_RECOVERY_MANAGER_H_
