#include "core/worker.h"

#include <algorithm>
#include <thread>

#include "exec/dml.h"
#include "exec/seq_scan.h"
#include "fault/fault_injector.h"

namespace harbor {

namespace {

/// Handlers a worker endpoint runs at once ("each worker runs a
/// multi-threaded server", §6.1.6).
constexpr int kServerThreads = 8;

}  // namespace

Worker::Runtime::Runtime(const WorkerOptions& options, obs::Metrics& metrics)
    : data_disk("site" + std::to_string(options.site_id) + "-data",
                options.sim, metrics),
      log_disk("site" + std::to_string(options.site_id) + "-log", options.sim,
               metrics),
      cpu(options.sim),
      fm(options.dir, &data_disk),
      catalog(&fm),
      pool(&fm, options.buffer_pages, metrics),
      locks(metrics, options.lock_timeout) {}

Worker::Worker(Network* network, GlobalCatalog* catalog,
               TimestampAuthority* authority, LivenessDirectory* liveness,
               obs::Metrics& metrics, WorkerOptions options)
    : network_(network),
      catalog_(catalog),
      authority_(authority),
      liveness_(liveness),
      metrics_(metrics),
      options_(std::move(options)) {
  network_->SubscribeCrash([this](SiteId crashed) { OnSiteCrash(crashed); });
}

Worker::~Worker() { Crash(); }

Status Worker::Start(SiteState target_state) {
  std::lock_guard<std::mutex> lifecycle(lifecycle_mu_);
  if (running()) return Status::AlreadyExists("worker already running");

  auto gone = std::make_shared<std::latch>(1);
  std::shared_ptr<Runtime> rt(new Runtime(options_, metrics_),
                              [gone](Runtime* r) {
                                delete r;
                                gone->count_down();
                              });
  HARBOR_RETURN_NOT_OK(rt->catalog.OpenAll());
  if (WorkerLogs(options_.protocol)) {
    HARBOR_ASSIGN_OR_RETURN(
        rt->log,
        LogManager::Open(options_.dir, &rt->log_disk, options_.group_commit,
                         metrics_));
  }
  rt->store = std::make_unique<VersionStore>(&rt->catalog, &rt->pool,
                                             &rt->locks, rt->log.get(),
                                             &rt->txns);
  // The pool's hooks and the endpoint's handler bind this runtime: the pool
  // dies with it, and Crash drains the endpoint before releasing it.
  Runtime* bound = rt.get();
  rt->pool.set_header_sync_hook([bound](uint32_t file_id) -> Status {
    auto obj = bound->catalog.GetObject(file_id);
    if (!obj.ok()) return Status::OK();  // not a table file
    return (*obj)->file->SyncHeaderIfDirty();
  });
  if (rt->log != nullptr) {
    rt->pool.set_wal_flush_hook(
        [bound](Lsn lsn) -> Status { return bound->log->Flush(lsn); });
    // ARIES restart recovery: the log-based baseline's path back to a
    // consistent state (§6.1.7).
    AriesRecovery aries(&rt->catalog, &rt->pool, rt->log.get());
    InDoubtResolver resolver = [this](TxnId txn) -> Result<InDoubtOutcome> {
      TxnMsg probe;
      probe.type = MsgType::kResolveTxn;
      probe.txn = txn;
      auto reply = network_->Call(options_.site_id,
                                  options_.default_coordinator,
                                  probe.Encode());
      if (!reply.ok()) return reply.status();
      HARBOR_ASSIGN_OR_RETURN(ResolveReply r, ResolveReply::Decode(*reply));
      // "If no information, then abort" (presumed abort, §4.3.2).
      return InDoubtOutcome{r.known && r.committed, r.commit_ts};
    };
    HARBOR_RETURN_NOT_OK(aries.Recover(resolver).status());
  }
  // Indices are volatile and rebuilt lazily on first need — "recovered as
  // a side effect" of recovery touching the object (§5.1).

  HARBOR_RETURN_NOT_OK(network_->RegisterSite(
      options_.site_id,
      [this, bound](SiteId, const Message& m) { return Handle(*bound, m); },
      kServerThreads));
  if (options_.checkpoint_period_ms > 0) {
    rt->checkpoint_timer = scheduler()->ScheduleEvery(
        options_.checkpoint_period_ms * 1'000'000,
        [this] { CheckpointTick(); });
  }
  {
    std::lock_guard<std::mutex> lock(rt_mu_);
    rt_ = std::move(rt);
  }
  runtime_gone_ = std::move(gone);
  // Published before the liveness flip, so no coordinator routes a
  // transaction here while a crash callback could still miss it.
  liveness_->Set(options_.site_id, target_state);
  return Status::OK();
}

std::shared_ptr<Worker::Runtime> Worker::Pin() const {
  std::lock_guard<std::mutex> lock(rt_mu_);
  return rt_;
}

std::vector<TxnId> Worker::ActiveTxnIds() const {
  std::shared_ptr<Runtime> rt = Pin();
  return rt == nullptr ? std::vector<TxnId>() : rt->txns.ActiveIds();
}

Status Worker::ProvisionReplicas() {
  std::shared_ptr<Runtime> rt = Pin();
  HARBOR_CHECK(rt != nullptr);
  for (const TableDef* table : catalog_->tables()) {
    for (const ReplicaPlacement& p : table->replicas) {
      if (p.site != options_.site_id) continue;
      if (rt->catalog.GetObject(p.object_id).ok()) continue;
      HARBOR_RETURN_NOT_OK(
          rt->catalog
              .CreateObject(p.object_id, table->id,
                            table->name + "@" +
                                std::to_string(options_.site_id),
                            p.physical_schema, p.partition,
                            p.segment_page_budget, p.indexed_column,
                            p.columnar)
              .status());
    }
  }
  return Status::OK();
}

void Worker::Crash() {
  std::lock_guard<std::mutex> lifecycle(lifecycle_mu_);
  std::shared_ptr<Runtime> rt;
  {
    std::lock_guard<std::mutex> lock(rt_mu_);
    rt = std::move(rt_);
  }
  if (rt == nullptr) return;
  liveness_->Set(options_.site_id, SiteState::kDown);
  rt->locks.Shutdown();  // unblock handler threads stuck in lock waits
  network_->CrashSite(options_.site_id);  // drains handlers, fires subscribers
  if (rt->checkpoint_timer != 0) {
    // Cancel-and-wait: after this no checkpoint tick is running or will
    // ever run.
    scheduler()->CancelTimer(rt->checkpoint_timer);
  }
  // The last pin — a crash callback, consensus round or checkpoint writer
  // that took it before rt_ went null — destroys the runtime: the buffer
  // pool (no flush, so unflushed pages are lost), the lock tables, the
  // in-memory insertion and deletion lists, and the unforced log tail.
  // Files survive.
  rt.reset();
  runtime::ScopedBlocking block;
  runtime_gone_->wait();
}

// ----------------------------------------------------------- checkpoints

Status Worker::WriteCheckpoint() {
  std::shared_ptr<Runtime> rt = Pin();
  if (rt == nullptr) return Status::Unavailable("worker down");
  // Figure 3-2: pick T such that every commit at or before T has fully
  // applied (StableTime guarantees no in-flight commit <= T anywhere),
  // snapshot the dirty pages table, flush each page under its latch, then
  // record T.
  const Timestamp t = authority_->StableTime();
  for (TableObject* obj : rt->catalog.objects()) {
    obj->file->ResetUncommittedFlags(rt->store->SegmentsWithUncommitted(obj));
  }
  for (const PageId& page : rt->pool.DirtyPageSnapshot()) {
    HARBOR_RETURN_NOT_OK(rt->pool.FlushPage(page));
  }
  for (TableObject* obj : rt->catalog.objects()) {
    HARBOR_RETURN_NOT_OK(obj->file->SyncHeaderIfDirty());
  }
  return RewriteCheckpointRecord([&](CheckpointRecord& rec) {
    if (t <= rec.global_time && rec.per_object.empty()) {
      return false;  // nothing newer to claim
    }
    rec.global_time = std::max(rec.global_time, t);
    return true;
  });
}

Result<CheckpointRecord> Worker::LastCheckpoint() const {
  return ReadCheckpointRecord(options_.dir);
}

Status Worker::RewriteCheckpointRecord(
    const std::function<bool(CheckpointRecord&)>& edit) {
  std::shared_ptr<Runtime> rt = Pin();
  if (rt == nullptr) return Status::Unavailable("worker down");
  std::lock_guard<std::mutex> file_lock(checkpoint_file_mu_);
  HARBOR_ASSIGN_OR_RETURN(CheckpointRecord rec,
                          ReadCheckpointRecord(options_.dir));
  if (!edit(rec)) return Status::OK();
  HARBOR_RETURN_NOT_OK(WriteCheckpointRecord(options_.dir, rec));
  rt->data_disk.ChargeForcedWrite(64);
  return Status::OK();
}

Status Worker::WriteObjectCheckpoint(ObjectId object, Timestamp t) {
  return RewriteCheckpointRecord([&](CheckpointRecord& rec) {
    rec.per_object[object] = t;
    rec.resume.erase(object);
    return true;
  });
}

Status Worker::WriteObjectResume(ObjectId object, const StreamResume& resume) {
  return RewriteCheckpointRecord([&](CheckpointRecord& rec) {
    // Upsert by stream index: parallel catch-up streams advance their
    // watermarks independently within one object's entry.
    std::vector<StreamResume>& streams = rec.resume[object];
    auto it = std::find_if(streams.begin(), streams.end(),
                           [&](const StreamResume& r) {
                             return r.stream_index == resume.stream_index;
                           });
    if (it == streams.end()) {
      streams.push_back(resume);
    } else {
      *it = resume;
    }
    return true;
  });
}

Status Worker::PromoteGlobalCheckpoint(Timestamp t) {
  return RewriteCheckpointRecord([&](CheckpointRecord& rec) {
    rec = CheckpointRecord{};
    rec.global_time = t;
    return true;
  });
}

void Worker::CheckpointTick() {
  std::shared_ptr<Runtime> rt = Pin();
  if (rt == nullptr || checkpoints_paused_.load()) return;
  if (rt->log != nullptr) {
    // ARIES mode: fuzzy checkpoint, no page flushing.
    (void)AriesRecovery::WriteCheckpoint(rt->log.get(), &rt->pool, &rt->txns);
  } else {
    (void)WriteCheckpoint();
  }
}

// -------------------------------------------------------------- handlers

Result<Message> Worker::Handle(Runtime& rt, const Message& m) {
  switch (static_cast<MsgType>(m.type)) {
    case MsgType::kExecUpdate: {
      HARBOR_ASSIGN_OR_RETURN(ExecUpdateMsg msg, ExecUpdateMsg::Decode(m));
      return HandleExecUpdate(rt, msg);
    }
    case MsgType::kPrepare: {
      HARBOR_ASSIGN_OR_RETURN(PrepareMsg msg, PrepareMsg::Decode(m));
      return HandlePrepare(rt, msg);
    }
    case MsgType::kPrepareToCommit: {
      HARBOR_ASSIGN_OR_RETURN(CommitTsMsg msg, CommitTsMsg::Decode(m));
      return HandlePrepareToCommit(rt, msg);
    }
    case MsgType::kCommit: {
      HARBOR_ASSIGN_OR_RETURN(CommitTsMsg msg, CommitTsMsg::Decode(m));
      return HandleCommit(rt, msg);
    }
    case MsgType::kAbort:
    case MsgType::kFinishRead: {
      HARBOR_ASSIGN_OR_RETURN(TxnMsg msg, TxnMsg::Decode(m));
      return HandleAbort(rt, msg);
    }
    case MsgType::kScan: {
      HARBOR_ASSIGN_OR_RETURN(ScanMsg msg, ScanMsg::Decode(m));
      return HandleScan(rt, msg);
    }
    case MsgType::kTableLock:
    case MsgType::kTableUnlock: {
      HARBOR_ASSIGN_OR_RETURN(TableLockMsg msg, TableLockMsg::Decode(m));
      return HandleTableLock(rt, msg);
    }
    case MsgType::kTxnStateProbe: {
      HARBOR_ASSIGN_OR_RETURN(TxnMsg msg, TxnMsg::Decode(m));
      return HandleProbe(rt, msg);
    }
    default:
      return Status::NotImplemented("worker cannot handle message type " +
                                    std::to_string(m.type));
  }
}

Result<Message> Worker::HandleExecUpdate(Runtime& rt, const ExecUpdateMsg& m) {
  HARBOR_FAULT_POINT_ASYNC("worker.exec_update", options_.site_id);
  // Simulated per-transaction CPU work occupies this site's processor
  // (§6.3.2).
  rt.cpu.DoWork(m.request.cpu_work_cycles);

  HARBOR_ASSIGN_OR_RETURN(const TableDef* table,
                          catalog_->GetTable(m.request.table_id));
  std::shared_ptr<TxnState> txn = rt.txns.Create(m.txn);
  std::lock_guard<std::mutex> guard(txn->mu);
  txn->coordinator = m.coordinator;
  if (txn->phase != TxnPhase::kPending) {
    return Status::Aborted("transaction is no longer pending");
  }
  if (liveness_->Get(m.coordinator) == SiteState::kDown) {
    // Registered after the coordinator's crash callback scanned this site.
    TerminateOrphan(rt, txn.get());
    return Status::Aborted("coordinator is down");
  }

  for (TableObject* obj : rt.catalog.objects()) {
    if (obj->table_id != m.request.table_id) continue;
    switch (m.request.kind) {
      case UpdateRequest::Kind::kInsert: {
        if (!obj->partition.IsFull()) {
          HARBOR_ASSIGN_OR_RETURN(
              size_t key_idx,
              table->logical_schema.ColumnIndex(obj->partition.column));
          if (!obj->partition.Contains(m.request.values[key_idx].AsInteger())) {
            continue;  // tuple belongs to a partition hosted elsewhere
          }
        }
        HARBOR_RETURN_NOT_OK(ExecInsert(rt.store.get(), txn.get(), obj,
                                        m.request.tuple_id,
                                        table->logical_schema,
                                        m.request.values)
                                 .status());
        break;
      }
      case UpdateRequest::Kind::kDelete:
        HARBOR_RETURN_NOT_OK(ExecDelete(rt.store.get(), txn.get(), obj,
                                        m.request.predicate,
                                        authority_->Now())
                                 .status());
        break;
      case UpdateRequest::Kind::kUpdate:
        HARBOR_RETURN_NOT_OK(ExecUpdate(rt.store.get(), txn.get(), obj,
                                        m.request.predicate, m.request.sets,
                                        authority_->Now())
                                 .status());
        break;
    }
  }
  return AckMessage();
}

Result<Message> Worker::HandlePrepare(Runtime& rt, const PrepareMsg& m) {
  HARBOR_FAULT_POINT_ASYNC("worker.prepare", options_.site_id);
  auto txn_r = rt.txns.Get(m.txn);
  if (!txn_r.ok()) {
    // Unknown transaction (e.g. we crashed and recovered since executing
    // it): vote NO (§4.3.2).
    return VoteReply{false}.Encode();
  }
  std::shared_ptr<TxnState> txn = *txn_r;
  std::lock_guard<std::mutex> guard(txn->mu);
  txn->coordinator = m.coordinator;
  txn->participants = m.participants;
  if (txn->phase == TxnPhase::kPrepared) {
    return VoteReply{txn->voted_yes}.Encode();  // duplicate PREPARE
  }
  if (liveness_->Get(m.coordinator) == SiteState::kDown) {
    TerminateOrphan(rt, txn.get());
    return VoteReply{false}.Encode();
  }
  if (fail_next_prepare_.exchange(false)) {
    // Consistency constraint violation: vote NO and abort locally
    // (Figure 4-2's abort path at the worker).
    txn->voted_yes = false;
    HARBOR_RETURN_NOT_OK(AbortLocally(rt, txn.get()));
    metrics_.Trace("worker.vote.no", m.txn);
    return VoteReply{false}.Encode();
  }
  txn->phase = TxnPhase::kPrepared;
  txn->voted_yes = true;
  metrics_.Trace("worker.vote.yes", txn->id);
  // Traditional 2PC / canonical 3PC: the PREPARE record is force-written
  // before the YES vote leaves the site (§4.3.1).
  HARBOR_RETURN_NOT_OK(
      ForceTxnRecord(rt, txn.get(), LogRecordType::kTxnPrepare));
  return VoteReply{true}.Encode();
}

Result<Message> Worker::HandlePrepareToCommit(Runtime& rt,
                                              const CommitTsMsg& m) {
  HARBOR_FAULT_POINT_ASYNC("worker.prepare_to_commit", options_.site_id);
  snapshots_.Learn(m.stable_ts);
  auto txn_r = rt.txns.Get(m.txn);
  if (!txn_r.ok()) return AckMessage();  // already resolved; idempotent
  std::shared_ptr<TxnState> txn = *txn_r;
  std::lock_guard<std::mutex> guard(txn->mu);
  txn->phase = TxnPhase::kPreparedToCommit;
  txn->pending_commit_ts = m.commit_ts;
  metrics_.Trace("worker.prepared_to_commit", m.txn,
                 static_cast<int64_t>(m.commit_ts));
  if (IsThreePhase(options_.protocol)) {
    // Canonical 3PC's middle forced write.
    HARBOR_RETURN_NOT_OK(
        ForceTxnRecord(rt, txn.get(), LogRecordType::kTxnPrepareToCommit));
  }
  return AckMessage();
}

Status Worker::ForceTxnRecord(Runtime& rt, TxnState* txn, LogRecordType type,
                              Timestamp commit_ts) {
  if (rt.log == nullptr) return Status::OK();
  LogRecord rec;
  rec.type = type;
  rec.txn = txn->id;
  rec.prev_lsn = txn->last_lsn;
  rec.commit_ts = commit_ts;
  txn->last_lsn = rt.log->Append(std::move(rec));
  return rt.log->Flush(txn->last_lsn);
}

Status Worker::CommitLocally(Runtime& rt, TxnState* txn, Timestamp commit_ts) {
  HARBOR_RETURN_NOT_OK(rt.store->StampCommit(txn, commit_ts));
  txn->phase = TxnPhase::kCommitted;
  HARBOR_RETURN_NOT_OK(
      ForceTxnRecord(rt, txn, LogRecordType::kTxnCommit, commit_ts));
  rt.locks.ReleaseAll(txn->id);
  rt.txns.Erase(txn->id);
  metrics_.counter(obs::CounterId::kTxnCommitted).Add();
  metrics_.Trace("worker.committed", txn->id,
                 static_cast<int64_t>(commit_ts));
  return Status::OK();
}

Status Worker::AbortLocally(Runtime& rt, TxnState* txn) {
  txn->phase = TxnPhase::kAborted;
  HARBOR_RETURN_NOT_OK(rt.store->RollbackTransaction(txn));
  HARBOR_RETURN_NOT_OK(ForceTxnRecord(rt, txn, LogRecordType::kTxnAbort));
  rt.locks.ReleaseAll(txn->id);
  rt.txns.Erase(txn->id);
  metrics_.Trace("worker.aborted", txn->id);
  return Status::OK();
}

Result<Message> Worker::HandleCommit(Runtime& rt, const CommitTsMsg& m) {
  HARBOR_FAULT_POINT_ASYNC("worker.commit", options_.site_id);
  snapshots_.Learn(m.stable_ts);
  auto txn_r = rt.txns.Get(m.txn);
  if (!txn_r.ok()) return AckMessage();  // duplicate COMMIT; idempotent
  std::shared_ptr<TxnState> txn = *txn_r;
  std::lock_guard<std::mutex> guard(txn->mu);
  if (txn->phase == TxnPhase::kCommitted) return AckMessage();
  HARBOR_RETURN_NOT_OK(CommitLocally(rt, txn.get(), m.commit_ts));
  // Crash here: tuples stamped but the ACK never reaches the coordinator.
  HARBOR_FAULT_POINT_ASYNC("worker.commit.after_apply", options_.site_id);
  return AckMessage();
}

Result<Message> Worker::HandleAbort(Runtime& rt, const TxnMsg& m) {
  HARBOR_FAULT_POINT_ASYNC("worker.abort", options_.site_id);
  snapshots_.Learn(m.stable_ts);
  auto txn_r = rt.txns.Get(m.txn);
  if (!txn_r.ok()) {
    // kFinishRead for a read-only transaction that never created state, or
    // a duplicate abort: just release any page locks held under this owner.
    rt.locks.ReleaseAll(m.txn);
    return AckMessage();
  }
  std::shared_ptr<TxnState> txn = *txn_r;
  std::lock_guard<std::mutex> guard(txn->mu);
  HARBOR_RETURN_NOT_OK(AbortLocally(rt, txn.get()));
  return AckMessage();
}

Result<Message> Worker::HandleScan(Runtime& rt, const ScanMsg& m) {
  HARBOR_FAULT_POINT_ASYNC("worker.scan", options_.site_id);
  if (m.snapshot_read &&
      liveness_->Get(options_.site_id) != SiteState::kOnline) {
    // A recovering site's objects are incomplete until Phase 3 ends, and a
    // snapshot read takes no locks that would serialize it against the
    // rewrite. Refuse so the reader fails fast and re-plans onto an online
    // replica instead of blocking on (or racing with) recovery.
    return Status::Unavailable("snapshot read refused: site not online");
  }
  if (m.snapshot_read) {
    // The scan's as_of is itself a stable timestamp the coordinator vouched
    // for — fold it into this site's low-water mark (lazy gossip).
    snapshots_.Learn(m.spec.as_of);
  }
  const ScanLocking locking = m.snapshot_read    ? ScanLocking::kSnapshot
                              : m.with_page_locks ? ScanLocking::kPageLocks
                                                  : ScanLocking::kNone;
  HARBOR_ASSIGN_OR_RETURN(TableObject * obj,
                          rt.catalog.GetObject(m.spec.object_id));
  ScanReplyMsg reply;
  std::vector<Tuple> tuples;
  std::vector<VersionKey> keys;
  uint64_t pages_visited = 0;
  if (m.max_tuples > 0) {
    // Chunked recovery scan: serve one bounded chunk in (insertion_ts,
    // tuple_id) order starting past the continuation cursor, selected
    // key-first — the key scan reads only system headers from the row
    // pages, and only the rows of the chunk are ever materialized. The
    // cursor's timestamp doubles as a segment-pruning bound — every
    // remaining key has insertion_ts >= cursor_insertion_ts.
    ScanSpec spec = m.spec;
    if (m.has_cursor && m.cursor_insertion_ts > 0) {
      const Timestamp bound = m.cursor_insertion_ts - 1;
      if (!spec.has_insertion_after || spec.insertion_after < bound) {
        spec.has_insertion_after = true;
        spec.insertion_after = bound;
      }
    }
    // Bounding the prefix alone leaves each chunk key-scanning the whole
    // remaining suffix for its few smallest keys — quadratic across the
    // stream. Restrict each attempt to a ts window above the cursor,
    // widening geometrically while it comes up empty (a delta sharing one
    // timestamp still fills the first window). A copy chunk whose window
    // yields less than half a chunk is widened once more, in proportion to
    // what it found, so a trickle-loaded delta (one row per timestamp)
    // ships about full chunks instead of one row per round trip. Deletion
    // chunks (minimal_projection) are not: their keys are the few deleted
    // rows scattered over the window, and widening would mostly re-scan
    // rows that were never deleted. A window that stops short of the cap
    // is served with truncated=true: the cursor is an exact resume point,
    // so a short chunk is merely a smaller step. Committed insertion
    // timestamps never exceed the authority clock, which caps the widening
    // when the spec carries no upper bound of its own.
    const ScanCursor after{m.has_cursor, m.cursor_insertion_ts,
                           m.cursor_tuple_id};
    const Timestamp window_lo =
        spec.has_insertion_after ? spec.insertion_after : 0;
    const bool has_full_hi = spec.has_insertion_at_or_before;
    // When the spec carries no upper bound of its own, pin one at the first
    // chunk and carry it across the stream (the client echoes it back in
    // cap_insertion_ts). Recomputing from Now() per chunk would let a
    // long-running stream widen into tuples inserted after it began.
    const Timestamp hi_cap =
        has_full_hi ? spec.insertion_at_or_before
        : m.cap_insertion_ts > 0
            ? m.cap_insertion_ts
            : std::max(window_lo, authority_->Now());
    if (!has_full_hi) reply.cap_insertion_ts = hi_cap;
    // The pinned cap may only become a real filter when uncommitted tuples
    // cannot qualify anyway: their sentinel insertion time fails any finite
    // bound, and kSeeDeleted scans that want them must keep the final
    // window unbounded.
    const bool cap_filters =
        spec.exclude_uncommitted || spec.mode != ScanMode::kSeeDeleted;
    bool truncated = false;
    bool final_window = false;
    bool extrapolated = false;
    for (Timestamp width = 1; !final_window;) {
      ScanSpec attempt = spec;
      final_window = hi_cap <= window_lo || width >= hi_cap - window_lo;
      if (!final_window) {
        attempt.has_insertion_at_or_before = true;
        attempt.insertion_at_or_before = window_lo + width;
      } else if (has_full_hi || cap_filters) {
        attempt.has_insertion_at_or_before = true;
        attempt.insertion_at_or_before = hi_cap;
      }
      SeqScanOperator scan(rt.store.get(), obj, std::move(attempt), m.owner,
                           locking);
      HARBOR_ASSIGN_OR_RETURN(keys, scan.ScanKeys());
      pages_visited += scan.pages_visited();
      truncated = SelectChunk(&keys, after, m.max_tuples);
      if (keys.empty()) {
        width *= 2;
      } else if (truncated || extrapolated || m.minimal_projection ||
                 2 * keys.size() >= m.max_tuples) {
        break;
      } else {
        extrapolated = true;
        width += width * m.max_tuples / keys.size();
      }
    }
    if (!keys.empty()) {
      reply.truncated = truncated || !final_window;
      reply.last_insertion_ts = keys.back().insertion_ts;
      reply.last_tuple_id = keys.back().tuple_id;
    }
    if (!m.minimal_projection) {
      HARBOR_ASSIGN_OR_RETURN(tuples, rt.store->ReadVersions(obj, keys));
    }
  } else {
    SeqScanOperator scan(rt.store.get(), obj, m.spec, m.owner, locking);
    if (m.minimal_projection) {
      HARBOR_ASSIGN_OR_RETURN(keys, scan.ScanKeys());
    } else {
      HARBOR_ASSIGN_OR_RETURN(tuples, scan.Collect());
    }
    pages_visited = scan.pages_visited();
  }
  if (m.snapshot_read) {
    metrics_.counter(obs::CounterId::kReadSnapshotScans).Add();
    // What a locking read would have acquired: the IS table lock plus one S
    // page lock per visited page.
    metrics_.counter(obs::CounterId::kReadLockBypass)
        .Add(static_cast<int64_t>(1 + pages_visited));
    const Timestamp now = authority_->Now();
    metrics_.histogram(obs::HistogramId::kReadSnapshotLagEpochs)
        .Record(now > m.spec.as_of ? static_cast<int64_t>(now - m.spec.as_of)
                                   : 0);
  } else if (m.with_page_locks) {
    metrics_.counter(obs::CounterId::kReadLockScans).Add();
  }
  if (m.max_tuples > 0 && !m.snapshot_read) {
    // Chunked non-snapshot scans are recovery catch-up streams: attribute
    // the served chunk to this buddy so parallel recovery's fan-out across
    // sites is observable per buddy.
    metrics_.counter(obs::CounterId::kRecoveryChunksServed).Add();
  }
  reply.minimal = m.minimal_projection;
  if (m.minimal_projection) {
    reply.id_deletions.reserve(keys.size());
    for (const VersionKey& k : keys) {
      reply.id_deletions.push_back(
          IdDeletion{k.tuple_id, k.deletion_ts, k.insertion_ts});
    }
  } else {
    reply.schema = obj->schema;
    // Columnar tables ship their tuples as dictionary/FOR-compressed column
    // blocks — recovery catch-up chunks shrink, the receiver decodes back
    // to identical tuples.
    reply.columnar = obj->columnar;
    reply.tuples = std::move(tuples);
  }
  return reply.Encode();
}

Result<Message> Worker::HandleTableLock(Runtime& rt, const TableLockMsg& m) {
  const LockOwnerId owner = MakeRecoveryOwner(m.owner_site);
  if (m.type == MsgType::kTableLock) {
    HARBOR_RETURN_NOT_OK(
        rt.locks.AcquireTableLock(owner, m.object_id, LockMode::kShared));
  } else {
    rt.locks.ReleaseTableLock(owner, m.object_id);
  }
  return AckMessage();
}

Result<Message> Worker::HandleProbe(Runtime& rt, const TxnMsg& m) {
  ProbeReply reply;
  auto txn_r = rt.txns.Get(m.txn);
  if (txn_r.ok()) {
    std::shared_ptr<TxnState> txn = *txn_r;
    std::lock_guard<std::mutex> guard(txn->mu);
    reply.known = true;
    reply.phase = static_cast<uint8_t>(txn->phase);
    reply.voted_yes = txn->voted_yes;
    reply.pending_commit_ts = txn->pending_commit_ts;
    reply.participants = txn->participants;
  }
  return reply.Encode();
}

// ----------------------------------------------- failure handling (§5.5)

void Worker::OnSiteCrash(SiteId crashed) {
  if (crashed == options_.site_id) return;
  std::shared_ptr<Runtime> rt = Pin();
  if (rt == nullptr) return;
  HARBOR_FAULT_HIT("worker.site_crash", options_.site_id);

  // A recovering site that dies while holding table read locks must not
  // block transactions forever: override its lock ownership (§5.5.1).
  rt->locks.ReleaseAll(MakeRecoveryOwner(crashed));

  // Coordinator failure handling (§4.3.2 / §4.3.3). A handler that
  // registers a transaction after this scan terminates it itself.
  for (TxnId id : rt->txns.ActiveIds()) {
    auto txn_r = rt->txns.Get(id);
    if (!txn_r.ok()) continue;
    std::lock_guard<std::mutex> guard((*txn_r)->mu);
    if ((*txn_r)->coordinator == crashed) TerminateOrphan(*rt, txn_r->get());
  }
}

void Worker::TerminateOrphan(Runtime& rt, TxnState* txn) {
  if (IsThreePhase(options_.protocol)) {
    // The round pins the runtime; a round that never runs is destroyed,
    // which unpins it.
    (void)scheduler()->Post([this, pin = rt.shared_from_this(), id = txn->id,
                             dead = txn->coordinator] {
      RunConsensus(*pin, id, dead);
    });
    return;
  }
  // 2PC: a pending transaction can be aborted safely; a prepared one is
  // blocked until the coordinator recovers (the blocking problem).
  if (txn->phase == TxnPhase::kPending ||
      (txn->phase == TxnPhase::kPrepared && !txn->voted_yes)) {
    (void)AbortLocally(rt, txn);
  }
}

void Worker::RunConsensus(Runtime& rt, TxnId txn_id,
                          SiteId dead_coordinator) {
  metrics_.Trace("worker.consensus.begin", txn_id,
                 static_cast<int64_t>(dead_coordinator));
  HARBOR_FAULT_HIT("worker.consensus", options_.site_id);
  // The round's pin keeps rt_ either this runtime or null.
  if (!running()) return;
  auto txn_r = rt.txns.Get(txn_id);
  if (!txn_r.ok()) return;  // already resolved
  std::shared_ptr<TxnState> txn = *txn_r;

  std::vector<SiteId> participants;
  TxnPhase self_phase;
  Timestamp ts;
  {
    std::lock_guard<std::mutex> guard(txn->mu);
    participants = txn->participants;
    self_phase = txn->phase;
    ts = txn->pending_commit_ts;
  }
  std::vector<SiteId> alive;
  for (SiteId p : participants) {
    if (p != dead_coordinator && network_->IsAlive(p)) alive.push_back(p);
  }
  std::sort(alive.begin(), alive.end());

  // Stagger backups by rank so the lowest-id live participant usually acts
  // alone; duplicates are harmless (the decision rule is deterministic
  // under fail-stop, see below).
  size_t rank = 0;
  for (size_t i = 0; i < alive.size(); ++i) {
    if (alive[i] == options_.site_id) rank = i;
  }
  {
    runtime::ScopedBlocking block;  // stagger wait on the shared pool
    std::this_thread::sleep_for(std::chrono::milliseconds(30) * rank);
  }
  if (!running()) return;
  if (!rt.txns.Get(txn_id).ok()) return;  // resolved while we waited

  // Probe every live participant: if ANY site reached prepared-to-commit
  // (or committed), the old coordinator may have reached its commit point,
  // so the transaction must commit — replay the last two phases with the
  // same commit time (Table 4.1). If NO live site got past prepared, the
  // coordinator cannot have collected all prepared-to-commit ACKs, so abort
  // is safe.
  bool must_commit = self_phase == TxnPhase::kPreparedToCommit ||
                     self_phase == TxnPhase::kCommitted;
  std::vector<SiteId> others;  // every round goes to the live peers at once
  for (SiteId p : alive) {
    if (p != options_.site_id) others.push_back(p);
  }
  TxnMsg probe;
  probe.type = MsgType::kTxnStateProbe;
  probe.txn = txn_id;
  for (const Result<Message>& reply :
       network_->CallAll(options_.site_id, others, probe.Encode())) {
    if (!reply.ok()) continue;  // newly failed site: fail-stop, skip
    auto decoded = ProbeReply::Decode(*reply);
    if (!decoded.ok() || !decoded->known) continue;
    TxnPhase phase = static_cast<TxnPhase>(decoded->phase);
    if (phase == TxnPhase::kPreparedToCommit ||
        phase == TxnPhase::kCommitted) {
      must_commit = true;
      if (decoded->pending_commit_ts != 0) ts = decoded->pending_commit_ts;
    }
  }

  metrics_.Trace("worker.consensus.decision", txn_id,
                 must_commit ? 1 : 0, static_cast<int64_t>(alive.size()));
  Message outcome;
  if (must_commit) {
    // Every PREPARE-TO-COMMIT reply is in before the first COMMIT leaves.
    CommitTsMsg commit;
    commit.type = MsgType::kPrepareToCommit;
    commit.txn = txn_id;
    commit.commit_ts = ts;
    (void)network_->CallAll(options_.site_id, others, commit.Encode());
    commit.type = MsgType::kCommit;
    outcome = commit.Encode();
  } else {
    TxnMsg abort;
    abort.type = MsgType::kAbort;
    abort.txn = txn_id;
    outcome = abort.Encode();
  }
  (void)network_->CallAll(options_.site_id, others, outcome);
  auto self = rt.txns.Get(txn_id);
  if (self.ok()) {
    std::lock_guard<std::mutex> guard((*self)->mu);
    if (!must_commit) {
      (void)AbortLocally(rt, self->get());
    } else if ((*self)->phase != TxnPhase::kCommitted) {
      (void)CommitLocally(rt, self->get(), ts);
    }
  }
  // Release the dead coordinator's epoch hold (no-op if ReleaseSite beat us
  // to it on the crash notification).
  if (must_commit) authority_->EndCommit(ts, dead_coordinator);
}

}  // namespace harbor
