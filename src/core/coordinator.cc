#include "core/coordinator.h"

#include <algorithm>

#include "common/clock.h"
#include "fault/fault_injector.h"

namespace harbor {

namespace {

/// Handlers the coordinator endpoint runs at once.
constexpr int kServerThreads = 4;

}  // namespace

Coordinator::Coordinator(Network* network, GlobalCatalog* catalog,
                         TimestampAuthority* authority,
                         LivenessDirectory* liveness, obs::Metrics& metrics,
                         CoordinatorOptions options)
    : network_(network),
      catalog_(catalog),
      authority_(authority),
      liveness_(liveness),
      metrics_(metrics),
      options_(std::move(options)) {}

Coordinator::~Coordinator() { Crash(); }

Status Coordinator::Start() {
  if (running_.load()) return Status::AlreadyExists("coordinator running");
  restart_epoch_++;
  if (CoordinatorLogs(options_.protocol)) {
    log_disk_ = std::make_unique<SimDisk>(
        "coord" + std::to_string(options_.site_id) + "-log", options_.sim,
        metrics_);
    HARBOR_ASSIGN_OR_RETURN(
        log_, LogManager::Open(options_.dir, log_disk_.get(),
                               options_.group_commit, metrics_));
  }
  HARBOR_RETURN_NOT_OK(network_->RegisterSite(
      options_.site_id,
      [this](SiteId from, const Message& m) { return Handle(from, m); },
      kServerThreads));
  liveness_->Set(options_.site_id, SiteState::kOnline);
  running_ = true;
  return Status::OK();
}

void Coordinator::Crash() {
  if (!running_.load()) return;
  running_ = false;
  liveness_->Set(options_.site_id, SiteState::kDown);
  network_->CrashSite(options_.site_id);
  // Volatile coordinator state is lost: per-transaction update queues,
  // outcome cache. (The 2PC decision log survives in its file.)
  {
    std::lock_guard<std::mutex> lock(txns_mu_);
    txns_.clear();
  }
  {
    std::lock_guard<std::mutex> lock(unresolved_mu_);
    unresolved_.clear();
  }
  log_.reset();
  log_disk_.reset();
}

Status Coordinator::Restart() {
  HARBOR_RETURN_NOT_OK(Start());
  if (log_ == nullptr) return Status::OK();
  // 2PC coordinator recovery: re-deliver the outcome of transactions whose
  // decision record is durable but that never collected all ACKs (§4.3.2 —
  // this is exactly why the 2PC coordinator must force its decision).
  HARBOR_ASSIGN_OR_RETURN(std::vector<LogRecord> records,
                          log_->ReadAllDurable());
  std::unordered_map<TxnId, std::pair<bool, Timestamp>> open;
  for (const LogRecord& rec : records) {
    switch (rec.type) {
      case LogRecordType::kTxnCommit:
        open[rec.txn] = {true, rec.commit_ts};
        break;
      case LogRecordType::kTxnAbort:
        open[rec.txn] = {false, 0};
        break;
      case LogRecordType::kTxnEnd:
        open.erase(rec.txn);
        break;
      default:
        break;
    }
  }
  for (const auto& [txn, outcome] : open) {
    const auto& [committed, ts] = outcome;
    std::vector<SiteId> sites;
    for (SiteId s : liveness_->OnlineSites()) {
      if (s != options_.site_id) sites.push_back(s);
    }
    Message decision;
    if (committed) {
      last_commit_.Learn(ts);
      CommitTsMsg commit;
      commit.txn = txn;
      commit.commit_ts = ts;
      commit.stable_ts = StampStableTime();
      decision = commit.Encode();
    } else {
      TxnMsg abort;
      abort.type = MsgType::kAbort;
      abort.txn = txn;
      abort.stable_ts = StampStableTime();
      decision = abort.Encode();
    }
    Broadcast(sites, decision);
    {
      std::lock_guard<std::mutex> lock(unresolved_mu_);
      unresolved_[txn] = outcome;
    }
    LogTxnEnd(txn);
  }
  return log_->FlushAll();
}

// ------------------------------------------------------------- txn state

Result<TxnId> Coordinator::Begin() {
  if (!running_.load()) return Status::Unavailable("coordinator down");
  TxnId id = (static_cast<TxnId>(options_.site_id) << 48) |
             (restart_epoch_ << 40) | (++txn_counter_);
  auto ct = std::make_shared<CoordTxn>(id);
  std::lock_guard<std::mutex> lock(txns_mu_);
  txns_[id] = std::move(ct);
  return id;
}

TupleId Coordinator::NextTupleId() {
  return (static_cast<TupleId>(options_.site_id) << 48) |
         (restart_epoch_ << 40) | (++tuple_counter_);
}

Result<std::shared_ptr<Coordinator::CoordTxn>> Coordinator::GetTxn(
    TxnId txn) {
  std::lock_guard<std::mutex> lock(txns_mu_);
  auto it = txns_.find(txn);
  if (it == txns_.end()) {
    return Status::NotFound("unknown transaction " + std::to_string(txn));
  }
  return it->second;
}

void Coordinator::EraseTxn(TxnId txn) {
  std::lock_guard<std::mutex> lock(txns_mu_);
  txns_.erase(txn);
}

// ----------------------------------------------------------- distribution

Status Coordinator::Distribute(TxnId txn, UpdateRequest request) {
  HARBOR_FAULT_POINT("coordinator.distribute", options_.site_id);
  HARBOR_ASSIGN_OR_RETURN(std::shared_ptr<CoordTxn> ct, GetTxn(txn));
  // Shared side of the coming-online gate: joins of recovering sites are
  // serialized against update distribution (§5.4.2).
  std::shared_lock<std::shared_mutex> gate(online_gate_);
  std::lock_guard<std::mutex> lock(ct->mu);
  if (ct->failed) return Status::Aborted("transaction lost a worker");

  // Update queries go to ALL live sites with relevant data (§4.1); crashed
  // sites are ignored — they will recover the updates from replicas.
  std::vector<SiteId> targets;
  for (SiteId s : catalog_->SitesOf(request.table_id)) {
    if (liveness_->IsOnline(s)) targets.push_back(s);
  }
  // Sites already joined into this transaction via coming-online also get
  // the update even if the directory lags.
  for (SiteId s : ct->workers) {
    if (std::find(targets.begin(), targets.end(), s) == targets.end() &&
        liveness_->Get(s) != SiteState::kDown) {
      // Only forward if the site stores this table.
      auto sites = catalog_->SitesOf(request.table_id);
      if (std::find(sites.begin(), sites.end(), s) != sites.end()) {
        targets.push_back(s);
      }
    }
  }
  if (targets.empty()) {
    return Status::Unavailable("no live replicas of table " +
                               std::to_string(request.table_id));
  }

  ExecUpdateMsg msg;
  msg.txn = txn;
  msg.coordinator = options_.site_id;
  msg.request = request;

  Status failure = Status::OK();
  for (const Result<Message>& r :
       network_->CallAll(options_.site_id, targets, msg.Encode())) {
    if (r.ok()) continue;
    if (r.status().IsUnavailable() && options_.continue_on_worker_failure) {
      // §4.3.5: proceed with K-1 safety; the crashed worker recovers later.
      continue;
    }
    failure = r.status();
  }
  if (!failure.ok()) {
    // The update failed at some site (deadlock victim, constraint, crash)
    // but may have executed at others, which now hold locks for this
    // transaction. Abort at every attempted target — leaving the partial
    // execution in place would orphan exclusive locks and wedge the system.
    ct->failed = true;
    TxnMsg abort;
    abort.type = MsgType::kAbort;
    abort.txn = txn;
    std::vector<SiteId> attempted = targets;
    for (SiteId s : ct->workers) {
      if (std::find(attempted.begin(), attempted.end(), s) ==
          attempted.end()) {
        attempted.push_back(s);
      }
    }
    Broadcast(attempted, abort.Encode());
    return failure;
  }
  ct->queue.push_back(std::move(request));
  for (SiteId s : targets) {
    if (std::find(ct->workers.begin(), ct->workers.end(), s) ==
        ct->workers.end()) {
      ct->workers.push_back(s);
    }
  }
  return Status::OK();
}

Status Coordinator::Insert(TxnId txn, TableId table,
                           std::vector<Value> values,
                           int64_t cpu_work_cycles) {
  UpdateRequest req;
  req.kind = UpdateRequest::Kind::kInsert;
  req.table_id = table;
  req.values = std::move(values);
  req.tuple_id = NextTupleId();
  req.cpu_work_cycles = cpu_work_cycles;
  return Distribute(txn, std::move(req));
}

Status Coordinator::Delete(TxnId txn, TableId table, Predicate predicate) {
  UpdateRequest req;
  req.kind = UpdateRequest::Kind::kDelete;
  req.table_id = table;
  req.predicate = std::move(predicate);
  return Distribute(txn, std::move(req));
}

Status Coordinator::Update(TxnId txn, TableId table, Predicate predicate,
                           std::vector<SetClause> sets) {
  UpdateRequest req;
  req.kind = UpdateRequest::Kind::kUpdate;
  req.table_id = table;
  req.predicate = std::move(predicate);
  req.sets = std::move(sets);
  return Distribute(txn, std::move(req));
}

// ------------------------------------------------------ commit processing

bool Coordinator::Broadcast(const std::vector<SiteId>& sites,
                            const Message& m) {
  bool all_ok = true;
  for (const auto& r : network_->CallAll(options_.site_id, sites, m)) {
    all_ok &= r.ok();
  }
  return all_ok;
}

Status Coordinator::LogDecisionForced(TxnId txn, bool commit, Timestamp ts) {
  if (log_ == nullptr) return Status::OK();
  LogRecord rec;
  rec.type = commit ? LogRecordType::kTxnCommit : LogRecordType::kTxnAbort;
  rec.txn = txn;
  rec.commit_ts = ts;
  Lsn lsn = log_->Append(std::move(rec));
  // The commit point of 2PC: the decision record reaches stable storage
  // before any outcome message leaves the coordinator (§4.3.1).
  return log_->Flush(lsn);
}

void Coordinator::LogTxnEnd(TxnId txn) {
  if (log_ == nullptr) return;
  LogRecord end;
  end.type = LogRecordType::kTxnEnd;
  end.txn = txn;
  log_->Append(std::move(end));  // lazy write, not forced
}

Status Coordinator::AbortWithWorkers(
    const std::shared_ptr<CoordTxn>& ct,
    const std::vector<SiteId>& prepared_sites) {
  HARBOR_RETURN_NOT_OK(LogDecisionForced(ct->id, /*commit=*/false, 0));
  TxnMsg abort;
  abort.type = MsgType::kAbort;
  abort.txn = ct->id;
  abort.stable_ts = StampStableTime();
  Broadcast(prepared_sites, abort.Encode());
  LogTxnEnd(ct->id);
  metrics_.counter(obs::CounterId::kTxnAborted).Add();
  metrics_.Trace("coord.decision.abort", ct->id,
                 static_cast<int64_t>(prepared_sites.size()));
  ct->finished = true;
  EraseTxn(ct->id);
  return Status::Aborted("transaction aborted by commit protocol");
}

Status Coordinator::RunCommitProtocol(const std::shared_ptr<CoordTxn>& ct) {
  const std::vector<SiteId>& participants = ct->workers;
  metrics_.Trace("coord.commit.begin", ct->id,
                 static_cast<int64_t>(participants.size()),
                 static_cast<int64_t>(options_.protocol));
  HARBOR_FAULT_POINT("coordinator.commit.begin", options_.site_id);

  const bool one_phase = options_.protocol == CommitProtocol::kOptimized1PC;
  std::vector<SiteId> yes_sites;  // 1PC sends its COMMIT to every participant
  if (!one_phase) {
    // ---- Phase 1: PREPARE / vote collection (all but 1PC) ----
    HARBOR_FAULT_POINT("coordinator.before_prepare", options_.site_id);
    metrics_.Trace("coord.prepare.send", ct->id,
                   static_cast<int64_t>(participants.size()));
    const int64_t vote_start_ns = NowNanos();
    PrepareMsg prepare;
    prepare.txn = ct->id;
    prepare.coordinator = options_.site_id;
    prepare.participants = participants;
    std::vector<Result<Message>> votes =
        network_->CallAll(options_.site_id, participants, prepare.Encode());
    bool all_yes = true;
    for (size_t i = 0; i < participants.size(); ++i) {
      const Result<Message>& r = votes[i];
      if (!r.ok()) {
        // No response: assume the worker aborted and voted NO (§4.3.2) —
        // unless K-1-safe commit is enabled and the site simply died.
        if (r.status().IsUnavailable() &&
            options_.continue_on_worker_failure) {
          continue;
        }
        all_yes = false;
        continue;
      }
      auto vote = VoteReply::Decode(*r);
      if (vote.ok() && vote->yes) {
        yes_sites.push_back(participants[i]);
      } else {
        all_yes = false;
      }
    }
    metrics_.histogram(obs::HistogramId::kVoteRoundTripNs)
        .Record(NowNanos() - vote_start_ns);
    metrics_.Trace("coord.votes.collected", ct->id,
                   static_cast<int64_t>(yes_sites.size()), all_yes ? 1 : 0);
    // Abort every participant, not just the YES voters: a site whose
    // PREPARE was lost in transit (or failed before the handler ran) never
    // aborted locally and still holds its execution-phase locks. kAbort is
    // idempotent at sites that already rolled back — the unknown-txn path
    // releases any stragglers — and Broadcast shrugs off sites that have
    // since died.
    if (!all_yes) return AbortWithWorkers(ct, participants);
    HARBOR_FAULT_POINT("coordinator.after_prepare", options_.site_id);
  }

  const Timestamp ts = authority_->BeginCommit(options_.site_id);
  // Fault points past the commit point must release the epoch hold before
  // surfacing the injected failure, or StableTime() would be pinned at ts-1
  // forever; the plain macro cannot, so these points go through a wrapper.
  // (After an injected crash the hold is already gone via ReleaseSite and
  // the extra EndCommit is a no-op.)
  auto fault_point = [&](const char* point) -> Status {
    fault::FaultInjector* fi = fault::FaultInjector::Current();
    if (fi == nullptr) return Status::OK();
    Status st = fi->OnPoint(point, options_.site_id, fault::CrashMode::kSync);
    if (!st.ok()) authority_->EndCommit(ts, options_.site_id);
    return st;
  };

  CommitTsMsg commit;
  commit.txn = ct->id;
  commit.commit_ts = ts;
  if (one_phase) {
    // Logless one-phase commit (§4.3.2): every integrity constraint was
    // already verified per update operation, so no site can need to vote
    // NO — the coordinator goes straight to COMMIT. A crashed worker
    // recovers the committed data from replicas like any other failure.
    commit.stable_ts = StampStableTime();
    metrics_.Trace("coord.1pc.commit.send", ct->id,
                   static_cast<int64_t>(ts));
    Broadcast(participants, commit.Encode());
  } else if (!IsThreePhase(options_.protocol)) {
    // ---- 2PC phase 2 ----
    Status st = LogDecisionForced(ct->id, /*commit=*/true, ts);
    if (!st.ok()) {
      authority_->EndCommit(ts, options_.site_id);
      return st;
    }
    {
      std::lock_guard<std::mutex> lock(unresolved_mu_);
      unresolved_[ct->id] = {true, ts};
    }
    metrics_.Trace("coord.2pc.decision_logged", ct->id,
                   static_cast<int64_t>(ts));
    HARBOR_RETURN_NOT_OK(fault_point("coordinator.2pc.after_decision_logged"));
    commit.stable_ts = StampStableTime();
    metrics_.Trace("coord.commit.send", ct->id,
                   static_cast<int64_t>(ts),
                   static_cast<int64_t>(yes_sites.size()));
    const bool all_acked = Broadcast(yes_sites, commit.Encode());
    HARBOR_RETURN_NOT_OK(fault_point("coordinator.2pc.after_commit_send"));
    LogTxnEnd(ct->id);
    if (all_acked) {
      std::lock_guard<std::mutex> lock(unresolved_mu_);
      unresolved_.erase(ct->id);  // every worker knows; nothing to resolve
    }
  } else {
    // ---- 3PC phases 2+3: PREPARE-TO-COMMIT, then COMMIT (§4.3.3) ----
    CommitTsMsg ptc = commit;
    ptc.type = MsgType::kPrepareToCommit;
    ptc.stable_ts = StampStableTime();
    metrics_.Trace("coord.3pc.ptc.send", ct->id,
                   static_cast<int64_t>(ts),
                   static_cast<int64_t>(yes_sites.size()));
    Broadcast(yes_sites, ptc.Encode());
    HARBOR_RETURN_NOT_OK(fault_point("coordinator.3pc.after_ptc"));
    // All ACKs received: the commit point, with no forced write anywhere.
    commit.stable_ts = StampStableTime();
    metrics_.Trace("coord.commit.send", ct->id,
                   static_cast<int64_t>(ts),
                   static_cast<int64_t>(yes_sites.size()));
    Broadcast(yes_sites, commit.Encode());
    HARBOR_RETURN_NOT_OK(fault_point("coordinator.3pc.after_commit_send"));
  }

  authority_->EndCommit(ts, options_.site_id);
  last_commit_.Learn(ts);
  metrics_.counter(obs::CounterId::kTxnCommitted).Add();
  metrics_.Trace("coord.commit.done", ct->id,
                 static_cast<int64_t>(ts));
  ct->finished = true;
  EraseTxn(ct->id);
  return Status::OK();
}

Status Coordinator::Commit(TxnId txn) {
  HARBOR_ASSIGN_OR_RETURN(std::shared_ptr<CoordTxn> ct, GetTxn(txn));
  std::lock_guard<std::mutex> lock(ct->mu);
  if (ct->failed) return Abort(txn);
  if (ct->workers.empty()) {
    // Read-only / empty transaction: nothing to agree on.
    EraseTxn(txn);
    metrics_.counter(obs::CounterId::kTxnCommitted).Add();
    return Status::OK();
  }
  const int64_t start_ns = NowNanos();
  Status st = RunCommitProtocol(ct);
  if (st.ok()) {
    metrics_.histogram(obs::HistogramId::kCommitLatencyNs)
        .Record(NowNanos() - start_ns);
  }
  return st;
}

Status Coordinator::Abort(TxnId txn) {
  HARBOR_ASSIGN_OR_RETURN(std::shared_ptr<CoordTxn> ct, GetTxn(txn));
  std::lock_guard<std::mutex> lock(ct->mu);
  TxnMsg abort;
  abort.type = MsgType::kAbort;
  abort.txn = txn;
  abort.stable_ts = StampStableTime();
  std::vector<SiteId> targets;
  for (SiteId s : ct->workers) {
    if (network_->IsAlive(s)) targets.push_back(s);
  }
  Broadcast(targets, abort.Encode());
  metrics_.counter(obs::CounterId::kTxnAborted).Add();
  metrics_.Trace("coord.abort", txn,
                 static_cast<int64_t>(targets.size()));
  ct->finished = true;
  EraseTxn(txn);
  return Status::OK();
}

Status Coordinator::Autocommit(const std::function<Status(TxnId)>& update) {
  HARBOR_ASSIGN_OR_RETURN(TxnId txn, Begin());
  Status st = update(txn);
  if (!st.ok()) {
    (void)Abort(txn);
    return st;
  }
  return Commit(txn);
}

Status Coordinator::InsertTxn(TableId table, std::vector<Value> values,
                              int64_t cpu_work_cycles) {
  return Autocommit([&](TxnId txn) {
    return Insert(txn, table, std::move(values), cpu_work_cycles);
  });
}

Status Coordinator::UpdateTxn(TableId table, Predicate predicate,
                              std::vector<SetClause> sets) {
  return Autocommit([&](TxnId txn) {
    return Update(txn, table, std::move(predicate), std::move(sets));
  });
}

Status Coordinator::DeleteTxn(TableId table, Predicate predicate) {
  return Autocommit([&](TxnId txn) {
    return Delete(txn, table, std::move(predicate));
  });
}

// ------------------------------------------------------------------ reads

Timestamp Coordinator::StampStableTime() {
  const Timestamp st = authority_->StableTime();
  snapshots_.Learn(st);
  return st;
}

Timestamp Coordinator::SnapshotTime() {
  // Fast path: the piggyback-learned mark, when it already covers our own
  // newest commit (read-your-writes) and is not too far behind the epoch.
  // A never-learned mark (0) must always take the fallback: on a quiescent
  // cluster no commit ever gossips a mark, and with a generous lag setting
  // the fast path would otherwise serve time-zero snapshots forever.
  const Timestamp floor = last_commit_.mark();
  const Timestamp mark = snapshots_.mark();
  if (mark > 0 && mark >= floor &&
      authority_->Now() - mark <=
          static_cast<Timestamp>(options_.snapshot_max_lag_epochs)) {
    return mark;
  }
  Timestamp st = authority_->StableTime();
  if (st < floor) {
    // Our newest commit's epoch is still current, so no stable time covers
    // it yet. Publish a fresh epoch and re-read: sequential callers always
    // see their own commits. (A concurrent in-flight commit in an older
    // epoch can still hold the stable time down — that staleness is the
    // documented semantics of snapshot reads.)
    authority_->Advance();
    st = authority_->StableTime();
  }
  snapshots_.Learn(st);
  return std::max(st, mark);
}

Status Coordinator::ScanCover(const TableDef& def, ScanMsg scan,
                              std::vector<Tuple>* out,
                              std::vector<SiteId>* touched) {
  HARBOR_ASSIGN_OR_RETURN(
      std::vector<RecoveryObject> plan,
      catalog_->PlanCover(def.id, PartitionRange::Full(), kInvalidSiteId,
                          [this](SiteId s) { return liveness_->IsOnline(s); }));
  for (const RecoveryObject& piece : plan) {
    scan.spec.object_id = piece.object_id;
    scan.spec.range = piece.predicate;
    if (touched != nullptr) touched->push_back(piece.site);
    HARBOR_ASSIGN_OR_RETURN(
        Message reply,
        network_->Call(options_.site_id, piece.site, scan.Encode()));
    HARBOR_ASSIGN_OR_RETURN(ScanReplyMsg decoded, ScanReplyMsg::Decode(reply));
    HARBOR_ASSIGN_OR_RETURN(std::vector<size_t> mapping,
                            def.logical_schema.MappingFrom(decoded.schema));
    for (const Tuple& t : decoded.tuples) {
      out->push_back(t.RemapColumns(mapping));
    }
  }
  return Status::OK();
}

Result<std::vector<Tuple>> Coordinator::SnapshotQueryAt(
    TableId table, const Predicate& predicate, Timestamp as_of) {
  HARBOR_ASSIGN_OR_RETURN(const TableDef* def, catalog_->GetTable(table));
  ScanMsg scan;
  scan.spec.mode = ScanMode::kVisible;
  scan.spec.as_of = as_of;
  scan.spec.predicate = predicate;
  scan.snapshot_read = true;
  Status failure = Status::OK();
  // Two planning attempts: a site that crashes or starts recovering between
  // planning and serving answers Unavailable, and the second plan routes
  // around it. Snapshot reads never wait for recovery to finish.
  for (int attempt = 0; attempt < 2; ++attempt) {
    std::vector<Tuple> out;
    failure = ScanCover(*def, scan, &out);
    if (failure.ok()) return out;
    if (!failure.IsUnavailable()) break;
  }
  return failure;
}

Result<std::vector<Tuple>> Coordinator::HistoricalQuery(
    TableId table, const Predicate& predicate, Timestamp as_of) {
  if (as_of > authority_->StableTime()) {
    return Status::InvalidArgument(
        "historical time is not yet stable; use <= StableTime()");
  }
  snapshots_.Learn(as_of);  // the caller-supplied time is provably stable
  return SnapshotQueryAt(table, predicate, as_of);
}

Result<std::vector<Tuple>> Coordinator::Query(TableId table,
                                              const Predicate& predicate,
                                              ReadMode mode) {
  if (mode == ReadMode::kSnapshot) {
    return SnapshotQueryAt(table, predicate, SnapshotTime());
  }
  HARBOR_ASSIGN_OR_RETURN(const TableDef* def, catalog_->GetTable(table));
  HARBOR_ASSIGN_OR_RETURN(TxnId txn, Begin());
  ScanMsg scan;
  scan.spec.mode = ScanMode::kVisible;
  scan.spec.as_of = authority_->Now();
  scan.spec.predicate = predicate;
  scan.owner = txn;
  scan.with_page_locks = true;  // up-to-date reads lock (§3.1)
  std::vector<Tuple> out;
  std::vector<SiteId> touched;
  const Status failure = ScanCover(*def, scan, &out, &touched);
  // Release the read transaction's locks at every touched site (§4.3: "for
  // read transactions, the coordinator merely needs to notify the workers
  // to release any system resources and locks").
  TxnMsg finish;
  finish.type = MsgType::kFinishRead;
  finish.txn = txn;
  finish.stable_ts = StampStableTime();
  Broadcast(touched, finish.Encode());
  EraseTxn(txn);
  if (!failure.ok()) return failure;
  return out;
}

// --------------------------------------------------- coordinator services

Result<Message> Coordinator::Handle(SiteId from, const Message& m) {
  (void)from;
  switch (static_cast<MsgType>(m.type)) {
    case MsgType::kComingOnline: {
      HARBOR_ASSIGN_OR_RETURN(ComingOnlineMsg msg, ComingOnlineMsg::Decode(m));
      return HandleComingOnline(msg);
    }
    case MsgType::kResolveTxn: {
      HARBOR_ASSIGN_OR_RETURN(TxnMsg msg, TxnMsg::Decode(m));
      return HandleResolveTxn(msg);
    }
    default:
      return Status::NotImplemented("coordinator cannot handle type " +
                                    std::to_string(m.type));
  }
}

Result<Message> Coordinator::HandleComingOnline(const ComingOnlineMsg& m) {
  // Exclusive side of the gate: no update can be distributed while we (a)
  // flip the site online and (b) forward the pending queues — this closes
  // the race between forwarded old requests and newly distributed ones
  // (§5.4.2's PENDING set is captured atomically).
  std::unique_lock<std::shared_mutex> gate(online_gate_);
  liveness_->Set(m.site, SiteState::kOnline);

  std::vector<std::shared_ptr<CoordTxn>> pending;
  {
    std::lock_guard<std::mutex> lock(txns_mu_);
    pending.reserve(txns_.size());
    for (const auto& [id, ct] : txns_) pending.push_back(ct);
  }
  for (const std::shared_ptr<CoordTxn>& ct : pending) {
    std::lock_guard<std::mutex> lock(ct->mu);
    // A transaction that committed or aborted while we snapshotted must not
    // be forwarded: its outcome already happened without S, and forwarding
    // would leave orphaned uncommitted state (and locks) at S.
    if (ct->finished) continue;
    bool joined = false;
    for (const UpdateRequest& req : ct->queue) {
      // Relevance test: does the request touch any recovered object?
      bool relevant = false;
      for (const auto& [table, partition] : m.objects) {
        if (req.table_id == table) {
          relevant = true;
          (void)partition;  // worker-side objects filter rows by partition
          break;
        }
      }
      if (!relevant) continue;
      ExecUpdateMsg fwd;
      fwd.txn = ct->id;
      fwd.coordinator = options_.site_id;
      fwd.request = req;
      auto r = network_->Call(options_.site_id, m.site, fwd.Encode());
      if (!r.ok()) return r.status();
      joined = true;
    }
    if (joined && std::find(ct->workers.begin(), ct->workers.end(), m.site) ==
                      ct->workers.end()) {
      ct->workers.push_back(m.site);
    }
  }
  // Reply doubles as the "all done" message of Figure 5-4.
  return AckMessage();
}

Result<Message> Coordinator::HandleResolveTxn(const TxnMsg& m) {
  ResolveReply reply;
  {
    std::lock_guard<std::mutex> lock(unresolved_mu_);
    auto it = unresolved_.find(m.txn);
    if (it != unresolved_.end()) {
      reply.known = true;
      reply.committed = it->second.first;
      reply.commit_ts = it->second.second;
      return reply.Encode();
    }
  }
  // Presumed abort: no durable information means the transaction did not
  // commit (§4.3.2).
  return reply.Encode();
}

}  // namespace harbor
