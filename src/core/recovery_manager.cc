#include "core/recovery_manager.h"

#include <algorithm>
#include <string>
#include <thread>
#include <unordered_map>

#include "common/clock.h"
#include "core/messages.h"
#include "runtime/scheduler.h"
#include "exec/seq_scan.h"
#include "fault/fault_injector.h"
#include "obs/observer.h"

namespace harbor {

RecoveryManager::RecoveryManager(Worker* worker, RecoveryOptions options)
    : worker_(worker), options_(std::move(options)) {}

bool RecoveryManager::BuddyUsable(SiteId site) const {
  // Only a fully online site may serve as a recovery buddy: a site that is
  // itself recovering holds incomplete replicas (its phase-2 copies are
  // still in flight) and must never be read from, even though its endpoint
  // answers (§5.5.2). This is deliberately Get() == kOnline, not "not
  // down" — kRecovering is excluded.
  return site != worker_->site_id() &&
         worker_->liveness()->Get(site) == SiteState::kOnline;
}

Status RecoveryManager::AnnotateUnavailable(const ObjectPlan& plan,
                                            Status st) const {
  if (st.ok() || !st.IsUnavailable()) return st;
  // Every replica of this object is gone (> K failures): name the object so
  // the error surfaced after the bounded retry loop says what is stuck.
  return Status::Unavailable(
      "recovery of object " + std::to_string(plan.obj->object_id) +
      " (table " + std::to_string(plan.obj->table_id) +
      "): " + st.message());
}

Status RecoveryManager::ComputeCover(ObjectPlan* plan) {
  auto cover = worker_->global_catalog()->PlanCover(
      plan->obj->table_id, plan->obj->partition, worker_->site_id(),
      [this](SiteId s) { return BuddyUsable(s); });
  if (!cover.ok()) return AnnotateUnavailable(*plan, cover.status());
  plan->cover = std::move(*cover);
  return Status::OK();
}

// ------------------------------------------------------------- Phase 1

Status RecoveryManager::RunPhase1(ObjectPlan* plan) {
  HARBOR_FAULT_POINT("recovery.phase1.begin", worker_->site_id());
  Stopwatch watch;
  VersionStore* store = worker_->store();
  TableObject* obj = plan->obj;

  // DELETE LOCALLY FROM rec SEE DELETED
  //   WHERE insertion_time > T_checkpoint OR insertion_time = uncommitted
  // (the uncommitted sentinel is numerically > any checkpoint, §5.2) —
  // EXCEPT versions claimed by a durable mid-stream watermark: each
  // watermark promises that, within its stream's insertion-time window,
  // every version key at or below its (insertion_ts, tuple_id) cursor was
  // applied and flushed before the previous attempt died, so the resumed
  // stream will not re-ship them. Keys at the cursor timestamp but past the
  // cursor tuple id belong to later, possibly-unflushed chunks and must go.
  const auto covered = [plan](Timestamp ts, TupleId tid) {
    for (const StreamResume& r : plan->resume) {
      // Window (window_lo, window_hi]; 0 bounds mean unbounded (legacy V2
      // watermarks cover the whole round range). Windows are disjoint, so
      // the first containing window decides.
      if (r.window_lo != 0 && ts <= r.window_lo) continue;
      if (r.window_hi != 0 && ts > r.window_hi) continue;
      return ts < r.insertion_ts ||
             (ts == r.insertion_ts && tid <= r.tuple_id);
    }
    return false;
  };
  {
    ScanSpec spec;
    spec.object_id = obj->object_id;
    spec.mode = ScanMode::kSeeDeleted;
    spec.has_insertion_after = true;
    spec.insertion_after = plan->checkpoint;
    SeqScanOperator scan(store, obj, std::move(spec));
    HARBOR_ASSIGN_OR_RETURN(std::vector<VersionKey> victims, scan.ScanKeys());
    for (const VersionKey& k : victims) {
      if (covered(k.insertion_ts, k.tuple_id)) continue;
      HARBOR_RETURN_NOT_OK(store->PhysicalDelete(obj, k.rid));
      plan->stats.phase1_removed++;
    }
  }

  // UPDATE LOCALLY rec SET deletion_time = 0 SEE DELETED
  //   WHERE deletion_time > T_checkpoint
  {
    ScanSpec spec;
    spec.object_id = obj->object_id;
    spec.mode = ScanMode::kSeeDeleted;
    spec.has_deletion_after = true;
    spec.deletion_after = plan->checkpoint;
    SeqScanOperator scan(store, obj, std::move(spec));
    HARBOR_ASSIGN_OR_RETURN(std::vector<VersionKey> deleted, scan.ScanKeys());
    for (const VersionKey& k : deleted) {
      HARBOR_RETURN_NOT_OK(store->SetDeletionTs(obj, k.rid, kNotDeleted));
    }
    plan->stats.phase1_undeleted = deleted.size();
  }

  plan->stats.phase1_seconds = watch.ElapsedSeconds();
  if (obs::Enabled()) {
    const SiteId self = worker_->site_id();
    obs::Observe(self, obs::HistogramId::kRecoveryPhase1Ns,
                 watch.ElapsedNanos());
    obs::Count(self, obs::CounterId::kRecoveryPhase1Removed,
               static_cast<int64_t>(plan->stats.phase1_removed));
    obs::Count(self, obs::CounterId::kRecoveryPhase1Undeleted,
               static_cast<int64_t>(plan->stats.phase1_undeleted));
    obs::Trace(self, "recovery.phase1.done", 0,
               static_cast<int64_t>(obj->object_id),
               static_cast<int64_t>(plan->stats.phase1_removed +
                                    plan->stats.phase1_undeleted));
  }
  return Status::OK();
}

// ------------------------------------------------------------- Phase 2

Status StreamScan(Network* net, SiteId self, SiteId buddy, ScanMsg msg,
                  size_t chunk_tuples,
                  const std::function<Status(ScanReplyMsg&)>& apply) {
  msg.max_tuples = static_cast<uint32_t>(chunk_tuples);
  if (msg.max_tuples == 0) {
    HARBOR_ASSIGN_OR_RETURN(Message reply,
                            net->Call(self, buddy, msg.Encode()));
    if (obs::Enabled()) {
      obs::Observe(self, obs::HistogramId::kRecoveryChunkBytes,
                   reply.WireBytes());
    }
    HARBOR_ASSIGN_OR_RETURN(ScanReplyMsg decoded, ScanReplyMsg::Decode(reply));
    return apply(decoded);
  }
  // Double-buffered pipeline: while chunk N applies locally, chunk N+1 is
  // already on the wire. Each reply carries the next cursor, so the fetch
  // for N+1 can be issued before N is consumed.
  std::shared_ptr<Network::Replies> inflight =
      net->CallAsync(self, buddy, msg.Encode());
  bool first = true;
  while (true) {
    const int64_t wait_start = obs::Enabled() ? NowNanos() : 0;
    Result<Message> raw = inflight->get();
    if (obs::Enabled() && !first) {
      // Fetch wait not hidden behind the previous chunk's apply — 0 when
      // the pipeline fully overlaps transfer with apply.
      obs::Observe(self, obs::HistogramId::kRecoveryChunkStallNs,
                   NowNanos() - wait_start);
    }
    first = false;
    HARBOR_RETURN_NOT_OK(raw.status());
    const int64_t wire_bytes = raw->WireBytes();
    HARBOR_ASSIGN_OR_RETURN(ScanReplyMsg decoded, ScanReplyMsg::Decode(*raw));
    if (decoded.truncated) {
      msg.has_cursor = true;
      msg.cursor_insertion_ts = decoded.last_insertion_ts;
      msg.cursor_tuple_id = decoded.last_tuple_id;
      // Echo the serving site's pinned insertion-time cap so the stream
      // stays bounded to tuples that existed when it began.
      if (decoded.cap_insertion_ts > 0) {
        msg.cap_insertion_ts = decoded.cap_insertion_ts;
      }
      inflight = net->CallAsync(self, buddy, msg.Encode());
    }
    if (obs::Enabled()) {
      obs::Count(self, obs::CounterId::kRecoveryChunks);
      obs::Observe(self, obs::HistogramId::kRecoveryChunkBytes, wire_bytes);
      Stopwatch apply_watch;
      HARBOR_RETURN_NOT_OK(apply(decoded));
      obs::Observe(self, obs::HistogramId::kRecoveryChunkApplyNs,
                   apply_watch.ElapsedNanos());
    } else {
      HARBOR_RETURN_NOT_OK(apply(decoded));
    }
    if (!decoded.truncated) return Status::OK();
  }
}

Status RecoveryManager::StreamScan(
    const RecoveryObject& piece, ScanMsg msg,
    const std::function<Status(ScanReplyMsg&)>& apply) {
  return harbor::StreamScan(worker_->network(), worker_->site_id(), piece.site,
                            std::move(msg), options_.stream_chunk_tuples,
                            apply);
}

Status RecoveryManager::ApplyRemoteDeletions(
    ObjectPlan* plan, const RecoveryObject& piece, Timestamp ins_after,
    Timestamp ins_at_or_before, Timestamp del_after, Timestamp hwm,
    bool historical, size_t* copied, bool* retriable) {
  // SELECT REMOTELY tuple_id, deletion_time FROM recovery_object
  //   SEE DELETED [HISTORICAL WITH TIME hwm]
  //   WHERE recovery_predicate AND insertion_time <= ins_bound
  //     [AND insertion_time > ins_after] AND deletion_time > from
  // The insertion bounds restrict the pass to tuples Phase 1 *kept* — the
  // base below the checkpoint and, on a resumed stream, the already-copied
  // prefix of its window — whose post-checkpoint deletions Phase 1 undid.
  // Tuples the insertion streams (re-)ship arrive with deletion state
  // included and need no pass.
  ScanMsg scan;
  scan.spec.object_id = piece.object_id;
  scan.spec.mode = historical ? ScanMode::kSeeDeletedHistorical
                              : ScanMode::kSeeDeleted;
  scan.spec.as_of = hwm;
  if (ins_after > 0) {
    scan.spec.has_insertion_after = true;
    scan.spec.insertion_after = ins_after;
  }
  scan.spec.has_insertion_at_or_before = true;
  scan.spec.insertion_at_or_before = ins_at_or_before;
  scan.spec.has_deletion_after = true;
  scan.spec.deletion_after = del_after;
  scan.spec.range = piece.predicate;
  scan.minimal_projection = true;
  VersionStore* store = worker_->store();
  TableObject* obj = plan->obj;
  Status apply_status;
  Status st = StreamScan(piece, std::move(scan), [&](ScanReplyMsg& decoded) {
    apply_status = [&]() -> Status {
      if (decoded.id_deletions.empty()) return Status::OK();
      // UPDATE LOCALLY rec SET deletion_time = del_time
      //   WHERE tuple_id = tup_id AND deletion_time = 0
      // The matching local version shares the remote version's insertion
      // time, so the header-only key scan below prunes to the segments whose
      // insertion range covers the shipped timestamps — the local side of
      // recovery pays per *affected historical segment*, exactly like the
      // remote side (§6.4.2) — and stamps the matches in place.
      // Skipping already-deleted versions also makes the pass idempotent, so
      // a failed-over stream can simply re-run it.
      std::unordered_map<TupleId, Timestamp> wanted;
      Timestamp lo = decoded.id_deletions.front().insertion_ts;
      Timestamp hi = lo;
      for (const IdDeletion& d : decoded.id_deletions) {
        wanted.emplace(d.tuple_id, d.deletion_ts);
        lo = std::min(lo, d.insertion_ts);
        hi = std::max(hi, d.insertion_ts);
      }
      ScanSpec local;
      local.object_id = obj->object_id;
      local.mode = ScanMode::kSeeDeleted;
      if (lo > 0) {
        // lo == 0 must NOT set insertion_after = lo - 1: the uint64 wraps to
        // UINT64_MAX and the scan silently matches nothing, dropping every
        // shipped deletion.
        local.has_insertion_after = true;
        local.insertion_after = lo - 1;
      }
      local.has_insertion_at_or_before = true;
      local.insertion_at_or_before = hi;
      SeqScanOperator local_scan(store, obj, std::move(local));
      HARBOR_ASSIGN_OR_RETURN(std::vector<VersionKey> candidates,
                              local_scan.ScanKeys());
      for (const VersionKey& k : candidates) {
        if (k.deletion_ts != kNotDeleted) continue;  // older version
        auto it = wanted.find(k.tuple_id);
        if (it == wanted.end()) continue;
        HARBOR_RETURN_NOT_OK(store->SetDeletionTs(obj, k.rid, it->second));
        (*copied)++;
      }
      return Status::OK();
    }();
    return apply_status;
  });
  if (retriable != nullptr) {
    // Only an abruptly-closed-socket failure (kUnavailable, §5.5.1) is safe
    // to fail over — whether it surfaced on the wire or out of the apply
    // callback before any row of the chunk landed. Any other apply error
    // would repeat identically against every replica.
    *retriable = !st.ok() && st.IsUnavailable() &&
                 (apply_status.ok() || apply_status.IsUnavailable());
  }
  return st;
}

Status RecoveryManager::CopyRemoteInsertions(
    ObjectPlan* plan, const RecoveryObject& piece, const StreamWindow& window,
    Timestamp hwm, bool historical, bool durable_watermarks,
    StreamCursor* cursor, Timestamp* cap, size_t* copied, bool* retriable) {
  // INSERT LOCALLY INTO rec
  //   (SELECT REMOTELY * FROM recovery_object SEE DELETED
  //      [HISTORICAL WITH TIME hwm]
  //      WHERE recovery_predicate AND insertion_time > window.lo
  //        [AND insertion_time <= window.hi]
  //        [AND insertion_time != uncommitted])
  ScanMsg scan;
  scan.spec.object_id = piece.object_id;
  scan.spec.mode = historical ? ScanMode::kSeeDeletedHistorical
                              : ScanMode::kSeeDeleted;
  scan.spec.as_of = hwm;
  scan.spec.has_insertion_after = true;
  scan.spec.insertion_after = window.lo;
  if (window.hi != 0 && window.hi < hwm) {
    // An interior window carries its own upper bound; the top window (and
    // the legacy single stream) stays unbounded and rides the buddy-pinned
    // cap instead.
    scan.spec.has_insertion_at_or_before = true;
    scan.spec.insertion_at_or_before = window.hi;
  }
  scan.spec.exclude_uncommitted = !historical;  // §5.4.1's extra check
  scan.spec.range = piece.predicate;
  const SiteId self = worker_->site_id();
  if (cursor != nullptr && cursor->has_value()) {
    // Resume the stream strictly past the cursor — the durable watermark of
    // a previous attempt, or the in-memory position of a failed-over
    // stream; everything at or below it is already applied.
    scan.has_cursor = true;
    scan.cursor_insertion_ts = (*cursor)->first;
    scan.cursor_tuple_id = (*cursor)->second;
    obs::Count(self, obs::CounterId::kRecoveryStreamResumes);
    obs::Trace(self, "recovery.stream.resume", 0,
               static_cast<int64_t>(plan->obj->object_id),
               static_cast<int64_t>((*cursor)->first));
  }
  if (cap != nullptr && *cap > 0) {
    // Carry the original buddy's pinned insertion cap across failover so
    // the stream stays bounded to the same logical tuple set.
    scan.cap_insertion_ts = *cap;
  }
  VersionStore* store = worker_->store();
  TableObject* obj = plan->obj;
  int chunks_since_mark = 0;
  Status apply_status;
  Status st = StreamScan(piece, std::move(scan), [&](ScanReplyMsg& decoded) {
    apply_status = [&]() -> Status {
      // Replicas may store columns in different orders; copy by name (§3.1).
      HARBOR_ASSIGN_OR_RETURN(std::vector<size_t> mapping,
                              obj->schema.MappingFrom(decoded.schema));
      if (durable_watermarks) {
        HARBOR_FAULT_POINT("recovery.phase2.chunk", self);
      }
      // Concurrent same-object streams apply without mutual exclusion: the
      // batch insert skips pages a competitor fills first, and the index,
      // segment headers, and checkpoint file all lock internally.
      // Serializing here would put the whole round on one core and cap the
      // multi-buddy speedup at the single-stream apply rate.
      std::vector<Tuple> remapped;
      remapped.reserve(decoded.tuples.size());
      for (const Tuple& t : decoded.tuples) {
        remapped.push_back(t.RemapColumns(mapping));
      }
      HARBOR_RETURN_NOT_OK(store->InsertCommittedTuples(obj, remapped,
                                                        copied));
      if (durable_watermarks && decoded.truncated && !decoded.tuples.empty() &&
          options_.watermark_interval_chunks > 0 &&
          ++chunks_since_mark >= options_.watermark_interval_chunks) {
        chunks_since_mark = 0;
        // Durability order: the copied pages must be on disk before the
        // watermark that claims them — the chunk-granularity version of
        // §5.3's checkpoint rule. The watermark names its stream and window
        // so a later attempt reconstructs the round's full layout.
        HARBOR_RETURN_NOT_OK(worker_->pool()->FlushAll());
        HARBOR_RETURN_NOT_OK(obj->file->SyncHeaderIfDirty());
        const StreamResume mark{hwm,
                                decoded.last_insertion_ts,
                                decoded.last_tuple_id,
                                window.stream_index,
                                window.lo,
                                window.hi};
        HARBOR_RETURN_NOT_OK(
            worker_->WriteObjectResume(obj->object_id, mark));
      }
      if (cursor != nullptr && decoded.truncated) {
        *cursor = std::make_pair(decoded.last_insertion_ts,
                                 decoded.last_tuple_id);
      }
      if (cap != nullptr && decoded.cap_insertion_ts > 0) {
        *cap = decoded.cap_insertion_ts;
      }
      return Status::OK();
    }();
    return apply_status;
  });
  if (retriable != nullptr) {
    // Same rule as the deletion pass: kUnavailable (wire, or the fault
    // point at the head of the apply callback — the cursor has not moved
    // for the failed chunk) fails over; other apply errors are fatal.
    *retriable = !st.ok() && st.IsUnavailable() &&
                 (apply_status.ok() || apply_status.IsUnavailable());
  }
  return st;
}

Status RecoveryManager::DiscardResume(ObjectPlan* plan) {
  // The watermarks name positions in full-replica streams; a partitioned
  // cover interleaves the pieces' key ranges and the cursors are
  // meaningless. Wipe everything past the object checkpoint (including the
  // prefixes Phase 1 kept on the watermarks' promise) and restart the round
  // cleanly from the object checkpoint.
  VersionStore* store = worker_->store();
  TableObject* obj = plan->obj;
  ScanSpec spec;
  spec.object_id = obj->object_id;
  spec.mode = ScanMode::kSeeDeleted;
  spec.has_insertion_after = true;
  spec.insertion_after = plan->checkpoint;
  SeqScanOperator scan(store, obj, std::move(spec));
  HARBOR_ASSIGN_OR_RETURN(std::vector<VersionKey> victims, scan.ScanKeys());
  for (const VersionKey& k : victims) {
    HARBOR_RETURN_NOT_OK(store->PhysicalDelete(obj, k.rid));
  }
  plan->resume.clear();
  // Re-recording the unchanged checkpoint durably drops the resume entries.
  return worker_->WriteObjectCheckpoint(obj->object_id, plan->checkpoint);
}

std::vector<RecoveryManager::StreamWindow> RecoveryManager::PlanWindows(
    const ObjectPlan& plan, Timestamp hwm, size_t max_streams) const {
  const Timestamp from = plan.checkpoint;
  std::vector<StreamWindow> windows;
  if (!plan.resume.empty()) {
    // Rebuild the interrupted round's layout from the stored watermarks,
    // then cover any uncovered gaps of (from, hwm] with fresh windows.
    // Stored watermarks keep their stream indexes (their durable entries
    // are overwritten in place as the streams advance); gap windows take
    // fresh indexes past every stored one so they can never clobber a
    // stale entry.
    uint32_t next_index = 0;
    for (const StreamResume& r : plan.resume) {
      StreamWindow w;
      w.stream_index = r.stream_index;
      w.lo = std::max(from, r.window_lo);
      w.hi = (r.window_hi == 0 || r.window_hi > hwm) ? hwm : r.window_hi;
      if (w.hi <= w.lo) continue;  // stale entry below the checkpoint
      w.resume = r;
      windows.push_back(std::move(w));
      next_index = std::max(next_index, r.stream_index + 1);
    }
    std::vector<StreamWindow> sorted = windows;
    std::sort(sorted.begin(), sorted.end(),
              [](const StreamWindow& a, const StreamWindow& b) {
                return a.lo < b.lo;
              });
    Timestamp pos = from;
    for (const StreamWindow& w : sorted) {
      if (w.lo > pos) {
        StreamWindow gap;
        gap.stream_index = next_index++;
        gap.lo = pos;
        gap.hi = w.lo;
        windows.push_back(std::move(gap));
      }
      pos = std::max(pos, w.hi);
    }
    if (pos < hwm) {
      StreamWindow gap;
      gap.stream_index = next_index++;
      gap.lo = pos;
      gap.hi = hwm;
      windows.push_back(std::move(gap));
    }
    return windows;
  }
  // Fresh round: split (from, hwm] into n roughly-equal insertion-time
  // windows, never more than the range has distinct timestamps.
  const Timestamp span = hwm - from;
  size_t n = max_streams;
  if (static_cast<Timestamp>(n) > span) n = static_cast<size_t>(span);
  if (n == 0) n = 1;
  windows.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    StreamWindow w;
    w.stream_index = static_cast<uint32_t>(i);
    w.lo = from + span * i / n;
    w.hi = from + span * (i + 1) / n;
    windows.push_back(std::move(w));
  }
  return windows;
}

Status RecoveryManager::RunStream(ObjectPlan* plan,
                                  const std::vector<RecoveryObject>& pool,
                                  const StreamWindow& window, Timestamp hwm,
                                  std::mutex* stats_mu) {
  const SiteId self = worker_->site_id();
  obs::Count(self, obs::CounterId::kRecoveryStreamsStarted);
  Stopwatch stream_watch;
  StreamCursor cursor;
  if (window.resume.has_value()) {
    cursor = std::make_pair(window.resume->insertion_ts,
                            window.resume->tuple_id);
  }
  Timestamp cap = 0;
  // Stream 0 owns the deletion pass for the base (ins <= checkpoint); a
  // resumed window additionally owns the pass over its already-kept prefix.
  // Fresh windows past stream 0 need none: their insertions arrive with
  // deletion state included.
  bool need_deletions = window.stream_index == 0 || window.resume.has_value();
  size_t del_copied = 0;
  size_t ins_copied = 0;
  double del_seconds = 0;
  double ins_seconds = 0;
  bool attempted = false;
  Status last = AnnotateUnavailable(
      *plan, Status::Unavailable("no usable replica left to stream from"));
  for (size_t b = 0; b < pool.size(); ++b) {
    const RecoveryObject& piece = pool[(window.stream_index + b) % pool.size()];
    // Re-checked per candidate: a buddy that died — or started recovering
    // itself — after the pool was computed must not serve (§5.5.2).
    if (!BuddyUsable(piece.site)) continue;
    if (attempted) {
      obs::Count(self, obs::CounterId::kRecoveryStreamFailovers);
      obs::Trace(self, "recovery.stream.failover", 0,
                 static_cast<int64_t>(plan->obj->object_id),
                 static_cast<int64_t>(piece.site));
    }
    attempted = true;
    Status st;
    bool retriable = false;
    if (need_deletions) {
      Stopwatch del_watch;
      const Timestamp ins_after = window.stream_index == 0 ? 0 : window.lo;
      const Timestamp ins_hi = cursor.has_value() ? cursor->first : window.lo;
      st = ApplyRemoteDeletions(plan, piece, ins_after, ins_hi,
                                plan->checkpoint, hwm, /*historical=*/true,
                                &del_copied, &retriable);
      del_seconds += del_watch.ElapsedSeconds();
      if (st.ok()) need_deletions = false;
    }
    if (st.ok()) {
      Stopwatch ins_watch;
      st = CopyRemoteInsertions(plan, piece, window, hwm, /*historical=*/true,
                                /*durable_watermarks=*/true, &cursor, &cap,
                                &ins_copied, &retriable);
      ins_seconds += ins_watch.ElapsedSeconds();
    }
    last = st;
    if (st.ok()) break;
    // Only a buddy lost from the wire fails over — at the in-memory cursor,
    // on the next usable replica. Local apply errors abort the attempt.
    if (!retriable) break;
  }
  {
    std::unique_lock<std::mutex> lock;
    if (stats_mu != nullptr) lock = std::unique_lock<std::mutex>(*stats_mu);
    plan->stats.phase2_deletions_copied += del_copied;
    plan->stats.phase2_tuples_copied += ins_copied;
    plan->stats.phase2_delete_seconds += del_seconds;
    plan->stats.phase2_insert_seconds += ins_seconds;
  }
  if (last.ok() && obs::Enabled()) {
    obs::Observe(self, obs::HistogramId::kRecoveryStreamNs,
                 stream_watch.ElapsedNanos());
  }
  return last;
}

Status RecoveryManager::RunPhase2Round(ObjectPlan* plan, Timestamp hwm) {
  const Timestamp from = plan->checkpoint;
  if (plan->cover.size() > 1) {
    // Partitioned cover: one serial stream per piece. Cursors and durable
    // watermarks are meaningless across interleaved key ranges (the caller
    // discarded any), and the pieces' replicas are not interchangeable, so
    // neither window-splitting nor failover applies.
    for (const RecoveryObject& piece : plan->cover) {
      Stopwatch del_watch;
      HARBOR_RETURN_NOT_OK(ApplyRemoteDeletions(
          plan, piece, /*ins_after=*/0, from, from, hwm, /*historical=*/true,
          &plan->stats.phase2_deletions_copied, /*retriable=*/nullptr));
      plan->stats.phase2_delete_seconds += del_watch.ElapsedSeconds();

      Stopwatch ins_watch;
      StreamWindow window;
      window.lo = from;  // hi stays 0: unbounded, the buddy pins the cap
      HARBOR_RETURN_NOT_OK(CopyRemoteInsertions(
          plan, piece, window, hwm, /*historical=*/true,
          /*durable_watermarks=*/false, /*cursor=*/nullptr, /*cap=*/nullptr,
          &plan->stats.phase2_tuples_copied, /*retriable=*/nullptr));
      plan->stats.phase2_insert_seconds += ins_watch.ElapsedSeconds();
    }
    return Status::OK();
  }

  // Full-replica cover: split (from, hwm] into disjoint insertion-time
  // windows and stream each from a different buddy concurrently, each with
  // its own durable watermark. The pool is every usable full replica, in
  // PlanCover's rotation order so concurrent recoveries spread load.
  auto pool_r = worker_->global_catalog()->ReplicasCovering(
      plan->obj->table_id, plan->obj->partition, worker_->site_id(),
      [this](SiteId s) { return BuddyUsable(s); });
  if (!pool_r.ok()) return AnnotateUnavailable(*plan, pool_r.status());
  const std::vector<RecoveryObject>& pool = *pool_r;
  const size_t max_streams = std::min<size_t>(
      static_cast<size_t>(std::max(options_.max_parallel_streams, 1)),
      pool.size());
  const std::vector<StreamWindow> windows = PlanWindows(*plan, hwm,
                                                        max_streams);
  if (windows.size() == 1) {
    return RunStream(plan, pool, windows[0], hwm, /*stats_mu=*/nullptr);
  }
  std::mutex stats_mu;
  std::vector<std::function<Status()>> streams;
  streams.reserve(windows.size());
  for (size_t i = 0; i < windows.size(); ++i) {
    streams.push_back([&, i] {
      return RunStream(plan, pool, windows[i], hwm, &stats_mu);
    });
  }
  for (const Status& s :
       runtime::RunParallel(worker_->scheduler(), std::move(streams))) {
    HARBOR_RETURN_NOT_OK(s);
  }
  return Status::OK();
}

Status RecoveryManager::RunPhase2(ObjectPlan* plan) {
  TimestampAuthority* authority = worker_->authority();
  Stopwatch watch;
  int rounds_run = 0;
  for (int round = 0; round < options_.max_phase2_rounds; ++round) {
    HARBOR_FAULT_POINT("recovery.phase2.round", worker_->site_id());
    // A resumed round must replay against the interrupted round's snapshot:
    // a fresh (later) HWM would skip deletions of already-watermarked
    // tuples that committed between the two snapshots. Every stream of a
    // round shares the round HWM, so any entry names it.
    const bool resuming = !plan->resume.empty();
    const Timestamp hwm =
        resuming ? plan->resume.front().round_hwm : authority->StableTime();
    obs::Trace(worker_->site_id(), "recovery.phase2.round", 0, round + 1,
               static_cast<int64_t>(hwm));
    if (hwm <= plan->checkpoint && !resuming) {
      // Nothing committed past the object checkpoint: no work to copy and
      // nothing new to make durable, so skip the FlushAll + forced
      // checkpoint write a no-progress round used to pay.
      break;
    }
    HARBOR_RETURN_NOT_OK(ComputeCover(plan));
    if (resuming && plan->cover.size() != 1) {
      HARBOR_RETURN_NOT_OK(DiscardResume(plan));
      --round;  // the wiped round was not an attempt at this HWM
      continue;
    }
    HARBOR_RETURN_NOT_OK(RunPhase2Round(plan, hwm));
    plan->stats.phase2_rounds = ++rounds_run;
    plan->hwm = hwm;
    plan->resume.clear();  // the round completed; the checkpoint write
                           // below also clears the durable resume entries
    // rec is now consistent up to the HWM: flush and record an
    // object-granularity checkpoint so a crash during recovery resumes
    // from here (§5.3).
    HARBOR_RETURN_NOT_OK(worker_->pool()->FlushAll());
    HARBOR_RETURN_NOT_OK(plan->obj->file->SyncHeaderIfDirty());
    HARBOR_RETURN_NOT_OK(
        worker_->WriteObjectCheckpoint(plan->obj->object_id, hwm));
    HARBOR_FAULT_POINT("recovery.phase2.after_checkpoint",
                       worker_->site_id());
    plan->checkpoint = hwm;
    // Stop iterating once we are close enough to the present for Phase 3's
    // locked queries to be cheap.
    if (authority->StableTime() - hwm <= options_.phase2_lag_threshold) break;
  }
  plan->stats.phase2_seconds = watch.ElapsedSeconds();
  plan->stats.hwm = plan->hwm;
  if (obs::Enabled()) {
    const SiteId self = worker_->site_id();
    obs::Observe(self, obs::HistogramId::kRecoveryPhase2Ns,
                 watch.ElapsedNanos());
    obs::Count(self, obs::CounterId::kRecoveryPhase2Tuples,
               static_cast<int64_t>(plan->stats.phase2_tuples_copied));
    obs::Count(self, obs::CounterId::kRecoveryPhase2Deletions,
               static_cast<int64_t>(plan->stats.phase2_deletions_copied));
    obs::SetGauge(self, obs::GaugeId::kRecoveryPhase2Rounds,
                  plan->stats.phase2_rounds);
    obs::Trace(self, "recovery.phase2.done", 0,
               static_cast<int64_t>(plan->obj->object_id),
               static_cast<int64_t>(plan->hwm));
  }
  return Status::OK();
}

// ------------------------------------------------------------- Phase 3

Status RecoveryManager::RunPhase3(std::vector<ObjectPlan>* plans,
                                  double* out_seconds) {
  Stopwatch watch;
  Network* net = worker_->network();
  const SiteId self = worker_->site_id();
  obs::Trace(self, "recovery.phase3.begin", 0,
             static_cast<int64_t>(plans->size()));

  // Fresh covers (liveness may have changed since Phase 2).
  for (ObjectPlan& plan : *plans) {
    HARBOR_RETURN_NOT_OK(ComputeCover(&plan));
  }

  // Test hook: a buddy dying exactly between cover computation and lock
  // acquisition must be survivable *within this attempt* — the retry loop
  // below recomputes covers. The injected status is deliberately dropped
  // (a propagated error would restart the whole attempt and mask whether
  // the loop itself recovers).
  if (fault::FaultInjector* fi = fault::FaultInjector::Current()) {
    (void)fi->OnPoint("recovery.phase3.cover_computed", self,
                      fault::CrashMode::kSync);
  }

  // Acquire a read lock on EVERY recovery object at once (§5.4.1), in a
  // global order to avoid deadlocks between concurrently recovering sites;
  // retry until all are granted. A failed Call may mean the buddy died, so
  // each retry recomputes the covers against current liveness and rebuilds
  // the lock list — retrying the same dead site forever cannot succeed —
  // and backs off exponentially to let lock contention drain.
  auto build_locks = [plans] {
    std::vector<std::pair<SiteId, ObjectId>> locks;
    for (const ObjectPlan& plan : *plans) {
      for (const RecoveryObject& piece : plan.cover) {
        locks.emplace_back(piece.site, piece.object_id);
      }
    }
    std::sort(locks.begin(), locks.end());
    locks.erase(std::unique(locks.begin(), locks.end()), locks.end());
    return locks;
  };
  std::vector<std::pair<SiteId, ObjectId>> locks = build_locks();

  Status acquired = Status::OK();
  int64_t backoff_ms = 1;
  constexpr int kMaxLockAttempts = 12;
  for (int attempt = 0; attempt < kMaxLockAttempts; ++attempt) {
    if (attempt > 0) {
      runtime::ScopedBlocking block;
      std::this_thread::sleep_for(std::chrono::milliseconds(backoff_ms));
      backoff_ms = std::min<int64_t>(backoff_ms * 2, 100);
      for (ObjectPlan& plan : *plans) {
        HARBOR_RETURN_NOT_OK(ComputeCover(&plan));
      }
      locks = build_locks();
    }
    acquired = Status::OK();
    std::vector<std::pair<SiteId, ObjectId>> held;
    for (const auto& [site, object] : locks) {
      TableLockMsg msg;
      msg.type = MsgType::kTableLock;
      msg.object_id = object;
      msg.owner_site = self;
      auto r = net->Call(self, site, msg.Encode());
      if (!r.ok()) {
        acquired = r.status();
        break;
      }
      held.emplace_back(site, object);
    }
    if (acquired.ok()) break;
    for (const auto& [site, object] : held) {
      TableLockMsg msg;
      msg.type = MsgType::kTableUnlock;
      msg.object_id = object;
      msg.owner_site = self;
      (void)net->Call(self, site, msg.Encode());
    }
  }
  HARBOR_RETURN_NOT_OK(acquired);

  // A recovering site dying while it holds its buddies' table read locks is
  // §5.5.1's hard case: this point deliberately returns WITHOUT the unlock
  // loop below (crash action only) — the buddies' crash subscribers must
  // release the orphaned recovery locks.
  HARBOR_FAULT_POINT("recovery.phase3.locks_held", self);

  // With the locks held no pending update transaction touching these
  // objects can commit; copy the final delta with ordinary (non-historical)
  // SEE DELETED queries (§5.4.1). The deltas stream in bounded chunks like
  // Phase 2 — in parallel across objects, since the locks are already held
  // on every piece — but with no durable watermark and no failover: the
  // locks bind this attempt to these specific replicas, so a failure here
  // restarts the attempt, and Phase 1 removes any partial Phase-3 copies
  // (they sit past the object checkpoint).
  auto copy_final_delta = [this](ObjectPlan* plan) -> Status {
    for (const RecoveryObject& piece : plan->cover) {
      HARBOR_RETURN_NOT_OK(ApplyRemoteDeletions(
          plan, piece, /*ins_after=*/0, plan->hwm, plan->hwm, /*hwm=*/0,
          /*historical=*/false, &plan->stats.phase3_deletions_copied,
          /*retriable=*/nullptr));
      StreamWindow window;
      window.lo = plan->hwm;  // hi stays 0: unbounded, the buddy pins a cap
      HARBOR_RETURN_NOT_OK(CopyRemoteInsertions(
          plan, piece, window, /*hwm=*/0, /*historical=*/false,
          /*durable_watermarks=*/false, /*cursor=*/nullptr, /*cap=*/nullptr,
          &plan->stats.phase3_tuples_copied, /*retriable=*/nullptr));
    }
    return Status::OK();
  };
  Status st = Status::OK();
  if (options_.parallel && plans->size() > 1) {
    std::vector<std::function<Status()>> jobs;
    jobs.reserve(plans->size());
    for (size_t i = 0; i < plans->size(); ++i) {
      jobs.push_back([&, i] { return copy_final_delta(&(*plans)[i]); });
    }
    for (const Status& s :
         runtime::RunParallel(worker_->scheduler(), std::move(jobs))) {
      if (!s.ok()) {
        st = s;
        break;
      }
    }
  } else {
    for (ObjectPlan& plan : *plans) {
      st = copy_final_delta(&plan);
      if (!st.ok()) break;
    }
  }

  Timestamp checkpoint_time = worker_->authority()->Now() - 1;
  if (st.ok()) {
    st = worker_->pool()->FlushAll();
  }
  if (st.ok()) {
    for (ObjectPlan& plan : *plans) {
      st = plan.obj->file->SyncHeaderIfDirty();
      if (!st.ok()) break;
      st = worker_->WriteObjectCheckpoint(plan.obj->object_id,
                                          checkpoint_time);
      if (!st.ok()) break;
    }
  }

  // Join pending transactions: tell every coordinator that rec on S is
  // coming online; the reply is the "all done" of Figure 5-4.
  if (st.ok()) {
    // Funneled into st (not the return macro) so the lock release below
    // still runs and a clean retry is possible.
    if (fault::FaultInjector* fi = fault::FaultInjector::Current()) {
      st = fi->OnPoint("recovery.phase3.coming_online", self,
                       fault::CrashMode::kSync);
    }
  }
  if (st.ok()) {
    ComingOnlineMsg online;
    online.site = self;
    for (const ObjectPlan& plan : *plans) {
      online.objects.emplace_back(plan.obj->table_id, plan.obj->partition);
    }
    for (SiteId coordinator : options_.coordinators) {
      auto r = net->Call(self, coordinator, online.Encode());
      if (!r.ok() && !r.status().IsUnavailable()) {
        st = r.status();
        break;
      }
    }
  }

  // Release the recovery locks whether or not we succeeded; a failure path
  // restarts recovery and must not leave buddies blocked (§5.5).
  for (const auto& [site, object] : locks) {
    TableLockMsg msg;
    msg.type = MsgType::kTableUnlock;
    msg.object_id = object;
    msg.owner_site = self;
    (void)net->Call(self, site, msg.Encode());
  }
  HARBOR_RETURN_NOT_OK(st);

  // All objects recovered: collapse to a single global checkpoint (§5.3).
  HARBOR_RETURN_NOT_OK(worker_->PromoteGlobalCheckpoint(checkpoint_time));
  worker_->liveness()->Set(self, SiteState::kOnline);
  *out_seconds = watch.ElapsedSeconds();
  if (obs::Enabled()) {
    obs::Observe(self, obs::HistogramId::kRecoveryPhase3Ns,
                 watch.ElapsedNanos());
    int64_t tuples = 0;
    int64_t deletions = 0;
    for (const ObjectPlan& plan : *plans) {
      tuples += static_cast<int64_t>(plan.stats.phase3_tuples_copied);
      deletions += static_cast<int64_t>(plan.stats.phase3_deletions_copied);
    }
    obs::Count(self, obs::CounterId::kRecoveryPhase3Tuples, tuples);
    obs::Count(self, obs::CounterId::kRecoveryPhase3Deletions, deletions);
    obs::Trace(self, "recovery.phase3.done", 0, tuples, deletions);
  }
  return Status::OK();
}

// --------------------------------------------------------------- driver

Result<RecoveryStats> RecoveryManager::Recover() {
  Status last = Status::OK();
  for (int attempt = 0; attempt < options_.max_attempts; ++attempt) {
    if (!worker_->running()) {
      // The recovering site itself died mid-recovery (its runtime is gone);
      // a retry would touch freed state. The caller restarts the site and
      // runs a fresh RecoveryManager.
      last = Status::Unavailable("recovering site went down mid-recovery");
      break;
    }
    worker_->PauseCheckpoints(true);
    obs::Trace(worker_->site_id(), "recovery.begin", 0, attempt + 1);
    RecoveryStats stats;
    Stopwatch total;

    HARBOR_ASSIGN_OR_RETURN(CheckpointRecord ckpt, worker_->LastCheckpoint());
    std::vector<ObjectPlan> plans;
    for (TableObject* obj : worker_->local_catalog()->objects()) {
      ObjectPlan plan;
      plan.obj = obj;
      plan.checkpoint = ckpt.TimeFor(obj->object_id);
      plan.hwm = plan.checkpoint;
      if (const std::vector<StreamResume>* r =
              ckpt.ResumeFor(obj->object_id)) {
        plan.resume = *r;  // previous attempt died mid-stream (§5.5.2)
      }
      plan.stats.object_id = obj->object_id;
      plans.push_back(std::move(plan));
    }

    // Phases 1-2, per object — in parallel when configured (§5.1: "multiple
    // rec objects ... recovered in parallel; each object proceeds through
    // the phases at its own pace").
    auto run_offline_phases = [this](ObjectPlan* plan) -> Status {
      HARBOR_RETURN_NOT_OK(RunPhase1(plan));
      return RunPhase2(plan);
    };
    Stopwatch offline_watch;
    std::vector<Status> results(plans.size(), Status::OK());
    if (options_.parallel && plans.size() > 1) {
      std::vector<std::function<Status()>> jobs;
      jobs.reserve(plans.size());
      for (size_t i = 0; i < plans.size(); ++i) {
        jobs.push_back([&, i] { return run_offline_phases(&plans[i]); });
      }
      results = runtime::RunParallel(worker_->scheduler(), std::move(jobs));
    } else {
      for (size_t i = 0; i < plans.size(); ++i) {
        results[i] = run_offline_phases(&plans[i]);
      }
    }
    const double offline_seconds = offline_watch.ElapsedSeconds();
    last = Status::OK();
    for (const Status& s : results) {
      if (!s.ok()) last = s;
    }
    if (!last.ok()) {
      // Recovery buddy failed mid-phase past what in-stream failover could
      // absorb: restart with a fresh plan (§5.5.2) from the per-object
      // checkpoints and stream watermarks already recorded.
      continue;
    }

    double phase3_seconds = 0;
    last = RunPhase3(&plans, &phase3_seconds);
    if (!last.ok()) continue;

    const bool ran_parallel = options_.parallel && plans.size() > 1;
    for (const ObjectPlan& plan : plans) {
      stats.objects.push_back(plan.stats);
      if (ran_parallel) {
        stats.phase1_seconds =
            std::max(stats.phase1_seconds, plan.stats.phase1_seconds);
        stats.phase2_seconds =
            std::max(stats.phase2_seconds, plan.stats.phase2_seconds);
      } else {
        stats.phase1_seconds += plan.stats.phase1_seconds;
        stats.phase2_seconds += plan.stats.phase2_seconds;
      }
    }
    stats.offline_seconds = offline_seconds;
    stats.phase3_seconds = phase3_seconds;
    stats.total_seconds = total.ElapsedSeconds();
    worker_->PauseCheckpoints(false);
    obs::Trace(worker_->site_id(), "recovery.done", 0,
               static_cast<int64_t>(stats.total_seconds * 1e9));
    return stats;
  }
  worker_->PauseCheckpoints(false);
  HARBOR_RETURN_NOT_OK(last);
  return Status::Internal("recovery retries exhausted");
}

}  // namespace harbor
