#include "txn/version_store.h"

#include <cstring>

#include "storage/heap_page.h"

namespace harbor {

const char* TxnPhaseToString(TxnPhase phase) {
  switch (phase) {
    case TxnPhase::kPending: return "PENDING";
    case TxnPhase::kPrepared: return "PREPARED";
    case TxnPhase::kPreparedToCommit: return "PREPARED-TO-COMMIT";
    case TxnPhase::kCommitted: return "COMMITTED";
    case TxnPhase::kAborted: return "ABORTED";
  }
  return "?";
}

namespace {

/// Key of `t` under the object's secondary index (integer columns only).
int64_t SecondaryKeyOf(const TableObject* obj, const Tuple& t) {
  return t.value(static_cast<size_t>(obj->secondary_column)).AsInteger();
}

}  // namespace

VersionStore::VersionStore(LocalCatalog* catalog, BufferPool* pool,
                           LockManager* locks, LogManager* log,
                           TxnTable* txns)
    : catalog_(catalog), pool_(pool), locks_(locks), log_(log), txns_(txns) {}

Lsn VersionStore::LogInsert(TxnState* txn, ObjectId object_id, RecordId rid,
                            const uint8_t* image, uint32_t image_size) {
  if (log_ == nullptr) return kInvalidLsn;
  LogRecord rec;
  rec.type = LogRecordType::kTupleInsert;
  rec.txn = txn->id;
  rec.prev_lsn = txn->last_lsn;
  rec.object_id = object_id;
  rec.rid = rid;
  rec.tuple_image.assign(image, image + image_size);
  Lsn lsn = log_->Append(std::move(rec));
  txn->last_lsn = lsn;
  return lsn;
}

Lsn VersionStore::LogStamp(TxnState* txn, ObjectId object_id, RecordId rid,
                           StampField field, Timestamp before,
                           Timestamp after) {
  if (log_ == nullptr) return kInvalidLsn;
  LogRecord rec;
  rec.type = LogRecordType::kTupleStamp;
  rec.txn = txn->id;
  rec.prev_lsn = txn->last_lsn;
  rec.object_id = object_id;
  rec.rid = rid;
  rec.stamp_field = field;
  rec.before_ts = before;
  rec.after_ts = after;
  Lsn lsn = log_->Append(std::move(rec));
  txn->last_lsn = lsn;
  return lsn;
}

Result<PageHandle> VersionStore::AcquirePageForInsert(LockOwnerId owner,
                                                      TableObject* obj,
                                                      PageId* out_page) {
  SegmentedHeapFile* file = obj->file.get();
  const uint32_t tuple_bytes = obj->schema.tuple_bytes();

  for (int attempt = 0; attempt < 64; ++attempt) {
    const size_t last_seg = file->last_segment_index();
    std::vector<PageId> pages = file->PagesOfSegment(last_seg);

    uint32_t hint = 0;
    {
      std::lock_guard<std::mutex> lock(hint_mu_);
      hint = insert_hints_[obj->object_id];
    }

    for (const PageId& pid : pages) {
      if (pid.page_no < hint) continue;
      // Exclusive lock up front. The thesis takes a shared lock for the
      // free-slot scan and upgrades on success (§6.1.3); under concurrent
      // insert streams into one table that pattern deadlocks (every scanner
      // holds S and wants X), so we take X directly — the slot check and
      // insert are a single short critical section anyway, and the race the
      // thesis's shared lock guards against (a competitor filling the last
      // slot between check and insert) cannot occur under X.
      if (owner != 0) {
        HARBOR_RETURN_NOT_OK(
            locks_->AcquirePageLock(owner, pid, LockMode::kExclusive));
      }
      // Appends walk the open segment's tail in order: sequential I/O, not
      // random point reads (this is why copying tuples into fresh pages is
      // fundamentally cheaper than ARIES redo's random page fetches).
      HARBOR_ASSIGN_OR_RETURN(PageHandle handle,
                              pool_->GetPage(pid, /*sequential=*/true));
      bool has_space;
      {
        PageLatchGuard latch(handle);
        HeapPage view(handle.data(), tuple_bytes);
        if (view.capacity() == 0) view.Init();  // freshly allocated page
        has_space = !view.full();
      }
      if (!has_space) {
        std::lock_guard<std::mutex> lock(hint_mu_);
        uint32_t& h = insert_hints_[obj->object_id];
        if (pid.page_no + 1 > h) h = pid.page_no + 1;
        continue;
      }
      *out_page = pid;
      return handle;
    }

    // No space in the open segment: append a page (possibly rolling over to
    // a new segment) and retry through the normal path so competitors can
    // share the fresh page.
    HARBOR_ASSIGN_OR_RETURN(PageId fresh, file->AppendPage());
    if (owner != 0) {
      HARBOR_RETURN_NOT_OK(
          locks_->AcquirePageLock(owner, fresh, LockMode::kExclusive));
    }
    HARBOR_ASSIGN_OR_RETURN(PageHandle handle, pool_->CreatePage(fresh));
    {
      PageLatchGuard latch(handle);
      HeapPage view(handle.data(), tuple_bytes);
      if (view.capacity() == 0) view.Init();
      if (!view.full()) {
        *out_page = fresh;
        return handle;
      }
    }
  }
  return Status::Internal("could not find an insertable page");
}

Result<RecordId> VersionStore::InsertTuple(TxnState* txn, TableObject* obj,
                                           const Tuple& tuple) {
  // Announce the update at table granularity: the intention-exclusive lock
  // is what makes a recovering site's table read lock block update
  // transactions on this object until recovery completes (§5.4.1).
  HARBOR_RETURN_NOT_OK(locks_->AcquireTableLock(
      txn->id, obj->object_id, LockMode::kIntentionExclusive));
  // Pack with the uncommitted sentinel; the real insertion time is assigned
  // at commit (§4.1).
  Tuple staged = tuple;
  staged.set_insertion_ts(kUncommittedTimestamp);
  staged.set_deletion_ts(kNotDeleted);
  std::vector<uint8_t> image(obj->schema.tuple_bytes());
  staged.Pack(obj->schema, image.data());

  PageId pid;
  HARBOR_ASSIGN_OR_RETURN(PageHandle handle,
                          AcquirePageForInsert(txn->id, obj, &pid));
  uint16_t slot;
  {
    PageLatchGuard latch(handle);
    HeapPage view(handle.data(), obj->schema.tuple_bytes());
    HARBOR_ASSIGN_OR_RETURN(slot, view.InsertTuple(image.data()));
    RecordId rid{pid, slot};
    Lsn lsn = LogInsert(txn, obj->object_id, rid, image.data(),
                        static_cast<uint32_t>(image.size()));
    if (lsn != kInvalidLsn) view.set_page_lsn(lsn);
    handle.MarkDirty(lsn);
  }
  RecordId rid{pid, slot};

  HARBOR_ASSIGN_OR_RETURN(size_t seg, obj->file->SegmentOfPage(pid.page_no));
  obj->file->NoteUncommittedInsertion(seg);
  // Inserts target the open segment, which is never cached in columnar
  // form; if a rollover raced us into a just-sealed segment, drop its image
  // (the encoded columns cannot absorb a new value).
  if (obj->columnar) obj->columnar_cache.Invalidate(seg);
  obj->index.Insert(staged.tuple_id(), rid);
  if (obj->secondary != nullptr) {
    obj->secondary->Insert(seg, SecondaryKeyOf(obj, staged), rid);
  }
  txn->insertions.push_back(
      InsertionEntry{obj->object_id, rid, staged.tuple_id(), seg});
  return rid;
}

Status VersionStore::DeleteTuple(TxnState* txn, TableObject* obj,
                                 RecordId rid) {
  HARBOR_RETURN_NOT_OK(locks_->AcquireTableLock(
      txn->id, obj->object_id, LockMode::kIntentionExclusive));
  // Exclusive page lock: held to commit, it guarantees the page can be
  // stamped then, and serializes conflicting deleters (§6.1.4).
  HARBOR_RETURN_NOT_OK(
      locks_->AcquirePageLock(txn->id, rid.page, LockMode::kExclusive));
  HARBOR_ASSIGN_OR_RETURN(PageHandle handle, pool_->GetPage(rid.page));
  {
    PageLatchGuard latch(handle);
    HeapPage view(handle.data(), obj->schema.tuple_bytes());
    if (rid.slot >= view.capacity() || !view.IsOccupied(rid.slot)) {
      return Status::NotFound("no tuple at " + rid.ToString());
    }
    PackedSystemHeader h = PackedSystemHeader::Read(view.TupleData(rid.slot));
    if (h.deletion_ts != kNotDeleted) {
      return Status::Aborted("tuple already deleted at time " +
                             std::to_string(h.deletion_ts));
    }
  }
  for (const DeletionEntry& d : txn->deletions) {
    if (d.object_id == obj->object_id && d.rid == rid) {
      return Status::Aborted("tuple already deleted by this transaction");
    }
  }
  HARBOR_ASSIGN_OR_RETURN(size_t seg,
                          obj->file->SegmentOfPage(rid.page.page_no));
  if (log_ != nullptr) {
    LogRecord rec;
    rec.type = LogRecordType::kDeleteIntent;
    rec.txn = txn->id;
    rec.prev_lsn = txn->last_lsn;
    rec.object_id = obj->object_id;
    rec.rid = rid;
    txn->last_lsn = log_->Append(std::move(rec));
  }
  txn->deletions.push_back(DeletionEntry{obj->object_id, rid, seg});
  return Status::OK();
}

Status VersionStore::StampCommit(TxnState* txn, Timestamp commit_ts) {
  for (const InsertionEntry& e : txn->insertions) {
    HARBOR_ASSIGN_OR_RETURN(TableObject * obj, catalog_->GetObject(e.object_id));
    HARBOR_ASSIGN_OR_RETURN(PageHandle handle, pool_->GetPage(e.rid.page));
    {
      PageLatchGuard latch(handle);
      HeapPage view(handle.data(), obj->schema.tuple_bytes());
      uint8_t* data = view.TupleData(e.rid.slot);
      PackedSystemHeader h = PackedSystemHeader::Read(data);
      Lsn lsn = LogStamp(txn, e.object_id, e.rid, StampField::kInsertion,
                         h.insertion_ts, commit_ts);
      h.insertion_ts = commit_ts;
      h.Write(data);
      if (lsn != kInvalidLsn) view.set_page_lsn(lsn);
      handle.MarkDirty(lsn);
    }
    obj->file->NoteCommittedInsertion(e.segment_idx, commit_ts);
    // Write-through after the latch is released (the columnar cache's mutex
    // is taken *before* page latches by segment builds).
    if (obj->columnar) {
      obj->columnar_cache.StampInsertion(e.segment_idx, e.rid, commit_ts);
    }
  }
  for (const DeletionEntry& e : txn->deletions) {
    HARBOR_ASSIGN_OR_RETURN(TableObject * obj, catalog_->GetObject(e.object_id));
    HARBOR_ASSIGN_OR_RETURN(PageHandle handle, pool_->GetPage(e.rid.page));
    {
      PageLatchGuard latch(handle);
      HeapPage view(handle.data(), obj->schema.tuple_bytes());
      uint8_t* data = view.TupleData(e.rid.slot);
      PackedSystemHeader h = PackedSystemHeader::Read(data);
      Lsn lsn = LogStamp(txn, e.object_id, e.rid, StampField::kDeletion,
                         h.deletion_ts, commit_ts);
      h.deletion_ts = commit_ts;
      h.Write(data);
      if (lsn != kInvalidLsn) view.set_page_lsn(lsn);
      handle.MarkDirty(lsn);
    }
    obj->file->NoteCommittedDeletion(e.segment_idx, commit_ts);
    if (obj->columnar) {
      obj->columnar_cache.StampDeletion(e.segment_idx, e.rid, commit_ts);
    }
  }
  return Status::OK();
}

Status VersionStore::RollbackTransaction(TxnState* txn) {
  // Inserts are undone physically in reverse order; deletions never touched
  // pages, so dropping the list suffices (§4.1).
  for (auto it = txn->insertions.rbegin(); it != txn->insertions.rend();
       ++it) {
    HARBOR_ASSIGN_OR_RETURN(TableObject * obj,
                            catalog_->GetObject(it->object_id));
    HARBOR_ASSIGN_OR_RETURN(PageHandle handle, pool_->GetPage(it->rid.page));
    {
      PageLatchGuard latch(handle);
      HeapPage view(handle.data(), obj->schema.tuple_bytes());
      if (obj->secondary != nullptr && view.IsOccupied(it->rid.slot)) {
        Tuple victim = Tuple::Unpack(obj->schema, view.TupleData(it->rid.slot));
        obj->secondary->Remove(it->segment_idx, SecondaryKeyOf(obj, victim),
                               it->rid);
      }
      HARBOR_RETURN_NOT_OK(view.FreeSlot(it->rid.slot));
      Lsn clr_lsn = kInvalidLsn;
      if (log_ != nullptr) {
        LogRecord clr;
        clr.type = LogRecordType::kClr;
        clr.txn = txn->id;
        clr.prev_lsn = txn->last_lsn;
        clr.object_id = it->object_id;
        clr.rid = it->rid;
        clr.clr_action = 1;  // free slot
        // undo_next: skip past the record we just undid.
        clr.undo_next_lsn = kInvalidLsn;
        clr_lsn = log_->Append(std::move(clr));
        txn->last_lsn = clr_lsn;
        view.set_page_lsn(clr_lsn);
      }
      handle.MarkDirty(clr_lsn);
    }
    obj->index.Remove(it->tuple_id, it->rid);
    if (obj->columnar) {
      obj->columnar_cache.FreeRow(it->segment_idx, it->rid);
    }
    // The freed slot may be before the insert hint; rewind it so dense
    // packing reuses the hole.
    std::lock_guard<std::mutex> lock(hint_mu_);
    uint32_t& h = insert_hints_[obj->object_id];
    if (it->rid.page.page_no < h) h = it->rid.page.page_no;
  }
  txn->insertions.clear();
  txn->deletions.clear();
  return Status::OK();
}

Result<RecordId> VersionStore::InsertCommittedTuple(TableObject* obj,
                                                    const Tuple& tuple) {
  std::vector<uint8_t> image(obj->schema.tuple_bytes());
  tuple.Pack(obj->schema, image.data());

  PageId pid;
  uint16_t slot = 0;
  for (int attempt = 0;; ++attempt) {
    HARBOR_ASSIGN_OR_RETURN(PageHandle handle,
                            AcquirePageForInsert(/*owner=*/0, obj, &pid));
    PageLatchGuard latch(handle);
    HeapPage view(handle.data(), obj->schema.tuple_bytes());
    Result<uint16_t> inserted = view.InsertTuple(image.data());
    if (inserted.ok()) {
      slot = *inserted;
      handle.MarkDirty();
      break;
    }
    // AcquirePageForInsert drops its latch before returning, so a competitor
    // (parallel recovery streams target one object concurrently) can fill the
    // page in between; take another page rather than failing the insert.
    if (!inserted.status().IsOutOfRange() || attempt >= 64) {
      return inserted.status();
    }
  }
  RecordId rid{pid, slot};
  HARBOR_ASSIGN_OR_RETURN(size_t seg, obj->file->SegmentOfPage(pid.page_no));
  if (obj->columnar) obj->columnar_cache.Invalidate(seg);
  if (tuple.insertion_ts() != kUncommittedTimestamp) {
    obj->file->NoteCommittedInsertion(seg, tuple.insertion_ts());
  } else {
    obj->file->NoteUncommittedInsertion(seg);
  }
  if (tuple.deletion_ts() != kNotDeleted) {
    obj->file->NoteCommittedDeletion(seg, tuple.deletion_ts());
  }
  obj->index.Insert(tuple.tuple_id(), rid);
  if (obj->secondary != nullptr) {
    obj->secondary->Insert(seg, SecondaryKeyOf(obj, tuple), rid);
  }
  return rid;
}

Status VersionStore::InsertCommittedTuples(TableObject* obj,
                                           const std::vector<Tuple>& tuples,
                                           size_t* applied) {
  const uint32_t tuple_bytes = obj->schema.tuple_bytes();
  std::vector<uint8_t> image(tuple_bytes);
  std::vector<uint16_t> slots;
  size_t i = 0;
  int empty_acquires = 0;
  while (i < tuples.size()) {
    PageId pid;
    HARBOR_ASSIGN_OR_RETURN(PageHandle handle,
                            AcquirePageForInsert(/*owner=*/0, obj, &pid));
    const size_t first = i;
    slots.clear();
    {
      PageLatchGuard latch(handle);
      HeapPage view(handle.data(), tuple_bytes);
      while (i < tuples.size()) {
        tuples[i].Pack(obj->schema, image.data());
        Result<uint16_t> slot = view.InsertTuple(image.data());
        if (!slot.ok()) {
          // Full page: move on to the next one. Anything else is fatal.
          if (slot.status().IsOutOfRange()) break;
          return slot.status();
        }
        slots.push_back(*slot);
        ++i;
      }
      if (!slots.empty()) handle.MarkDirty();
    }
    if (slots.empty()) {
      // A competitor filled the page between the acquire check and our
      // latch; AcquirePageForInsert appends fresh pages, so repeated losses
      // can only mean a bookkeeping bug — bound them.
      if (++empty_acquires > 64) {
        return Status::Internal("could not claim an insertable page");
      }
      continue;
    }
    empty_acquires = 0;
    HARBOR_ASSIGN_OR_RETURN(size_t seg, obj->file->SegmentOfPage(pid.page_no));
    if (obj->columnar) obj->columnar_cache.Invalidate(seg);
    for (size_t k = 0; k < slots.size(); ++k) {
      const Tuple& t = tuples[first + k];
      RecordId rid{pid, slots[k]};
      if (t.insertion_ts() != kUncommittedTimestamp) {
        obj->file->NoteCommittedInsertion(seg, t.insertion_ts());
      } else {
        obj->file->NoteUncommittedInsertion(seg);
      }
      if (t.deletion_ts() != kNotDeleted) {
        obj->file->NoteCommittedDeletion(seg, t.deletion_ts());
      }
      obj->index.Insert(t.tuple_id(), rid);
      if (obj->secondary != nullptr) {
        obj->secondary->Insert(seg, SecondaryKeyOf(obj, t), rid);
      }
      if (applied != nullptr) (*applied)++;
    }
  }
  return Status::OK();
}

Status VersionStore::SetDeletionTs(TableObject* obj, RecordId rid,
                                   Timestamp ts) {
  HARBOR_ASSIGN_OR_RETURN(PageHandle handle, pool_->GetPage(rid.page));
  {
    PageLatchGuard latch(handle);
    HeapPage view(handle.data(), obj->schema.tuple_bytes());
    if (rid.slot >= view.capacity() || !view.IsOccupied(rid.slot)) {
      return Status::NotFound("no tuple at " + rid.ToString());
    }
    uint8_t* data = view.TupleData(rid.slot);
    PackedSystemHeader h = PackedSystemHeader::Read(data);
    h.deletion_ts = ts;
    h.Write(data);
    handle.MarkDirty();
  }
  HARBOR_ASSIGN_OR_RETURN(size_t seg,
                          obj->file->SegmentOfPage(rid.page.page_no));
  if (ts != kNotDeleted) {
    obj->file->NoteCommittedDeletion(seg, ts);
  }
  if (obj->columnar) obj->columnar_cache.StampDeletion(seg, rid, ts);
  return Status::OK();
}

Status VersionStore::PhysicalDelete(TableObject* obj, RecordId rid) {
  TupleId tid;
  {
    HARBOR_ASSIGN_OR_RETURN(PageHandle handle, pool_->GetPage(rid.page));
    PageLatchGuard latch(handle);
    HeapPage view(handle.data(), obj->schema.tuple_bytes());
    if (rid.slot >= view.capacity() || !view.IsOccupied(rid.slot)) {
      return Status::NotFound("no tuple at " + rid.ToString());
    }
    tid = PackedSystemHeader::Read(view.TupleData(rid.slot)).tuple_id;
    if (obj->secondary != nullptr) {
      Tuple victim = Tuple::Unpack(obj->schema, view.TupleData(rid.slot));
      auto seg = obj->file->SegmentOfPage(rid.page.page_no);
      if (seg.ok()) {
        obj->secondary->Remove(*seg, SecondaryKeyOf(obj, victim), rid);
      }
    }
    HARBOR_RETURN_NOT_OK(view.FreeSlot(rid.slot));
    handle.MarkDirty();
  }
  obj->index.Remove(tid, rid);
  if (obj->columnar) {
    auto seg = obj->file->SegmentOfPage(rid.page.page_no);
    if (seg.ok()) obj->columnar_cache.FreeRow(*seg, rid);
  }
  std::lock_guard<std::mutex> lock(hint_mu_);
  uint32_t& h = insert_hints_[obj->object_id];
  if (rid.page.page_no < h) h = rid.page.page_no;
  return Status::OK();
}

Result<Tuple> VersionStore::ReadTuple(TableObject* obj, RecordId rid) {
  HARBOR_ASSIGN_OR_RETURN(PageHandle handle, pool_->GetPage(rid.page));
  PageLatchGuard latch(handle);
  HeapPage view(handle.data(), obj->schema.tuple_bytes());
  if (rid.slot >= view.capacity() || !view.IsOccupied(rid.slot)) {
    return Status::NotFound("no tuple at " + rid.ToString());
  }
  return Tuple::Unpack(obj->schema, view.TupleData(rid.slot));
}

Result<std::vector<Tuple>> VersionStore::ReadVersions(
    TableObject* obj, const std::vector<VersionKey>& keys) {
  std::vector<Tuple> out;
  out.reserve(keys.size());
  for (size_t i = 0; i < keys.size();) {
    const PageId pid = keys[i].rid.page;
    HARBOR_ASSIGN_OR_RETURN(PageHandle handle, pool_->GetPage(pid));
    PageLatchGuard latch(handle);
    HeapPage view(handle.data(), obj->schema.tuple_bytes());
    for (; i < keys.size() && keys[i].rid.page == pid; ++i) {
      const VersionKey& k = keys[i];
      if (k.rid.slot >= view.capacity() || !view.IsOccupied(k.rid.slot)) {
        continue;
      }
      const uint8_t* data = view.TupleData(k.rid.slot);
      if (PackedSystemHeader::Read(data).tuple_id != k.tuple_id) continue;
      Tuple t = Tuple::Unpack(obj->schema, data);
      t.set_deletion_ts(k.deletion_ts);
      t.set_record_id(k.rid);
      out.push_back(std::move(t));
    }
  }
  return out;
}

Status VersionStore::EnsureIndex(TableObject* obj) {
  if (obj->index_built.load()) return Status::OK();
  return RebuildIndex(obj);
}

Status VersionStore::RebuildIndex(TableObject* obj) {
  obj->index.Clear();
  if (obj->secondary != nullptr) obj->secondary->Clear();
  const size_t nsegs = obj->file->num_segments();
  for (size_t s = 0; s < nsegs; ++s) {
    if (obj->file->segment(s).dropped) continue;
    for (const PageId& pid : obj->file->PagesOfSegment(s)) {
      HARBOR_ASSIGN_OR_RETURN(PageHandle handle,
                              pool_->GetPage(pid, /*sequential=*/true));
      PageLatchGuard latch(handle);
      HeapPage view(handle.data(), obj->schema.tuple_bytes());
      if (view.capacity() == 0) continue;
      for (uint16_t slot = 0; slot < view.capacity(); ++slot) {
        if (!view.IsOccupied(slot)) continue;
        PackedSystemHeader h =
            PackedSystemHeader::Read(view.TupleData(slot));
        obj->index.Insert(h.tuple_id, RecordId{pid, slot});
        if (obj->secondary != nullptr) {
          Tuple t = Tuple::Unpack(obj->schema, view.TupleData(slot));
          obj->secondary->Insert(s, SecondaryKeyOf(obj, t),
                                 RecordId{pid, slot});
        }
      }
    }
  }
  obj->index_built = true;
  return Status::OK();
}

Result<std::shared_ptr<ColumnarSegment>> VersionStore::EnsureColumnarSegment(
    TableObject* obj, size_t seg) {
  if (seg >= obj->file->num_segments()) {
    return Status::InvalidArgument("columnar: no such segment");
  }
  return obj->columnar_cache.GetOrBuild(
      seg, [&]() -> Result<std::shared_ptr<ColumnarSegment>> {
        // Sealed segments have a fixed page range; copy each page under its
        // latch and parse the copies outside. The cache mutex (held by
        // GetOrBuild around this builder) makes any concurrent post-sealing
        // mutation either visible in the copy or re-applied by its hook
        // right after the image is published.
        const SegmentInfo info = obj->file->segment(seg);
        std::vector<std::vector<uint8_t>> pages;
        pages.reserve(info.num_pages);
        for (const PageId& pid : obj->file->PagesOfSegment(seg)) {
          HARBOR_ASSIGN_OR_RETURN(
              PageHandle handle, pool_->GetPage(pid, /*sequential=*/true));
          std::vector<uint8_t> copy(kPageSize);
          {
            PageLatchGuard latch(handle);
            std::memcpy(copy.data(), handle.data(), kPageSize);
          }
          pages.push_back(std::move(copy));
        }
        return ColumnarSegment::Build(obj->schema, obj->file->file_id(),
                                      info.start_page, pages);
      });
}

std::vector<size_t> VersionStore::SegmentsWithUncommitted(
    const TableObject* obj) {
  std::vector<size_t> out;
  for (TxnId id : txns_->ActiveIds()) {
    auto txn = txns_->Get(id);
    if (!txn.ok()) continue;
    std::lock_guard<std::mutex> lock((*txn)->mu);
    for (const InsertionEntry& e : (*txn)->insertions) {
      if (e.object_id == obj->object_id) out.push_back(e.segment_idx);
    }
  }
  return out;
}

}  // namespace harbor
