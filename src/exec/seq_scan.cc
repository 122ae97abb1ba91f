#include "exec/seq_scan.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "exec/predicate.h"
#include "storage/heap_page.h"

namespace harbor {

namespace {

template <typename T>
T Load(const uint8_t* p) {
  T v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

/// A packed numeric column widened to double, as CompareValues widens it.
double PackedNumber(const uint8_t* p, ColumnType type) {
  switch (type) {
    case ColumnType::kInt32: return Load<int32_t>(p);
    case ColumnType::kInt64: return static_cast<double>(Load<int64_t>(p));
    default: return Load<double>(p);
  }
}

/// Integer view of a packed partition-key column.
int64_t PackedInt(const uint8_t* p, ColumnType type) {
  switch (type) {
    case ColumnType::kInt32: return Load<int32_t>(p);
    case ColumnType::kInt64: return Load<int64_t>(p);
    default: return static_cast<int64_t>(Load<double>(p));
  }
}

}  // namespace

SeqScanOperator::SeqScanOperator(VersionStore* store, TableObject* obj,
                                 ScanSpec spec, LockOwnerId owner,
                                 ScanLocking locking)
    : store_(store),
      obj_(obj),
      spec_(std::move(spec)),
      owner_(owner),
      locking_(locking) {}

Status SeqScanOperator::Open() {
  HARBOR_ASSIGN_OR_RETURN(bound_predicate_,
                          spec_.predicate.Bind(obj_->schema));
  if (!spec_.range.IsFull()) {
    HARBOR_ASSIGN_OR_RETURN(size_t idx,
                            obj_->schema.ColumnIndex(spec_.range.column));
    range_column_ = static_cast<int>(idx);
  }
  // Numeric conjuncts against numeric constants can be tested on the packed
  // row bytes — the page stores them as native fixed-width fields — so most
  // non-matching slots are discarded before Tuple::Unpack materializes any
  // Value. The full predicate still runs on unpacked tuples afterwards.
  packed_probes_.clear();
  {
    const auto& conjuncts = spec_.predicate.conjuncts();
    for (size_t i = 0; i < conjuncts.size(); ++i) {
      const size_t col = bound_predicate_[i];
      if (obj_->schema.column(col).type == ColumnType::kChar ||
          conjuncts[i].value.type() == ColumnType::kChar) {
        continue;
      }
      packed_probes_.push_back(PackedProbe{
          kTupleSystemHeaderBytes + obj_->schema.ColumnOffset(col),
          obj_->schema.column(col).type, conjuncts[i].op,
          conjuncts[i].value.AsNumeric()});
    }
  }
  if (locking_ == ScanLocking::kPageLocks) {
    HARBOR_RETURN_NOT_OK(store_->lock_manager()->AcquireTableLock(
        owner_, obj_->object_id, LockMode::kIntentionShared));
  }

  // Index path: an equality probe on the secondary-indexed column resolves
  // to candidate record ids instead of a full scan.
  use_index_ = false;
  if (obj_->secondary != nullptr) {
    for (const ColumnPredicate& c : spec_.predicate.conjuncts()) {
      if (c.op == CompareOp::kEq && c.column == obj_->secondary->column()) {
        HARBOR_RETURN_NOT_OK(store_->EnsureIndex(obj_));
        const int64_t key = c.value.type() == ColumnType::kInt32
                                ? c.value.AsInt32()
                                : c.value.AsInt64();
        candidates_ = obj_->secondary->Lookup(key);
        use_index_ = true;
        break;
      }
    }
  }
  open_ = true;
  return Rewind();
}

Status SeqScanOperator::Rewind() {
  HARBOR_CHECK(open_);
  current_segment_ = 0;
  segment_pages_.clear();
  current_page_ = 0;
  current_candidate_ = 0;
  batch_.clear();
  exhausted_ = false;
  return Status::OK();
}

bool SeqScanOperator::SegmentNeeded(size_t seg) const {
  const SegmentedHeapFile& file = *obj_->file;
  if (file.segment(seg).dropped) return false;
  // Conjunction pruning: the segment is needed only if every timestamp
  // conjunct could be satisfied by some tuple in it.
  if (spec_.has_insertion_at_or_before &&
      !file.MayContainInsertionAtOrBefore(seg,
                                          spec_.insertion_at_or_before)) {
    return false;
  }
  if (spec_.has_insertion_after) {
    const bool committed_match =
        file.MayContainInsertionAfter(seg, spec_.insertion_after);
    // The uncommitted sentinel satisfies `insertion > T` numerically, so a
    // segment with possible uncommitted tuples still matches unless the
    // query excludes them (§5.2 vs §5.4.1).
    const bool uncommitted_match =
        !spec_.exclude_uncommitted && file.MayContainUncommitted(seg);
    if (!committed_match && !uncommitted_match) return false;
  }
  if (spec_.has_deletion_after &&
      !file.MayContainDeletionAfter(seg, spec_.deletion_after)) {
    return false;
  }
  // Snapshot scans cannot see tuples inserted after as_of.
  if (spec_.mode != ScanMode::kSeeDeleted &&
      !file.MayContainInsertionAtOrBefore(seg, spec_.as_of)) {
    return false;
  }
  return true;
}

Status SeqScanOperator::LoadNextBatch() {
  const uint32_t tuple_bytes = obj_->schema.tuple_bytes();
  while (true) {
    if (current_page_ >= segment_pages_.size()) {
      // Advance to the next needed segment.
      while (current_segment_ < obj_->file->num_segments() &&
             !SegmentNeeded(current_segment_)) {
        ++current_segment_;
        ++segments_pruned_;
      }
      if (current_segment_ >= obj_->file->num_segments()) {
        exhausted_ = true;
        return Status::OK();
      }
      const size_t seg = current_segment_++;
      ++segments_visited_;
      if (ColumnarEligible(seg)) {
        HARBOR_ASSIGN_OR_RETURN(const bool served, ScanColumnarSegment(seg));
        if (served) {
          if (!batch_.empty()) return Status::OK();
          continue;
        }
        // Image build failed: the row pages below stay the fallback.
      }
      segment_pages_ = obj_->file->PagesOfSegment(seg);
      current_page_ = 0;
      continue;
    }

    const PageId pid = segment_pages_[current_page_++];
    if (locking_ == ScanLocking::kPageLocks) {
      HARBOR_RETURN_NOT_OK(store_->lock_manager()->AcquirePageLock(
          owner_, pid, LockMode::kShared));
    }
    HARBOR_ASSIGN_OR_RETURN(PageHandle handle,
                            store_->buffer_pool()->GetPage(pid,
                                                           /*sequential=*/true));
    ++pages_visited_;
    PageLatchGuard latch(handle);
    HeapPage view(handle.data(), tuple_bytes);
    if (view.capacity() == 0) continue;  // never-initialized page
    for (uint16_t slot = 0; slot < view.capacity(); ++slot) {
      if (!view.IsOccupied(slot)) continue;
      EvaluateSlot(view.TupleData(slot), pid, slot);
    }
    if (!batch_.empty()) return Status::OK();
  }
}

// `inline`: both per-slot loops call this, and the hint keeps it inlined.
inline bool SeqScanOperator::SlotQualifies(const uint8_t* data,
                                           RecordId rid,
                                           VersionKey* key) const {
  const ScanSpec& s = spec_;
  const PackedSystemHeader h = PackedSystemHeader::Read(data);
  const Timestamp ins = h.insertion_ts;
  Timestamp del = h.deletion_ts;
  switch (s.mode) {
    case ScanMode::kVisible:
      if (ins == kUncommittedTimestamp || ins > s.as_of) return false;
      if (del != kNotDeleted && del <= s.as_of) return false;
      break;
    case ScanMode::kSeeDeleted:
      break;
    case ScanMode::kSeeDeletedHistorical:
      // Insertions after the snapshot are invisible; deletions after it
      // appear undone (§5.3).
      if (ins > s.as_of) return false;  // includes uncommitted
      if (del > s.as_of) del = kNotDeleted;
      break;
  }

  if (s.has_insertion_at_or_before && ins > s.insertion_at_or_before) {
    return false;
  }
  if (s.has_insertion_after && ins <= s.insertion_after) return false;
  if (s.has_deletion_after && del <= s.deletion_after) return false;
  if (s.exclude_uncommitted && ins == kUncommittedTimestamp) return false;
  if (range_column_ >= 0) {
    const size_t col = static_cast<size_t>(range_column_);
    if (!s.range.Contains(PackedInt(
            data + kTupleSystemHeaderBytes + obj_->schema.ColumnOffset(col),
            obj_->schema.column(col).type))) {
      return false;
    }
  }
  for (const PackedProbe& p : packed_probes_) {
    if (!CompareNumeric(PackedNumber(data + p.offset, p.type), p.op,
                        p.rhs_num)) {
      return false;
    }
  }
  *key = VersionKey{ins, del, h.tuple_id, rid};
  return true;
}

void SeqScanOperator::EvaluateSlot(const uint8_t* data, PageId pid,
                                   uint16_t slot) {
  VersionKey key;
  if (!SlotQualifies(data, RecordId{pid, slot}, &key)) return;
  Tuple t = Tuple::Unpack(obj_->schema, data);
  t.set_deletion_ts(key.deletion_ts);  // present the snapshot view
  t.set_record_id(key.rid);
  if (!spec_.predicate.EvalBound(bound_predicate_, t)) return;
  batch_.push_back(std::move(t));
}

bool SeqScanOperator::ColumnarEligible(size_t seg) const {
  if (!obj_->columnar) return false;
  // Only sealed segments have a stable tuple set worth encoding; the open
  // (tail) segment keeps receiving inserts and stays row-format.
  return seg + 1 < obj_->file->num_segments();
}

Result<bool> SeqScanOperator::ScanColumnarSegment(size_t seg) {
  // Up-to-date reads still take the segment's shared page locks before the
  // image is consulted: StampCommit writes its stamps through to cached
  // images before the committer's locks are released, so acquiring the
  // locks orders this scan after every commit it must observe.
  if (locking_ == ScanLocking::kPageLocks) {
    for (const PageId& pid : obj_->file->PagesOfSegment(seg)) {
      HARBOR_RETURN_NOT_OK(store_->lock_manager()->AcquirePageLock(
          owner_, pid, LockMode::kShared));
    }
  }
  auto image = store_->EnsureColumnarSegment(obj_, seg);
  if (!image.ok()) return false;  // row pages stay the fallback
  ColumnarSegmentScanner scanner(*image, &spec_, &bound_predicate_,
                                 range_column_);
  const VectorScanResult r = scanner.Scan(&batch_);
  ++columnar_segments_;
  if (r.zone_pruned) ++zone_pruned_segments_;
  if (r.used_adaptive_index) ++adaptive_index_probes_;
  return true;
}

Status SeqScanOperator::LoadCandidateBatch() {
  const uint32_t tuple_bytes = obj_->schema.tuple_bytes();
  while (current_candidate_ < candidates_.size()) {
    const RecordId rid = candidates_[current_candidate_++];
    // Segment pruning applies to index probes as well.
    auto seg = obj_->file->SegmentOfPage(rid.page.page_no);
    if (!seg.ok() || !SegmentNeeded(*seg)) continue;
    if (locking_ == ScanLocking::kPageLocks) {
      HARBOR_RETURN_NOT_OK(store_->lock_manager()->AcquirePageLock(
          owner_, rid.page, LockMode::kShared));
    }
    HARBOR_ASSIGN_OR_RETURN(PageHandle handle,
                            store_->buffer_pool()->GetPage(rid.page));
    ++pages_visited_;
    PageLatchGuard latch(handle);
    HeapPage view(handle.data(), tuple_bytes);
    if (rid.slot >= view.capacity() || !view.IsOccupied(rid.slot)) continue;
    EvaluateSlot(view.TupleData(rid.slot), rid.page, rid.slot);
    if (!batch_.empty()) return Status::OK();
  }
  exhausted_ = true;
  return Status::OK();
}

Result<std::optional<Tuple>> SeqScanOperator::Next() {
  HARBOR_CHECK(open_);
  while (batch_.empty() && !exhausted_) {
    if (use_index_) {
      HARBOR_RETURN_NOT_OK(LoadCandidateBatch());
      continue;
    }
    HARBOR_RETURN_NOT_OK(LoadNextBatch());
  }
  if (batch_.empty()) return std::optional<Tuple>{};
  Tuple t = std::move(batch_.front());
  batch_.pop_front();
  return std::optional<Tuple>(std::move(t));
}

Result<std::vector<VersionKey>> SeqScanOperator::ScanKeys() {
  HARBOR_RETURN_NOT_OK(Open());
  const uint32_t tuple_bytes = obj_->schema.tuple_bytes();
  // Numeric conjuncts are fully answered by the packed probes; only a CHAR
  // conjunct needs the unpacked tuple.
  const bool unpack =
      packed_probes_.size() < spec_.predicate.conjuncts().size();
  std::vector<VersionKey> keys;
  for (size_t seg = 0; seg < obj_->file->num_segments(); ++seg) {
    if (!SegmentNeeded(seg)) {
      ++segments_pruned_;
      continue;
    }
    ++segments_visited_;
    for (const PageId& pid : obj_->file->PagesOfSegment(seg)) {
      if (locking_ == ScanLocking::kPageLocks) {
        HARBOR_RETURN_NOT_OK(store_->lock_manager()->AcquirePageLock(
            owner_, pid, LockMode::kShared));
      }
      HARBOR_ASSIGN_OR_RETURN(PageHandle handle,
                              store_->buffer_pool()->GetPage(
                                  pid, /*sequential=*/true));
      ++pages_visited_;
      PageLatchGuard latch(handle);
      HeapPage view(handle.data(), tuple_bytes);
      for (uint16_t slot = 0; slot < view.capacity(); ++slot) {
        if (!view.IsOccupied(slot)) continue;
        const uint8_t* data = view.TupleData(slot);
        VersionKey key;
        if (!SlotQualifies(data, RecordId{pid, slot}, &key)) continue;
        if (unpack && !spec_.predicate.EvalBound(
                          bound_predicate_,
                          Tuple::Unpack(obj_->schema, data))) {
          continue;
        }
        keys.push_back(key);
      }
    }
  }
  return keys;
}

bool SelectChunk(std::vector<VersionKey>* keys, const ScanCursor& after,
                 size_t max_tuples) {
  const auto key_of = [](const VersionKey& k) {
    return std::make_pair(k.insertion_ts, k.tuple_id);
  };
  // Record ids order a tie group, so equal inputs give equal chunks.
  const auto less = [&](const VersionKey& a, const VersionKey& b) {
    return key_of(a) != key_of(b) ? key_of(a) < key_of(b) : a.rid < b.rid;
  };
  if (after.valid) {
    const auto floor = std::make_pair(after.insertion_ts, after.tuple_id);
    std::erase_if(*keys,
                  [&](const VersionKey& k) { return key_of(k) <= floor; });
  }
  bool truncated = false;
  if (max_tuples > 0 && keys->size() > max_tuples) {
    // The max_tuples-th smallest key closes the chunk; the rest of its tie
    // group stays in, everything larger is dropped.
    const auto edge = keys->begin() + static_cast<ptrdiff_t>(max_tuples - 1);
    std::nth_element(keys->begin(), edge, keys->end(), less);
    const auto edge_key = key_of(*edge);
    const auto tail =
        std::partition(edge + 1, keys->end(), [&](const VersionKey& k) {
          return key_of(k) == edge_key;
        });
    truncated = tail != keys->end();
    keys->erase(tail, keys->end());
  }
  std::sort(keys->begin(), keys->end(), less);
  return truncated;
}

}  // namespace harbor
