#include "exec/seq_scan.h"

#include <algorithm>
#include <utility>

#include "storage/heap_page.h"

namespace harbor {

SeqScanOperator::SeqScanOperator(VersionStore* store, TableObject* obj,
                                 ScanSpec spec, LockOwnerId owner,
                                 ScanLocking locking)
    : store_(store),
      obj_(obj),
      spec_(std::move(spec)),
      owner_(owner),
      locking_(locking) {}

Status SeqScanOperator::Open() {
  HARBOR_ASSIGN_OR_RETURN(conjuncts_, CompileConjuncts(spec_, obj_->schema));
  if (locking_ == ScanLocking::kPageLocks) {
    HARBOR_RETURN_NOT_OK(store_->lock_manager()->AcquireTableLock(
        owner_, obj_->object_id, LockMode::kIntentionShared));
  }

  // Index path: an equality probe on the secondary-indexed column resolves
  // to candidate record ids instead of a full scan. Its compiled interval
  // holds exactly the keys equal to the constant, whatever its type.
  use_index_ = false;
  if (obj_->secondary != nullptr) {
    for (size_t i = 0; i < spec_.predicate.conjuncts().size(); ++i) {
      const CompiledConjunct& c = conjuncts_[i];
      if (c.op == CompareOp::kEq && c.kind == CompiledConjunct::Kind::kInt &&
          !c.negate &&
          obj_->schema.column(c.col).name == obj_->secondary->column()) {
        HARBOR_RETURN_NOT_OK(store_->EnsureIndex(obj_));
        candidates_ = obj_->secondary->LookupRange(c.lo, c.hi);
        use_index_ = true;
        break;
      }
    }
  }
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

Result<std::vector<Tuple>> SeqScanOperator::Collect() {
  HARBOR_RETURN_NOT_OK(Open());
  std::vector<Tuple> rows;
  if (use_index_) {
    HARBOR_RETURN_NOT_OK(ScanCandidates(&rows));
  } else {
    HARBOR_RETURN_NOT_OK(ScanSegments(nullptr, &rows));
  }
  return rows;
}

Result<std::vector<VersionKey>> SeqScanOperator::ScanKeys() {
  HARBOR_RETURN_NOT_OK(Open());
  std::vector<VersionKey> keys;
  HARBOR_RETURN_NOT_OK(ScanSegments(&keys, nullptr));
  return keys;
}

Status SeqScanOperator::ScanSegments(std::vector<VersionKey>* keys,
                                     std::vector<Tuple>* rows) {
  for (size_t seg = 0; seg < obj_->file->num_segments(); ++seg) {
    if (!SegmentNeeded(seg)) {
      ++segments_pruned_;
      continue;
    }
    ++segments_visited_;
    if (rows != nullptr && ColumnarEligible(seg)) {
      HARBOR_ASSIGN_OR_RETURN(const bool served, ScanColumnarSegment(seg, rows));
      if (served) continue;
      // Image build failed: the row pages below stay the fallback.
    }
    for (const PageId& pid : obj_->file->PagesOfSegment(seg)) {
      HARBOR_RETURN_NOT_OK(
          ScanPage(pid, /*sequential=*/true, nullptr, 0, keys, rows));
    }
  }
  return Status::OK();
}

Status SeqScanOperator::ScanPage(PageId pid, bool sequential,
                                 const uint32_t* slots, size_t n,
                                 std::vector<VersionKey>* keys,
                                 std::vector<Tuple>* rows) {
  if (locking_ == ScanLocking::kPageLocks) {
    HARBOR_RETURN_NOT_OK(store_->lock_manager()->AcquirePageLock(
        owner_, pid, LockMode::kShared));
  }
  HARBOR_ASSIGN_OR_RETURN(PageHandle handle,
                          store_->buffer_pool()->GetPage(pid, sequential));
  ++pages_visited_;
  PageLatchGuard latch(handle);
  const uint32_t stride = obj_->schema.tuple_bytes();
  HeapPage view(handle.data(), stride);
  const uint16_t cap = view.capacity();  // 0 on a never-initialized page
  // The selection vector starts as the occupied slots.
  sel_.resize(slots == nullptr ? cap : n);
  size_t k = 0;
  if (slots == nullptr) {
    for (uint16_t s = 0; s < cap; ++s) {
      sel_[k] = s;
      k += view.IsOccupied(s) ? 1 : 0;
    }
  } else {
    for (size_t i = 0; i < n; ++i) {
      if (slots[i] < cap && view.IsOccupied(static_cast<uint16_t>(slots[i]))) {
        sel_[k++] = slots[i];
      }
    }
  }
  k = FilterPackedSlots(conjuncts_, obj_->schema, view.TupleData(0), stride,
                        sel_.data(), k);
  for (size_t i = 0; i < k; ++i) {
    const uint16_t slot = static_cast<uint16_t>(sel_[i]);
    const uint8_t* data = view.TupleData(slot);
    const PackedSystemHeader h = PackedSystemHeader::Read(data);
    Timestamp del = h.deletion_ts;
    if (!spec_.Admits(h.insertion_ts, &del)) continue;
    const RecordId rid{pid, slot};
    if (rows == nullptr) {
      keys->push_back(VersionKey{h.insertion_ts, del, h.tuple_id, rid});
      continue;
    }
    Tuple t = Tuple::Unpack(obj_->schema, data);
    t.set_deletion_ts(del);  // present the snapshot view
    t.set_record_id(rid);
    rows->push_back(std::move(t));
  }
  return Status::OK();
}

Status SeqScanOperator::ScanCandidates(std::vector<Tuple>* rows) {
  std::vector<uint32_t> slots;
  for (size_t i = 0; i < candidates_.size();) {
    const PageId page = candidates_[i].page;
    slots.clear();
    for (; i < candidates_.size() && candidates_[i].page == page; ++i) {
      slots.push_back(candidates_[i].slot);
    }
    // Segment pruning applies to index probes as well.
    auto seg = obj_->file->SegmentOfPage(page.page_no);
    if (!seg.ok() || !SegmentNeeded(*seg)) continue;
    HARBOR_RETURN_NOT_OK(ScanPage(page, /*sequential=*/false, slots.data(),
                                  slots.size(), nullptr, rows));
  }
  return Status::OK();
}

bool SeqScanOperator::ColumnarEligible(size_t seg) const {
  if (!obj_->columnar) return false;
  // Only sealed segments have a stable tuple set worth encoding; the open
  // (tail) segment keeps receiving inserts and stays row-format.
  return seg + 1 < obj_->file->num_segments();
}

Result<bool> SeqScanOperator::ScanColumnarSegment(size_t seg,
                                                  std::vector<Tuple>* rows) {
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
  const VectorScanResult r =
      ScanColumnarImage(image->get(), spec_, conjuncts_, rows);
  ++columnar_segments_;
  if (r.zone_pruned) ++zone_pruned_segments_;
  if (r.used_adaptive_index) ++adaptive_index_probes_;
  return true;
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
