#ifndef HARBOR_EXEC_SEQ_SCAN_H_
#define HARBOR_EXEC_SEQ_SCAN_H_

#include <deque>
#include <vector>

#include "exec/operator.h"
#include "exec/scan_spec.h"
#include "exec/vector_scan.h"
#include "lock/lock_manager.h"
#include "storage/local_catalog.h"
#include "txn/version_store.h"

namespace harbor {

/// Whether the scan participates in locking. Historical and SEE DELETED
/// recovery scans run lock-free (§3.3, §5.3); up-to-date reads take an
/// intention-shared table lock plus shared page locks (strict 2PL, §6.1.2).
/// kSnapshot is the default read path: a kVisible scan at a stable snapshot
/// timestamp that — like kNone — touches the LockManager not at all, but is
/// accounted separately so tests and benches can prove the bypass.
enum class ScanLocking : uint8_t { kNone = 0, kPageLocks = 1, kSnapshot = 2 };

/// \brief Scan over a segmented table object, with tuple visibility /
/// SEE DELETED / HISTORICAL semantics and segment pruning driven by the
/// spec's timestamp range predicates (§4.2).
///
/// When the object maintains a secondary index on a column that the spec's
/// predicate probes with equality, the scan switches to an index lookup:
/// per-segment index probes produce candidate record ids, which are then
/// run through exactly the same visibility and predicate filters (the
/// "indexed update queries" of §6.1.5 use this path).
class SeqScanOperator : public Operator {
 public:
  SeqScanOperator(VersionStore* store, TableObject* obj, ScanSpec spec,
                  LockOwnerId owner = 0,
                  ScanLocking locking = ScanLocking::kNone);

  Status Open() override;
  Result<std::optional<Tuple>> Next() override;
  Status Rewind() override;
  const Schema& schema() const override { return obj_->schema; }

  /// Pruning effectiveness counters (exercised by tests and the segment
  /// ablation bench).
  size_t segments_visited() const { return segments_visited_; }
  size_t segments_pruned() const { return segments_pruned_; }
  size_t pages_visited() const { return pages_visited_; }
  /// Sealed segments served from their columnar image (no page access).
  size_t columnar_segments() const { return columnar_segments_; }
  /// Columnar segments skipped entirely by zone (min/max) stats.
  size_t zone_pruned_segments() const { return zone_pruned_segments_; }
  /// Columnar segments resolved through a per-segment adaptive eq index.
  size_t adaptive_index_probes() const { return adaptive_index_probes_; }
  /// True when this scan resolved through the secondary index.
  bool used_index() const { return use_index_; }

  /// Runs the whole scan key-only: opens it, then reads the system header of
  /// every occupied slot in the segments the spec's timestamp predicates
  /// leave (on the authoritative row pages of either layout, so no columnar
  /// image is built) and applies the same visibility, timestamp, range and
  /// column filters as Next(). Builds no Tuple unless the predicate has a
  /// conjunct that packed bytes cannot answer. Keys come in storage order.
  Result<std::vector<VersionKey>> ScanKeys();

 private:
  /// A cheap predicate probe evaluated on packed row bytes before a slot is
  /// unpacked into a Tuple: numeric column vs numeric constant, compared
  /// through the same double widening CompareValues applies.
  struct PackedProbe {
    uint32_t offset = 0;  // byte offset of the column within the slot
    ColumnType type = ColumnType::kInt64;
    CompareOp op = CompareOp::kEq;
    double rhs_num = 0.0;
  };

  bool SegmentNeeded(size_t seg) const;
  Status LoadNextBatch();
  Status LoadCandidateBatch();
  /// Applies the spec's visibility, timestamp and range predicates and the
  /// packed numeric probes to the bytes of the occupied slot at `rid`; on
  /// success `key` holds its system fields as the scan presents them.
  bool SlotQualifies(const uint8_t* data, RecordId rid, VersionKey* key) const;
  /// SlotQualifies plus the full column predicate on the unpacked tuple;
  /// appends the qualifying tuple to the batch.
  void EvaluateSlot(const uint8_t* data, PageId pid, uint16_t slot);
  /// True when `seg` should be served from its columnar image.
  bool ColumnarEligible(size_t seg) const;
  /// Serves one sealed segment from its columnar image; false means the
  /// image could not be built and the caller should fall back to row pages.
  Result<bool> ScanColumnarSegment(size_t seg);

  VersionStore* const store_;
  TableObject* const obj_;
  const ScanSpec spec_;
  const LockOwnerId owner_;
  const ScanLocking locking_;

  std::vector<size_t> bound_predicate_;
  int range_column_ = -1;  // index of spec_.range.column, -1 if full
  std::vector<PackedProbe> packed_probes_;

  size_t current_segment_ = 0;
  std::vector<PageId> segment_pages_;
  size_t current_page_ = 0;
  std::deque<Tuple> batch_;
  bool open_ = false;
  bool exhausted_ = false;

  bool use_index_ = false;
  std::vector<RecordId> candidates_;
  size_t current_candidate_ = 0;

  size_t segments_visited_ = 0;
  size_t segments_pruned_ = 0;
  size_t pages_visited_ = 0;
  size_t columnar_segments_ = 0;
  size_t zone_pruned_segments_ = 0;
  size_t adaptive_index_probes_ = 0;
};

/// Continuation cursor for chunked recovery scans: a position in the strict
/// (insertion_ts, tuple_id) order. `valid` false means "start from the
/// beginning". The pair is replica-independent (record ids are not), so a
/// stream interrupted on one buddy can resume against another.
struct ScanCursor {
  bool valid = false;
  Timestamp insertion_ts = 0;
  TupleId tuple_id = 0;
};

/// Key-first chunk selection for chunked recovery scans: drops the keys at
/// or before `after`, keeps the `max_tuples` smallest (insertion_ts,
/// tuple_id) keys and sorts them ascending. A chunk never ends in the middle
/// of a group of versions sharing one key (an update re-inserting a
/// tuple_id at its own commit time creates such groups), so it may exceed
/// max_tuples by the tie group's size; this is what makes its last key an
/// exact resume point. max_tuples == 0 keeps everything. Returns true when
/// qualifying keys beyond the chunk were dropped.
bool SelectChunk(std::vector<VersionKey>* keys, const ScanCursor& after,
                 size_t max_tuples);

}  // namespace harbor

#endif  // HARBOR_EXEC_SEQ_SCAN_H_
