#ifndef HARBOR_EXEC_SEQ_SCAN_H_
#define HARBOR_EXEC_SEQ_SCAN_H_

#include <vector>

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
/// The spec's predicate and partition range compile once into typed
/// conjuncts (CompileConjuncts) that run batch-at-a-time over a selection
/// vector: per row page, the occupied slots are filtered by the conjuncts at
/// the packed fields, then by visibility on the headers of the survivors,
/// and only rows that pass become Tuples. Sealed segments of a columnar
/// object run the same conjuncts over their encoded vectors
/// (ScanColumnarImage).
///
/// When the object maintains a secondary index on a column that the spec's
/// predicate probes with equality, the scan switches to an index lookup:
/// the candidate record ids of each page become that page's selection
/// vector (the "indexed update queries" of §6.1.5 use this path).
class SeqScanOperator {
 public:
  SeqScanOperator(VersionStore* store, TableObject* obj, ScanSpec spec,
                  LockOwnerId owner = 0,
                  ScanLocking locking = ScanLocking::kNone);

  /// Runs the whole scan and returns the qualifying tuples in storage order
  /// (in index-candidate order on the index path).
  Result<std::vector<Tuple>> Collect();

  /// Runs the whole scan key-only: the system header of every qualifying
  /// version in the segments the spec's timestamp predicates leave, read
  /// from the authoritative row pages of either layout (so no columnar
  /// image is built), with the same filters as Collect(). Builds no Tuple.
  /// Keys come in storage order.
  Result<std::vector<VersionKey>> ScanKeys();

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

 private:
  /// Compiles the spec, takes the table lock and picks the index path.
  Status Open();
  bool SegmentNeeded(size_t seg) const;
  /// Scans every needed segment; appends keys to `keys`, or tuples to
  /// `rows` when that is non-null (then sealed columnar segments are served
  /// from their images).
  Status ScanSegments(std::vector<VersionKey>* keys, std::vector<Tuple>* rows);
  /// Runs the compiled scan over the occupied slots of page `pid` (all of
  /// them, or the `n` listed in `slots`) and appends the survivors as in
  /// ScanSegments. The one per-slot loop of the row layout.
  Status ScanPage(PageId pid, bool sequential, const uint32_t* slots,
                  size_t n, std::vector<VersionKey>* keys,
                  std::vector<Tuple>* rows);
  /// The index path: each page's run of candidates is one selection vector.
  Status ScanCandidates(std::vector<Tuple>* rows);
  /// True when `seg` should be served from its columnar image.
  bool ColumnarEligible(size_t seg) const;
  /// Serves one sealed segment from its columnar image; false means the
  /// image could not be built and the caller should fall back to row pages.
  Result<bool> ScanColumnarSegment(size_t seg, std::vector<Tuple>* rows);

  VersionStore* const store_;
  TableObject* const obj_;
  const ScanSpec spec_;
  const LockOwnerId owner_;
  const ScanLocking locking_;

  std::vector<CompiledConjunct> conjuncts_;
  std::vector<uint32_t> sel_;  // the current page's selection vector

  bool use_index_ = false;
  std::vector<RecordId> candidates_;

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
