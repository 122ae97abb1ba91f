#ifndef HARBOR_EXEC_SCAN_SPEC_H_
#define HARBOR_EXEC_SCAN_SPEC_H_

#include <cstdint>
#include <string>

#include "common/byte_buffer.h"
#include "common/result.h"
#include "common/types.h"
#include "exec/predicate.h"
#include "storage/partition.h"

namespace harbor {

/// How a scan treats deleted tuples and timestamps (the special keywords of
/// the recovery SQL dialect in Chapter 5).
enum class ScanMode : uint8_t {
  /// Normal read: only tuples visible as of `as_of` (Chapter 3 visibility);
  /// timestamps hidden from predicates.
  kVisible = 0,
  /// SEE DELETED: delete-filtering off; insertion/deletion timestamps behave
  /// as ordinary fields (recovery reads both present and deleted tuples).
  kSeeDeleted = 1,
  /// SEE DELETED HISTORICAL WITH TIME as_of: tuples inserted after `as_of`
  /// are invisible; deletions after `as_of` appear undone (deletion time
  /// reads as 0) — §5.3's snapshot semantics.
  kSeeDeletedHistorical = 2,
};

/// \brief A serializable single-table scan plan, executable locally or
/// shipped to a remote site (the SELECT REMOTELY of Chapter 5).
///
/// Captures the recovery dialect: scan mode, range predicates on the system
/// timestamp fields (which the segment directory can prune against), a
/// partition-range recovery predicate, and an ordinary column-predicate
/// conjunction.
struct ScanSpec {
  ObjectId object_id = 0;
  ScanMode mode = ScanMode::kVisible;
  /// Snapshot time for kVisible and kSeeDeletedHistorical.
  Timestamp as_of = 0;

  // Range predicates on system fields; 0 = absent. The uncommitted sentinel
  // is numerically greater than any timestamp, so `insertion_after`
  // naturally matches uncommitted tuples (§5.2) unless exclude_uncommitted
  // is set (§5.4.1's insertion_time != uncommitted).
  bool has_insertion_at_or_before = false;
  Timestamp insertion_at_or_before = 0;
  bool has_insertion_after = false;
  Timestamp insertion_after = 0;
  bool has_deletion_after = false;
  Timestamp deletion_after = 0;
  bool exclude_uncommitted = false;

  /// Recovery predicate from the catalog: restricts to a key range.
  PartitionRange range = PartitionRange::Full();

  /// Additional user predicate.
  Predicate predicate;

  /// Applies the mode's visibility and the timestamp conjuncts to one
  /// version's system fields. On success `*del` holds the deletion time as
  /// the scan presents it (a historical scan shows later deletions undone).
  bool Admits(Timestamp ins, Timestamp* del) const {
    switch (mode) {
      case ScanMode::kVisible:
        if (ins == kUncommittedTimestamp || ins > as_of) return false;
        if (*del != kNotDeleted && *del <= as_of) return false;
        break;
      case ScanMode::kSeeDeleted:
        break;
      case ScanMode::kSeeDeletedHistorical:
        if (ins > as_of) return false;  // includes uncommitted
        if (*del > as_of) *del = kNotDeleted;
        break;
    }
    if (has_insertion_at_or_before && ins > insertion_at_or_before) {
      return false;
    }
    if (has_insertion_after && ins <= insertion_after) return false;
    if (has_deletion_after && *del <= deletion_after) return false;
    return !(exclude_uncommitted && ins == kUncommittedTimestamp);
  }

  void Serialize(ByteBufferWriter* out) const;
  static Result<ScanSpec> Deserialize(ByteBufferReader* in);
  std::string ToString() const;
};

}  // namespace harbor

#endif  // HARBOR_EXEC_SCAN_SPEC_H_
