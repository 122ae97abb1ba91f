#ifndef HARBOR_EXEC_VECTOR_SCAN_H_
#define HARBOR_EXEC_VECTOR_SCAN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "exec/scan_spec.h"
#include "storage/columnar_segment.h"

namespace harbor {

/// Equality probes against one dictionary column before the per-segment
/// code->rows adaptive index is built for it.
inline constexpr uint32_t kAdaptiveIndexThreshold = 4;

/// \brief One conjunct of a scan (a predicate comparison or the partition
/// range), compiled once against its column's type.
///
/// Predicates compare through Value::operator<, which widens numerics to
/// double. (double)x is monotone in an integer x, so each operator against
/// any numeric constant (NaN and infinities included) keeps exactly one
/// integer interval of x, or its complement: kInt tests that interval on the
/// stored integer. kDouble keeps the double comparison; kChar compares
/// strings, on packed bytes where that is provably the same.
struct CompiledConjunct {
  enum class Kind : uint8_t { kInt, kDouble, kChar };
  Kind kind = Kind::kInt;
  size_t col = 0;
  CompareOp op = CompareOp::kEq;
  Value rhs;  // the predicate's constant; unused by a range
  // kInt: x qualifies iff (lo <= x && x <= hi) != negate; lo <= hi.
  int64_t lo = 0;
  int64_t hi = 0;
  bool negate = false;
  double num = 0.0;  // kDouble: the widened constant
  // kChar: when set, `packed` is the constant NUL-padded to the column
  // width, and memcmp on packed slots orders exactly as the unpacked
  // strings do: the constant has no NUL and fits the width, and Tuple::Pack
  // leaves only NULs after a slot's first NUL.
  bool packable = false;
  std::string packed;

  /// The conjunct on one value of the column's type.
  bool Matches(const Value& v) const;
};

/// Compiles the spec's predicate and partition range against `schema`: one
/// conjunct per predicate comparison, in order, then the range's (when the
/// range is not full). O(1) per conjunct except for integer columns compared
/// with a constant of magnitude >= 2^53, which take a 64-step search. Fails
/// when a column is missing, a conjunct compares CHAR with a number, or the
/// range's column is not an integer.
Result<std::vector<CompiledConjunct>> CompileConjuncts(const ScanSpec& spec,
                                                       const Schema& schema);

/// Keeps the entries of `sel` (slot numbers, ascending) whose packed tuple at
/// `base + slot * stride` satisfies every conjunct; returns the new count.
size_t FilterPackedSlots(const std::vector<CompiledConjunct>& conjuncts,
                         const Schema& schema, const uint8_t* base,
                         uint32_t stride, uint32_t* sel, size_t n);

/// Outcome of one columnar segment scan (feeds SeqScanOperator's counters
/// and the ablation bench).
struct VectorScanResult {
  bool zone_pruned = false;
  bool used_adaptive_index = false;
  size_t rows_scanned = 0;  // candidate rows the conjuncts examined
  size_t rows_matched = 0;
};

/// \brief Runs a compiled scan over one encoded (columnar) segment,
/// appending qualifying rows to `out` in page/slot order, the row path's
/// order.
///
///  - zone (min/max) stats prune whole segments before touching any row;
///  - the candidate rows are every row, or the adaptive index's row lists
///    once a dictionary column saw >= kAdaptiveIndexThreshold eq probes;
///  - each conjunct filters a selection vector of rows: dictionary columns
///    through a per-code table, frame-of-reference columns by the integer
///    interval shifted by the frame's base onto the codes, plain doubles
///    by the double compare;
///  - occupancy, visibility and the timestamp conjuncts read the segment's
///    mutable arrays for the survivors only.
VectorScanResult ScanColumnarImage(
    ColumnarSegment* seg, const ScanSpec& spec,
    const std::vector<CompiledConjunct>& conjuncts, std::vector<Tuple>* out);

}  // namespace harbor

#endif  // HARBOR_EXEC_VECTOR_SCAN_H_
