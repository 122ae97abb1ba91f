#include "exec/vector_scan.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <numeric>
#include <string_view>

namespace harbor {

namespace {

template <typename T>
T Load(const uint8_t* p) {
  T v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

constexpr int64_t kMinI64 = std::numeric_limits<int64_t>::min();
constexpr int64_t kMaxI64 = std::numeric_limits<int64_t>::max();

/// Largest x in [tmin, tmax] with (double)x < d when `strict`, else with
/// !(d < (double)x) — CompareNumeric's kLt and kLe. Both keep a prefix of
/// the integers because (double)x is monotone in x. False when none does.
bool LastQualifying(double d, bool strict, int64_t tmin, int64_t tmax,
                    int64_t* out) {
  if (std::fabs(d) < 9007199254740992.0) {  // 2^53
    // Integers of magnitude <= 2^53 convert exactly, so the boundary is
    // floor(d), one lower when a strict test meets an integral d.
    const double f = std::floor(d);
    int64_t x = static_cast<int64_t>(f);
    if (strict && f == d) --x;
    if (x < tmin) return false;
    *out = std::min(x, tmax);
    return true;
  }
  // NaN, the infinities and far constants: search the prefix's end.
  const auto holds = [&](int64_t x) {
    const double dx = static_cast<double>(x);
    return strict ? dx < d : !(d < dx);
  };
  if (!holds(tmin)) return false;
  int64_t lo = tmin;  // holds(lo)
  int64_t hi = tmax;
  while (lo < hi) {
    const uint64_t span =
        static_cast<uint64_t>(hi) - static_cast<uint64_t>(lo);
    const int64_t mid = static_cast<int64_t>(static_cast<uint64_t>(lo) +
                                             span / 2 + (span & 1));
    if (holds(mid)) {
      lo = mid;
    } else {
      hi = mid - 1;
    }
  }
  *out = lo;
  return true;
}

/// Sets `c`'s interval to the x in [tmin, tmax] for which CompareNumeric(x,
/// op, d) holds. With Lt = [tmin, a] and Le = [tmin, b], the operators are
/// exact set identities: Gt = !Le, Ge = !Lt, Eq = Le \ Lt = (a, b],
/// Ne = !Eq. An empty set is the complement of every int64.
void CompileInterval(double d, CompareOp op, int64_t tmin, int64_t tmax,
                     CompiledConjunct* c) {
  int64_t a = 0, b = 0;
  const bool has_a = LastQualifying(d, /*strict=*/true, tmin, tmax, &a);
  const bool has_b = LastQualifying(d, /*strict=*/false, tmin, tmax, &b);
  bool empty = false;
  c->lo = tmin;
  switch (op) {
    case CompareOp::kLt:
    case CompareOp::kGe:
      empty = !has_a;
      c->hi = a;
      c->negate = op == CompareOp::kGe;
      break;
    case CompareOp::kLe:
    case CompareOp::kGt:
      empty = !has_b;
      c->hi = b;
      c->negate = op == CompareOp::kGt;
      break;
    case CompareOp::kEq:
    case CompareOp::kNe:
      empty = !has_b || (has_a && a == b);
      if (has_a && !empty) c->lo = a + 1;
      c->hi = b;
      c->negate = op == CompareOp::kNe;
      break;
  }
  if (empty) {
    c->lo = kMinI64;
    c->hi = kMaxI64;
    c->negate = !c->negate;
  }
}

bool InInterval(const CompiledConjunct& c, int64_t x) {
  return (static_cast<uint64_t>(x) - static_cast<uint64_t>(c.lo) <=
          static_cast<uint64_t>(c.hi) - static_cast<uint64_t>(c.lo)) !=
         c.negate;
}

/// `op` applied to a three-way comparison result.
bool Holds(CompareOp op, int cmp) {
  switch (op) {
    case CompareOp::kEq: return cmp == 0;
    case CompareOp::kNe: return cmp != 0;
    case CompareOp::kLt: return cmp < 0;
    case CompareOp::kLe: return cmp <= 0;
    case CompareOp::kGt: return cmp > 0;
    case CompareOp::kGe: return cmp >= 0;
  }
  return false;
}

/// Compacts the selection vector to the entries `keep` accepts, branch-free.
template <typename Keep>
size_t Filter(uint32_t* sel, size_t n, Keep keep) {
  size_t k = 0;
  for (size_t i = 0; i < n; ++i) {
    const uint32_t r = sel[i];
    sel[k] = r;
    k += keep(r) ? 1 : 0;
  }
  return k;
}

/// Filter over a fitted code vector, one loop per code width.
template <typename Keep>
size_t FilterCodes(const FittedVector& codes, uint32_t* sel, size_t n,
                   Keep keep) {
  const uint8_t* d = codes.data();
  switch (codes.width()) {
    case 0:
      return keep(uint64_t{0}) ? n : 0;
    case 1:
      return Filter(sel, n, [&](uint32_t r) { return keep(uint64_t{d[r]}); });
    case 2:
      return Filter(sel, n, [&](uint32_t r) {
        return keep(uint64_t{Load<uint16_t>(d + 2 * size_t{r})});
      });
    case 4:
      return Filter(sel, n, [&](uint32_t r) {
        return keep(uint64_t{Load<uint32_t>(d + 4 * size_t{r})});
      });
    default:
      return Filter(sel, n, [&](uint32_t r) {
        return keep(Load<uint64_t>(d + 8 * size_t{r}));
      });
  }
}

/// Filters rows of one encoded column; `table` is the per-code result of a
/// dictionary column.
size_t FilterEncoded(const CompiledConjunct& c, const EncodedColumn& col,
                     const std::vector<uint8_t>& table, uint32_t* sel,
                     size_t n) {
  switch (col.encoding) {
    case EncodedColumn::Encoding::kDictionary:
      return FilterCodes(col.codes, sel, n,
                         [&](uint64_t code) { return table[code] != 0; });
    case EncodedColumn::Encoding::kFrameOfReference: {
      // x = for_base + code, and InInterval's unsigned test is invariant
      // under shifting both sides modulo 2^64: shift the interval onto the
      // codes.
      const uint64_t lo =
          static_cast<uint64_t>(c.lo) - static_cast<uint64_t>(col.for_base);
      const uint64_t span =
          static_cast<uint64_t>(c.hi) - static_cast<uint64_t>(c.lo);
      const bool negate = c.negate;
      return FilterCodes(col.codes, sel, n, [&](uint64_t code) {
        return (code - lo <= span) != negate;
      });
    }
    case EncodedColumn::Encoding::kPlainDouble:
      return Filter(sel, n, [&](uint32_t r) {
        return CompareNumeric(col.plain[r], c.op, c.num);
      });
  }
  return n;
}

/// True when the column's zone (min/max) proves no row satisfies `c`.
bool ZonePrunes(const CompiledConjunct& c, const EncodedColumn& col) {
  if (!col.has_zone) return false;
  if (c.kind == CompiledConjunct::Kind::kInt) {
    const int64_t zmin = col.zone_min.AsInteger();
    const int64_t zmax = col.zone_max.AsInteger();
    if (c.negate) return c.lo <= zmin && zmax <= c.hi;
    return zmax < c.lo || c.hi < zmin;
  }
  switch (c.op) {
    case CompareOp::kEq:
      return CompareValues(c.rhs, CompareOp::kLt, col.zone_min) ||
             CompareValues(col.zone_max, CompareOp::kLt, c.rhs);
    case CompareOp::kLt:
      return CompareValues(col.zone_min, CompareOp::kGe, c.rhs);
    case CompareOp::kLe:
      return CompareValues(col.zone_min, CompareOp::kGt, c.rhs);
    case CompareOp::kGt:
      return CompareValues(col.zone_max, CompareOp::kLe, c.rhs);
    case CompareOp::kGe:
      return CompareValues(col.zone_max, CompareOp::kLt, c.rhs);
    case CompareOp::kNe:
      return false;
  }
  return false;
}

}  // namespace

bool CompiledConjunct::Matches(const Value& v) const {
  switch (kind) {
    case Kind::kInt: return InInterval(*this, v.AsInteger());
    case Kind::kDouble: return CompareNumeric(v.AsDouble(), op, num);
    case Kind::kChar: return Holds(op, v.AsString().compare(rhs.AsString()));
  }
  return false;
}

Result<std::vector<CompiledConjunct>> CompileConjuncts(const ScanSpec& spec,
                                                       const Schema& schema) {
  std::vector<CompiledConjunct> out;
  for (const ColumnPredicate& p : spec.predicate.conjuncts()) {
    CompiledConjunct c;
    HARBOR_ASSIGN_OR_RETURN(c.col, schema.ColumnIndex(p.column));
    const Column& column = schema.column(c.col);
    if ((column.type == ColumnType::kChar) !=
        (p.value.type() == ColumnType::kChar)) {
      return Status::InvalidArgument("predicate " + p.ToString() +
                                     " compares CHAR with a number");
    }
    c.op = p.op;
    c.rhs = p.value;
    switch (column.type) {
      case ColumnType::kInt32:
        CompileInterval(p.value.AsNumeric(), p.op,
                        std::numeric_limits<int32_t>::min(),
                        std::numeric_limits<int32_t>::max(), &c);
        break;
      case ColumnType::kInt64:
        CompileInterval(p.value.AsNumeric(), p.op, kMinI64, kMaxI64, &c);
        break;
      case ColumnType::kDouble:
        c.kind = CompiledConjunct::Kind::kDouble;
        c.num = p.value.AsNumeric();
        break;
      case ColumnType::kChar: {
        c.kind = CompiledConjunct::Kind::kChar;
        const std::string& s = p.value.AsString();
        // NUL padding sorts below every byte of a NUL-free constant, and a
        // packed slot holds only NULs after its string (Tuple::Pack), so the
        // padded images order as the strings do.
        c.packable = s.size() <= column.width &&
                     s.find('\0') == std::string::npos;
        if (c.packable) {
          c.packed = s;
          c.packed.resize(column.width, '\0');
        }
        break;
      }
    }
    out.push_back(std::move(c));
  }
  if (!spec.range.IsFull()) {
    CompiledConjunct c;
    HARBOR_ASSIGN_OR_RETURN(c.col, schema.ColumnIndex(spec.range.column));
    const ColumnType type = schema.column(c.col).type;
    if (type != ColumnType::kInt32 && type != ColumnType::kInt64) {
      return Status::InvalidArgument("partition range on non-integer column " +
                                     spec.range.column);
    }
    if (spec.range.lo < spec.range.hi) {  // [lo, hi) as [lo, hi - 1]
      c.lo = spec.range.lo;
      c.hi = spec.range.hi - 1;
    } else {
      c.lo = kMinI64;
      c.hi = kMaxI64;
      c.negate = true;
    }
    out.push_back(std::move(c));
  }
  return out;
}

size_t FilterPackedSlots(const std::vector<CompiledConjunct>& conjuncts,
                         const Schema& schema, const uint8_t* base,
                         uint32_t stride, uint32_t* sel, size_t n) {
  for (const CompiledConjunct& c : conjuncts) {
    if (n == 0) break;
    const Column& column = schema.column(c.col);
    const uint8_t* field =
        base + kTupleSystemHeaderBytes + schema.ColumnOffset(c.col);
    const auto at = [&](uint32_t slot) {
      return field + static_cast<size_t>(slot) * stride;
    };
    switch (c.kind) {
      case CompiledConjunct::Kind::kInt:
        if (column.type == ColumnType::kInt32) {
          n = Filter(sel, n, [&](uint32_t s) {
            return InInterval(c, Load<int32_t>(at(s)));
          });
        } else {
          n = Filter(sel, n, [&](uint32_t s) {
            return InInterval(c, Load<int64_t>(at(s)));
          });
        }
        break;
      case CompiledConjunct::Kind::kDouble:
        n = Filter(sel, n, [&](uint32_t s) {
          return CompareNumeric(Load<double>(at(s)), c.op, c.num);
        });
        break;
      case CompiledConjunct::Kind::kChar:
        if (c.packable) {
          n = Filter(sel, n, [&](uint32_t s) {
            return Holds(c.op, std::memcmp(at(s), c.packed.data(),
                                           column.width));
          });
        } else {
          // Unpack this one column: the string ends at the first NUL.
          n = Filter(sel, n, [&](uint32_t s) {
            const char* p = reinterpret_cast<const char*>(at(s));
            const void* nul = std::memchr(p, 0, column.width);
            const std::string_view v(
                p, nul == nullptr ? column.width
                                  : static_cast<const char*>(nul) - p);
            return Holds(c.op, v.compare(c.rhs.AsString()));
          });
        }
        break;
    }
  }
  return n;
}

VectorScanResult ScanColumnarImage(
    ColumnarSegment* seg, const ScanSpec& spec,
    const std::vector<CompiledConjunct>& conjuncts, std::vector<Tuple>* out) {
  VectorScanResult result;
  SegmentScanStats& stats = seg->stats();
  stats.scans.fetch_add(1, std::memory_order_relaxed);
  if (seg->num_rows() == 0) return result;
  for (const CompiledConjunct& c : conjuncts) {
    if (ZonePrunes(c, seg->column(c.col))) {
      stats.zone_prunes.fetch_add(1, std::memory_order_relaxed);
      result.zone_pruned = true;
      return result;
    }
  }

  // Dictionary columns evaluate the conjunct once per distinct value. An
  // equality among the predicate's conjuncts (the range's comes after them)
  // also feeds the column's adaptive index.
  const size_t num_predicates = spec.predicate.conjuncts().size();
  std::vector<std::vector<uint8_t>> tables(conjuncts.size());
  int driver = -1;  // conjunct driving an adaptive-index probe
  for (size_t i = 0; i < conjuncts.size(); ++i) {
    const CompiledConjunct& c = conjuncts[i];
    const EncodedColumn& col = seg->column(c.col);
    if (col.encoding != EncodedColumn::Encoding::kDictionary) continue;
    // Unoccupied rows hold code 0, even in an empty dictionary.
    tables[i].assign(std::max<size_t>(col.dict.size(), 1), 0);
    for (size_t code = 0; code < col.dict.size(); ++code) {
      tables[i][code] = c.Matches(col.dict[code]) ? 1 : 0;
    }
    if (i < num_predicates && c.op == CompareOp::kEq) {
      if (seg->NoteEqProbe(c.col) >= kAdaptiveIndexThreshold) {
        seg->MaybeBuildAdaptiveIndex(c.col, kAdaptiveIndexThreshold);
      }
      if (driver < 0 && seg->HasAdaptiveIndex(c.col)) {
        driver = static_cast<int>(i);
      }
    }
  }

  // Candidate rows: the adaptive index's row lists for the driver's
  // qualifying codes, or every row.
  std::vector<uint32_t> sel;
  if (driver >= 0) {
    const size_t d = static_cast<size_t>(driver);
    for (size_t code = 0; code < seg->column(conjuncts[d].col).dict.size();
         ++code) {
      if (!tables[d][code]) continue;
      const std::vector<uint32_t>* rows =
          seg->AdaptiveRows(conjuncts[d].col, code);
      if (rows != nullptr) sel.insert(sel.end(), rows->begin(), rows->end());
    }
    std::sort(sel.begin(), sel.end());
    result.used_adaptive_index = true;
    stats.index_probes.fetch_add(1, std::memory_order_relaxed);
  } else {
    sel.resize(seg->num_rows());
    std::iota(sel.begin(), sel.end(), uint32_t{0});
  }
  result.rows_scanned = sel.size();

  size_t n = sel.size();
  for (size_t i = 0; i < conjuncts.size(); ++i) {
    n = FilterEncoded(conjuncts[i], seg->column(conjuncts[i].col), tables[i],
                      sel.data(), n);
  }
  n = Filter(sel.data(), n, [&](uint32_t r) { return seg->occupied(r); });
  for (size_t k = 0; k < n; ++k) {
    const uint32_t row = sel[k];
    // Materialize with the timestamps the filter saw, not a re-read of the
    // atomics (a concurrent commit stamp could land in between).
    const Timestamp ins = seg->insertion_ts(row);
    Timestamp del = seg->deletion_ts(row);
    if (!spec.Admits(ins, &del)) continue;
    Tuple t = seg->MaterializeRow(row);
    t.set_insertion_ts(ins);
    t.set_deletion_ts(del);  // present the snapshot view
    out->push_back(std::move(t));
    ++result.rows_matched;
  }
  stats.rows_scanned.fetch_add(result.rows_scanned,
                               std::memory_order_relaxed);
  stats.rows_matched.fetch_add(result.rows_matched,
                               std::memory_order_relaxed);
  return result;
}

}  // namespace harbor
