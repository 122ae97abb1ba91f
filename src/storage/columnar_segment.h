#ifndef HARBOR_STORAGE_COLUMNAR_SEGMENT_H_
#define HARBOR_STORAGE_COLUMNAR_SEGMENT_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "common/types.h"
#include "storage/schema.h"
#include "storage/tuple.h"

namespace harbor {

/// \brief An unsigned integer vector whose entries are stored with the
/// smallest fixed byte width (0/1/2/4/8) that fits the largest value — the
/// "fitted attribute vector" of column stores. Width 0 means every entry is
/// zero and no storage is used.
class FittedVector {
 public:
  /// Smallest width whose range covers `max_value`.
  static uint8_t WidthFor(uint64_t max_value);

  void Init(uint8_t width, size_t n);
  uint64_t Get(size_t i) const;
  void Set(size_t i, uint64_t v);

  uint8_t width() const { return width_; }
  size_t size() const { return n_; }
  /// Entry i is the little-endian `width()`-byte word at data() + i*width().
  const uint8_t* data() const { return bytes_.data(); }
  size_t byte_size() const { return bytes_.size(); }

 private:
  uint8_t width_ = 0;
  size_t n_ = 0;
  std::vector<uint8_t> bytes_;
};

/// \brief One column of a sealed segment in encoded form.
///
/// Three encodings, chosen per column at build time by encoded size:
///  - kDictionary: sorted distinct values + fitted-width codes. Always used
///    for CHAR columns; used for integer columns when the dictionary is
///    smaller than frame-of-reference.
///  - kFrameOfReference: integer columns stored as fitted-width deltas from
///    the column minimum.
///  - kPlainDouble: doubles stored verbatim (bit-preserving; NaNs make both
///    dictionary ordering and delta arithmetic treacherous).
///
/// Zone stats (min/max over the rows present at build time) permit
/// conservative segment pruning: a deleted row keeps its value, so the zone
/// only ever covers a superset of the live rows. For double columns the zone
/// is dropped when any NaN is present (NaN breaks min/max bounding).
struct EncodedColumn {
  enum class Encoding : uint8_t {
    kDictionary = 0,
    kFrameOfReference = 1,
    kPlainDouble = 2,
  };

  Encoding encoding = Encoding::kFrameOfReference;
  ColumnType type = ColumnType::kInt64;

  std::vector<Value> dict;  // kDictionary: sorted ascending, distinct
  FittedVector codes;       // dictionary codes or FOR deltas
  int64_t for_base = 0;     // kFrameOfReference
  std::vector<double> plain;  // kPlainDouble

  bool has_zone = false;
  Value zone_min;
  Value zone_max;

  /// Reconstructs the exact Value stored at `row` (bit-identical to what
  /// Tuple::Unpack of the backing row page produces).
  Value ValueAt(size_t row) const;

  size_t encoded_bytes() const;
};

/// \brief Per-segment scan statistics (SNIPPETS §2 idiom): cheap atomic
/// counters that drive the adaptive-index heuristic and the ablation bench.
struct SegmentScanStats {
  std::atomic<uint64_t> scans{0};
  std::atomic<uint64_t> zone_prunes{0};
  std::atomic<uint64_t> rows_scanned{0};
  std::atomic<uint64_t> rows_matched{0};
  std::atomic<uint64_t> index_probes{0};
  std::atomic<uint64_t> indexes_built{0};

  struct Snapshot {
    uint64_t scans = 0;
    uint64_t zone_prunes = 0;
    uint64_t rows_scanned = 0;
    uint64_t rows_matched = 0;
    uint64_t index_probes = 0;
    uint64_t indexes_built = 0;
  };
  Snapshot Read() const {
    return Snapshot{scans.load(),       zone_prunes.load(),
                    rows_scanned.load(), rows_matched.load(),
                    index_probes.load(), indexes_built.load()};
  }
};

/// \brief The columnar (PAX-style) image of one *sealed* segment.
///
/// The row-format heap pages remain the durable source of truth; this is a
/// volatile derived representation (like the tuple-id and secondary indexes)
/// rebuilt lazily after a restart. Sealed segments never receive new
/// inserts, so the encoded payload columns are immutable after Build; the
/// pieces that *can* change post-sealing — commit stamping of insertion and
/// deletion timestamps, physical deletes and rollbacks freeing slots — live
/// in mutable atomic arrays updated by VersionStore write-through hooks.
///
/// Rows are addressed densely: row r maps to slot (r % rows_per_page) of
/// page (start_page + r / rows_per_page), preserving the row path's
/// page/slot scan order exactly.
class ColumnarSegment {
 public:
  /// Builds the columnar image from latched copies of the segment's pages.
  /// `pages[i]` is the kPageSize-byte image of page (start_page + i); a
  /// never-initialized page contributes no occupied rows.
  static Result<std::shared_ptr<ColumnarSegment>> Build(
      const Schema& schema, uint32_t file_id, uint32_t start_page,
      const std::vector<std::vector<uint8_t>>& pages);

  size_t num_rows() const { return rows_; }
  uint16_t rows_per_page() const { return rows_per_page_; }
  size_t num_columns() const { return columns_.size(); }
  const EncodedColumn& column(size_t i) const { return columns_[i]; }

  RecordId RidOf(size_t row) const;
  /// Dense row index of `rid`, or -1 when the record lies outside this
  /// segment.
  int64_t RowOf(RecordId rid) const;

  bool occupied(size_t row) const {
    return occupied_[row].load(std::memory_order_acquire) != 0;
  }
  Timestamp insertion_ts(size_t row) const {
    return insertion_ts_[row].load(std::memory_order_acquire);
  }
  Timestamp deletion_ts(size_t row) const {
    return deletion_ts_[row].load(std::memory_order_acquire);
  }
  TupleId tuple_id(size_t row) const { return tuple_ids_[row]; }

  // --- Write-through hooks (VersionStore calls these with the backing page
  // latch already released; ColumnarCache's mutex serializes them against
  // Build). ---
  void SetInsertionTs(size_t row, Timestamp ts) {
    insertion_ts_[row].store(ts, std::memory_order_release);
  }
  void SetDeletionTs(size_t row, Timestamp ts) {
    deletion_ts_[row].store(ts, std::memory_order_release);
  }
  void SetOccupied(size_t row, bool occupied) {
    occupied_[row].store(occupied ? 1 : 0, std::memory_order_release);
  }

  /// Materializes row `row` exactly as the row path would: values unpacked
  /// in schema order, current timestamps, record id set.
  Tuple MaterializeRow(size_t row) const;

  // --- Adaptive per-segment equality index (dictionary columns only). ---

  /// Records an equality probe against `col`; returns the total count.
  uint32_t NoteEqProbe(size_t col);
  /// True once the code->rows index for `col` is built and readable.
  bool HasAdaptiveIndex(size_t col) const;
  /// Builds the index if the probe count crossed `threshold` (idempotent,
  /// thread-safe). Returns true when the index is ready afterwards.
  bool MaybeBuildAdaptiveIndex(size_t col, uint32_t threshold);
  /// Rows (ascending) whose code equals `code`; nullptr when absent. Only
  /// valid after HasAdaptiveIndex(col).
  const std::vector<uint32_t>* AdaptiveRows(size_t col, uint64_t code) const;

  SegmentScanStats& stats() const { return stats_; }

  /// Total bytes of the encoded payload columns (diagnostics/bench).
  size_t encoded_bytes() const;

 private:
  ColumnarSegment() = default;

  struct ColumnRuntime {
    std::atomic<uint32_t> eq_probes{0};
    std::atomic<bool> index_ready{false};
    std::mutex build_mu;
    // code -> ascending rows; immutable once index_ready.
    std::unordered_map<uint64_t, std::vector<uint32_t>> index;
  };

  Schema schema_;
  uint32_t file_id_ = 0;
  uint32_t start_page_ = 0;
  uint32_t num_pages_ = 0;
  uint16_t rows_per_page_ = 0;
  size_t rows_ = 0;

  std::vector<EncodedColumn> columns_;
  std::vector<TupleId> tuple_ids_;  // immutable after build
  std::unique_ptr<std::atomic<uint64_t>[]> insertion_ts_;
  std::unique_ptr<std::atomic<uint64_t>[]> deletion_ts_;
  std::unique_ptr<std::atomic<uint8_t>[]> occupied_;

  std::unique_ptr<ColumnRuntime[]> runtime_;
  mutable SegmentScanStats stats_;
};

/// \brief The per-object cache of columnar segment images.
///
/// One mutex serializes segment builds against the VersionStore mutation
/// hooks: a hook that fires while a build is in flight blocks until the
/// image is published, then applies on top of it — so a stamp can never be
/// lost between the page copy and the publish. Builders take page latches
/// while holding this mutex; mutators therefore must release their page
/// latch *before* calling a hook (lock order: cache mutex, then page latch).
class ColumnarCache {
 public:
  using Builder = std::function<Result<std::shared_ptr<ColumnarSegment>>()>;

  /// Returns the cached image of `seg`, building (and publishing) it via
  /// `build` when absent.
  Result<std::shared_ptr<ColumnarSegment>> GetOrBuild(size_t seg,
                                                      const Builder& build);

  std::shared_ptr<ColumnarSegment> Get(size_t seg) const;

  /// Drops the cached image of `seg` (used when a straggler insert lands in
  /// a just-sealed segment: the encoded columns cannot absorb new values, so
  /// the image is rebuilt on next use).
  void Invalidate(size_t seg);
  void Clear();

  // --- Mutation hooks; no-ops when `seg` has no cached image. ---
  void StampInsertion(size_t seg, RecordId rid, Timestamp ts);
  void StampDeletion(size_t seg, RecordId rid, Timestamp ts);
  void FreeRow(size_t seg, RecordId rid);

  size_t builds() const { return builds_.load(); }
  size_t invalidations() const { return invalidations_.load(); }
  size_t cached_segments() const;

 private:
  mutable std::mutex mu_;
  std::map<size_t, std::shared_ptr<ColumnarSegment>> segments_;
  std::atomic<size_t> builds_{0};
  std::atomic<size_t> invalidations_{0};
};

}  // namespace harbor

#endif  // HARBOR_STORAGE_COLUMNAR_SEGMENT_H_
