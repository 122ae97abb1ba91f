#include "storage/columnar_segment.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <map>

#include "storage/heap_page.h"

namespace harbor {

uint8_t FittedVector::WidthFor(uint64_t max_value) {
  if (max_value == 0) return 0;
  if (max_value <= 0xFFull) return 1;
  if (max_value <= 0xFFFFull) return 2;
  if (max_value <= 0xFFFFFFFFull) return 4;
  return 8;
}

void FittedVector::Init(uint8_t width, size_t n) {
  width_ = width;
  n_ = n;
  bytes_.assign(static_cast<size_t>(width) * n, 0);
}

uint64_t FittedVector::Get(size_t i) const {
  if (width_ == 0) return 0;
  uint64_t v = 0;
  std::memcpy(&v, bytes_.data() + i * width_, width_);
  return v;
}

void FittedVector::Set(size_t i, uint64_t v) {
  if (width_ == 0) return;
  std::memcpy(bytes_.data() + i * width_, &v, width_);
}

Value EncodedColumn::ValueAt(size_t row) const {
  switch (encoding) {
    case Encoding::kDictionary:
      return dict[codes.Get(row)];
    case Encoding::kFrameOfReference: {
      const int64_t v = for_base + static_cast<int64_t>(codes.Get(row));
      if (type == ColumnType::kInt32) return Value(static_cast<int32_t>(v));
      return Value(v);
    }
    case Encoding::kPlainDouble:
      return Value(plain[row]);
  }
  return Value();
}

size_t EncodedColumn::encoded_bytes() const {
  size_t bytes = codes.byte_size() + plain.size() * sizeof(double);
  for (const Value& v : dict) {
    bytes += v.type() == ColumnType::kChar ? v.AsString().size() + 4 : 8;
  }
  if (encoding == Encoding::kFrameOfReference) bytes += 8;
  return bytes;
}

namespace {

/// Encodes one integer column: frame-of-reference by default, dictionary
/// when the distinct set makes it smaller.
void EncodeIntColumn(const Column& col, const std::vector<Value>& staged,
                     const std::vector<uint8_t>& present, EncodedColumn* out) {
  const size_t rows = staged.size();
  int64_t min_v = 0, max_v = 0;
  std::map<int64_t, uint32_t> distinct;
  bool any = false;
  for (size_t r = 0; r < rows; ++r) {
    if (!present[r]) continue;
    const int64_t v = staged[r].AsInteger();
    if (!any) {
      min_v = max_v = v;
      any = true;
    } else {
      min_v = std::min(min_v, v);
      max_v = std::max(max_v, v);
    }
    distinct.emplace(v, 0);
  }
  // Two's-complement subtraction keeps the delta exact for any int64 span.
  const uint64_t span =
      any ? static_cast<uint64_t>(max_v) - static_cast<uint64_t>(min_v) : 0;
  const uint8_t for_width = FittedVector::WidthFor(span);
  const uint8_t dict_width = distinct.empty()
                                 ? 0
                                 : FittedVector::WidthFor(distinct.size() - 1);
  const size_t for_bytes = static_cast<size_t>(for_width) * rows;
  const size_t dict_bytes =
      distinct.size() * 8 + static_cast<size_t>(dict_width) * rows;

  if (any && dict_bytes < for_bytes) {
    out->encoding = EncodedColumn::Encoding::kDictionary;
    uint32_t code = 0;
    out->dict.reserve(distinct.size());
    for (auto& [v, c] : distinct) {
      c = code++;
      out->dict.push_back(col.type == ColumnType::kInt32
                              ? Value(static_cast<int32_t>(v))
                              : Value(v));
    }
    out->codes.Init(dict_width, rows);
    for (size_t r = 0; r < rows; ++r) {
      if (present[r]) out->codes.Set(r, distinct[staged[r].AsInteger()]);
    }
  } else {
    out->encoding = EncodedColumn::Encoding::kFrameOfReference;
    out->for_base = min_v;
    out->codes.Init(for_width, rows);
    for (size_t r = 0; r < rows; ++r) {
      if (!present[r]) continue;
      out->codes.Set(r, static_cast<uint64_t>(staged[r].AsInteger()) -
                            static_cast<uint64_t>(min_v));
    }
  }
  if (any) {
    out->has_zone = true;
    out->zone_min = col.type == ColumnType::kInt32
                        ? Value(static_cast<int32_t>(min_v))
                        : Value(min_v);
    out->zone_max = col.type == ColumnType::kInt32
                        ? Value(static_cast<int32_t>(max_v))
                        : Value(max_v);
  }
}

void EncodeCharColumn(const std::vector<Value>& staged,
                      const std::vector<uint8_t>& present, EncodedColumn* out) {
  const size_t rows = staged.size();
  std::map<std::string, uint32_t> distinct;
  for (size_t r = 0; r < rows; ++r) {
    if (present[r]) distinct.emplace(staged[r].AsString(), 0);
  }
  out->encoding = EncodedColumn::Encoding::kDictionary;
  uint32_t code = 0;
  out->dict.reserve(distinct.size());
  for (auto& [s, c] : distinct) {
    c = code++;
    out->dict.push_back(Value(s));
  }
  const uint8_t width =
      distinct.empty() ? 0 : FittedVector::WidthFor(distinct.size() - 1);
  out->codes.Init(width, rows);
  for (size_t r = 0; r < rows; ++r) {
    if (present[r]) out->codes.Set(r, distinct[staged[r].AsString()]);
  }
  if (!out->dict.empty()) {
    out->has_zone = true;
    out->zone_min = out->dict.front();
    out->zone_max = out->dict.back();
  }
}

void EncodeDoubleColumn(const std::vector<Value>& staged,
                        const std::vector<uint8_t>& present,
                        EncodedColumn* out) {
  const size_t rows = staged.size();
  out->encoding = EncodedColumn::Encoding::kPlainDouble;
  out->plain.assign(rows, 0.0);
  bool any = false, has_nan = false;
  double min_v = 0.0, max_v = 0.0;
  for (size_t r = 0; r < rows; ++r) {
    if (!present[r]) continue;
    const double v = staged[r].AsDouble();
    out->plain[r] = v;
    if (std::isnan(v)) {
      has_nan = true;  // NaN defeats min/max bounding; drop the zone
      continue;
    }
    if (!any) {
      min_v = max_v = v;
      any = true;
    } else {
      min_v = std::min(min_v, v);
      max_v = std::max(max_v, v);
    }
  }
  if (any && !has_nan) {
    out->has_zone = true;
    out->zone_min = Value(min_v);
    out->zone_max = Value(max_v);
  }
}

}  // namespace

Result<std::shared_ptr<ColumnarSegment>> ColumnarSegment::Build(
    const Schema& schema, uint32_t file_id, uint32_t start_page,
    const std::vector<std::vector<uint8_t>>& pages) {
  auto cs = std::shared_ptr<ColumnarSegment>(new ColumnarSegment());
  cs->schema_ = schema;
  cs->file_id_ = file_id;
  cs->start_page_ = start_page;
  cs->num_pages_ = static_cast<uint32_t>(pages.size());
  const uint32_t tuple_bytes = schema.tuple_bytes();
  cs->rows_per_page_ = HeapPage::CapacityFor(tuple_bytes);
  cs->rows_ = pages.size() * cs->rows_per_page_;

  const size_t rows = cs->rows_;
  const size_t ncols = schema.num_columns();
  cs->tuple_ids_.assign(rows, 0);
  cs->insertion_ts_ = std::make_unique<std::atomic<uint64_t>[]>(rows);
  cs->deletion_ts_ = std::make_unique<std::atomic<uint64_t>[]>(rows);
  cs->occupied_ = std::make_unique<std::atomic<uint8_t>[]>(rows);
  for (size_t r = 0; r < rows; ++r) {
    cs->insertion_ts_[r].store(0, std::memory_order_relaxed);
    cs->deletion_ts_[r].store(0, std::memory_order_relaxed);
    cs->occupied_[r].store(0, std::memory_order_relaxed);
  }

  std::vector<uint8_t> present(rows, 0);
  std::vector<std::vector<Value>> staged(ncols, std::vector<Value>(rows));
  for (size_t p = 0; p < pages.size(); ++p) {
    if (pages[p].size() < kPageSize) {
      return Status::InvalidArgument("columnar build: short page image");
    }
    HeapPage view(const_cast<uint8_t*>(pages[p].data()), tuple_bytes);
    if (view.capacity() == 0) continue;  // never-initialized page
    const uint16_t cap = std::min(view.capacity(), cs->rows_per_page_);
    for (uint16_t slot = 0; slot < cap; ++slot) {
      if (!view.IsOccupied(slot)) continue;
      const size_t row = p * cs->rows_per_page_ + slot;
      // Unpack reproduces the row path's value semantics exactly (CHAR
      // NUL-truncation included), which is what makes columnar and row
      // scans bit-identical.
      Tuple t = Tuple::Unpack(schema, view.TupleData(slot));
      present[row] = 1;
      cs->occupied_[row].store(1, std::memory_order_relaxed);
      cs->insertion_ts_[row].store(t.insertion_ts(),
                                   std::memory_order_relaxed);
      cs->deletion_ts_[row].store(t.deletion_ts(), std::memory_order_relaxed);
      cs->tuple_ids_[row] = t.tuple_id();
      for (size_t c = 0; c < ncols; ++c) {
        staged[c][row] = std::move(*t.mutable_value(c));
      }
    }
  }

  cs->columns_.resize(ncols);
  for (size_t c = 0; c < ncols; ++c) {
    const Column& col = schema.column(c);
    EncodedColumn* out = &cs->columns_[c];
    out->type = col.type;
    switch (col.type) {
      case ColumnType::kInt32:
      case ColumnType::kInt64:
        EncodeIntColumn(col, staged[c], present, out);
        break;
      case ColumnType::kChar:
        EncodeCharColumn(staged[c], present, out);
        break;
      case ColumnType::kDouble:
        EncodeDoubleColumn(staged[c], present, out);
        break;
    }
    staged[c].clear();
    staged[c].shrink_to_fit();
  }
  cs->runtime_ = std::make_unique<ColumnRuntime[]>(ncols);
  return cs;
}

RecordId ColumnarSegment::RidOf(size_t row) const {
  return RecordId{PageId{file_id_, start_page_ + static_cast<uint32_t>(
                                       row / rows_per_page_)},
                  static_cast<uint16_t>(row % rows_per_page_)};
}

int64_t ColumnarSegment::RowOf(RecordId rid) const {
  if (rid.page.file_id != file_id_ || rid.page.page_no < start_page_ ||
      rid.page.page_no >= start_page_ + num_pages_ ||
      rid.slot >= rows_per_page_) {
    return -1;
  }
  return static_cast<int64_t>(rid.page.page_no - start_page_) *
             rows_per_page_ +
         rid.slot;
}

Tuple ColumnarSegment::MaterializeRow(size_t row) const {
  std::vector<Value> values;
  values.reserve(columns_.size());
  for (const EncodedColumn& c : columns_) values.push_back(c.ValueAt(row));
  Tuple t(std::move(values));
  t.set_insertion_ts(insertion_ts(row));
  t.set_deletion_ts(deletion_ts(row));
  t.set_tuple_id(tuple_ids_[row]);
  t.set_record_id(RidOf(row));
  return t;
}

uint32_t ColumnarSegment::NoteEqProbe(size_t col) {
  return runtime_[col].eq_probes.fetch_add(1, std::memory_order_relaxed) + 1;
}

bool ColumnarSegment::HasAdaptiveIndex(size_t col) const {
  return runtime_[col].index_ready.load(std::memory_order_acquire);
}

bool ColumnarSegment::MaybeBuildAdaptiveIndex(size_t col, uint32_t threshold) {
  ColumnRuntime& rt = runtime_[col];
  if (rt.index_ready.load(std::memory_order_acquire)) return true;
  if (rt.eq_probes.load(std::memory_order_relaxed) < threshold) return false;
  // Only dictionary codes have an exact value<->key mapping to index on.
  if (columns_[col].encoding != EncodedColumn::Encoding::kDictionary) {
    return false;
  }
  std::lock_guard<std::mutex> lock(rt.build_mu);
  if (rt.index_ready.load(std::memory_order_acquire)) return true;
  const EncodedColumn& c = columns_[col];
  for (size_t r = 0; r < rows_; ++r) {
    // Occupancy only transitions occupied->free in a sealed segment, so a
    // row skipped here could never become live later.
    if (!occupied(r)) continue;
    rt.index[c.codes.Get(r)].push_back(static_cast<uint32_t>(r));
  }
  stats_.indexes_built.fetch_add(1, std::memory_order_relaxed);
  rt.index_ready.store(true, std::memory_order_release);
  return true;
}

const std::vector<uint32_t>* ColumnarSegment::AdaptiveRows(
    size_t col, uint64_t code) const {
  const ColumnRuntime& rt = runtime_[col];
  auto it = rt.index.find(code);
  return it == rt.index.end() ? nullptr : &it->second;
}

size_t ColumnarSegment::encoded_bytes() const {
  size_t bytes = 0;
  for (const EncodedColumn& c : columns_) bytes += c.encoded_bytes();
  return bytes;
}

Result<std::shared_ptr<ColumnarSegment>> ColumnarCache::GetOrBuild(
    size_t seg, const Builder& build) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = segments_.find(seg);
  if (it != segments_.end()) return it->second;
  HARBOR_ASSIGN_OR_RETURN(std::shared_ptr<ColumnarSegment> cs, build());
  segments_[seg] = cs;
  builds_.fetch_add(1, std::memory_order_relaxed);
  return cs;
}

std::shared_ptr<ColumnarSegment> ColumnarCache::Get(size_t seg) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = segments_.find(seg);
  return it == segments_.end() ? nullptr : it->second;
}

void ColumnarCache::Invalidate(size_t seg) {
  std::lock_guard<std::mutex> lock(mu_);
  if (segments_.erase(seg) > 0) {
    invalidations_.fetch_add(1, std::memory_order_relaxed);
  }
}

void ColumnarCache::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  segments_.clear();
}

void ColumnarCache::StampInsertion(size_t seg, RecordId rid, Timestamp ts) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = segments_.find(seg);
  if (it == segments_.end()) return;
  const int64_t row = it->second->RowOf(rid);
  if (row >= 0) it->second->SetInsertionTs(static_cast<size_t>(row), ts);
}

void ColumnarCache::StampDeletion(size_t seg, RecordId rid, Timestamp ts) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = segments_.find(seg);
  if (it == segments_.end()) return;
  const int64_t row = it->second->RowOf(rid);
  if (row >= 0) it->second->SetDeletionTs(static_cast<size_t>(row), ts);
}

size_t ColumnarCache::cached_segments() const {
  std::lock_guard<std::mutex> lock(mu_);
  return segments_.size();
}

void ColumnarCache::FreeRow(size_t seg, RecordId rid) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = segments_.find(seg);
  if (it == segments_.end()) return;
  const int64_t row = it->second->RowOf(rid);
  if (row >= 0) it->second->SetOccupied(static_cast<size_t>(row), false);
}

}  // namespace harbor
