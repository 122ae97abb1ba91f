#include "storage/column_block.h"

#include <algorithm>
#include <cstring>
#include <map>

#include "storage/columnar_segment.h"

namespace harbor {

namespace {

enum BlockTag : uint8_t { kRaw = 0, kDict = 1, kFor = 2 };

/// CHAR values round-trip through the page representation on the per-tuple
/// wire path (Pack cuts at the first NUL or the width and pads with NULs).
/// Normalizing here keeps the column-block path bit-identical.
std::string NormalizeChar(const std::string& s, uint32_t width) {
  std::string t = s.substr(0, width);
  const size_t nul = t.find('\0');
  if (nul != std::string::npos) t.resize(nul);
  return t;
}

/// Frame-of-reference u64 array: base, fitted width, deltas.
void WriteU64Array(const std::vector<uint64_t>& vals, ByteBufferWriter* out) {
  uint64_t base = vals.empty() ? 0 : *std::min_element(vals.begin(),
                                                       vals.end());
  uint64_t span = 0;
  for (uint64_t v : vals) span = std::max(span, v - base);
  const uint8_t width = FittedVector::WidthFor(span);
  out->WriteU64(base);
  out->WriteU8(width);
  for (uint64_t v : vals) {
    // The low `width` little-endian bytes are exact because v - base <= span.
    const uint64_t delta = v - base;
    out->WriteRaw(&delta, width);
  }
}

Status ReadU64Array(size_t n, ByteBufferReader* in,
                    std::vector<uint64_t>* out) {
  HARBOR_ASSIGN_OR_RETURN(uint64_t base, in->ReadU64());
  HARBOR_ASSIGN_OR_RETURN(uint8_t width, in->ReadU8());
  if (width > 8) return Status::Corruption("column block: bad array width");
  out->assign(n, base);
  for (size_t i = 0; i < n; ++i) {
    uint64_t delta = 0;
    if (width > 0) HARBOR_RETURN_NOT_OK(in->ReadRaw(&delta, width));
    (*out)[i] = base + delta;
  }
  return Status::OK();
}

void WriteDictEntry(const Column& col, const Value& v, ByteBufferWriter* out) {
  switch (col.type) {
    case ColumnType::kInt32: out->WriteI32(v.AsInt32()); break;
    case ColumnType::kInt64: out->WriteI64(v.AsInt64()); break;
    case ColumnType::kDouble: out->WriteDouble(v.AsDouble()); break;
    case ColumnType::kChar: out->WriteString(v.AsString()); break;
  }
}

Result<Value> ReadDictEntry(const Column& col, ByteBufferReader* in) {
  switch (col.type) {
    case ColumnType::kInt32: {
      HARBOR_ASSIGN_OR_RETURN(int32_t v, in->ReadI32());
      return Value(v);
    }
    case ColumnType::kInt64: {
      HARBOR_ASSIGN_OR_RETURN(int64_t v, in->ReadI64());
      return Value(v);
    }
    case ColumnType::kDouble: {
      HARBOR_ASSIGN_OR_RETURN(double v, in->ReadDouble());
      return Value(v);
    }
    case ColumnType::kChar: {
      HARBOR_ASSIGN_OR_RETURN(std::string v, in->ReadString());
      return Value(std::move(v));
    }
  }
  return Status::Corruption("column block: bad dict entry type");
}

void WriteRawValue(const Column& col, const Value& v, ByteBufferWriter* out) {
  switch (col.type) {
    case ColumnType::kInt32: out->WriteI32(v.AsInt32()); break;
    case ColumnType::kInt64: out->WriteI64(v.AsInt64()); break;
    case ColumnType::kDouble: out->WriteDouble(v.AsDouble()); break;
    case ColumnType::kChar: {
      // Fixed width, NUL-padded — the packed page representation.
      std::string t = v.AsString();
      t.resize(col.width, '\0');
      out->WriteRaw(t.data(), col.width);
      break;
    }
  }
}

Result<Value> ReadRawValue(const Column& col, ByteBufferReader* in) {
  if (col.type == ColumnType::kChar) {
    std::string t(col.width, '\0');
    HARBOR_RETURN_NOT_OK(in->ReadRaw(t.data(), col.width));
    const size_t nul = t.find('\0');
    if (nul != std::string::npos) t.resize(nul);
    return Value(std::move(t));
  }
  return ReadDictEntry(col, in);
}

int64_t IntOf(const Value& v) {
  return v.type() == ColumnType::kInt32 ? v.AsInt32() : v.AsInt64();
}

/// Key for the dictionary map: normalized CHARs compare as strings,
/// everything else by exact bits of its packed form.
struct DictLess {
  bool operator()(const Value& a, const Value& b) const {
    if (a.type() == ColumnType::kChar) return a.AsString() < b.AsString();
    if (a.type() == ColumnType::kDouble) {
      uint64_t ba, bb;
      const double da = a.AsDouble(), db = b.AsDouble();
      std::memcpy(&ba, &da, 8);
      std::memcpy(&bb, &db, 8);
      return ba < bb;  // bit-exact so distinct NaN payloads stay distinct
    }
    return IntOf(a) < IntOf(b);
  }
};

void EncodeOneColumn(const Column& col, size_t col_idx,
                     const std::vector<Tuple>& tuples, ByteBufferWriter* out) {
  const size_t n = tuples.size();
  const size_t raw_value_bytes = col.width;

  // Gather (normalized) values and the distinct set.
  std::vector<Value> vals;
  vals.reserve(n);
  std::map<Value, uint32_t, DictLess> distinct;
  for (const Tuple& t : tuples) {
    Value v = t.value(col_idx);
    if (col.type == ColumnType::kChar) {
      v = Value(NormalizeChar(v.AsString(), col.width));
    }
    distinct.emplace(v, 0);
    vals.push_back(std::move(v));
  }

  // Candidate sizes.
  const size_t raw_bytes = raw_value_bytes * n;
  size_t dict_entry_bytes = 0;
  for (const auto& [v, c] : distinct) {
    dict_entry_bytes +=
        col.type == ColumnType::kChar ? v.AsString().size() + 4 : 8;
  }
  const uint8_t dict_width =
      distinct.empty() ? 0 : FittedVector::WidthFor(distinct.size() - 1);
  const size_t dict_bytes =
      4 + dict_entry_bytes + static_cast<size_t>(dict_width) * n;

  size_t for_bytes = SIZE_MAX;
  int64_t for_base = 0;
  uint8_t for_width = 0;
  const bool integral =
      col.type == ColumnType::kInt32 || col.type == ColumnType::kInt64;
  if (integral && !vals.empty()) {
    int64_t min_v = IntOf(vals[0]), max_v = IntOf(vals[0]);
    for (const Value& v : vals) {
      min_v = std::min(min_v, IntOf(v));
      max_v = std::max(max_v, IntOf(v));
    }
    for_base = min_v;
    for_width = FittedVector::WidthFor(static_cast<uint64_t>(max_v) -
                                       static_cast<uint64_t>(min_v));
    for_bytes = 8 + 1 + static_cast<size_t>(for_width) * n;
  }

  if (for_bytes <= dict_bytes && for_bytes <= raw_bytes) {
    out->WriteU8(kFor);
    out->WriteI64(for_base);
    out->WriteU8(for_width);
    for (const Value& v : vals) {
      const uint64_t delta = static_cast<uint64_t>(IntOf(v)) -
                             static_cast<uint64_t>(for_base);
      out->WriteRaw(&delta, for_width);
    }
  } else if (dict_bytes < raw_bytes) {
    out->WriteU8(kDict);
    out->WriteU32(static_cast<uint32_t>(distinct.size()));
    uint32_t code = 0;
    for (auto& [v, c] : distinct) {
      c = code++;
      WriteDictEntry(col, v, out);
    }
    out->WriteU8(dict_width);
    for (const Value& v : vals) {
      const uint64_t c = distinct[v];
      out->WriteRaw(&c, dict_width);
    }
  } else {
    out->WriteU8(kRaw);
    for (const Value& v : vals) WriteRawValue(col, v, out);
  }
}

Status DecodeOneColumn(const Column& col, size_t col_idx, size_t n,
                       ByteBufferReader* in, std::vector<Tuple>* tuples) {
  HARBOR_ASSIGN_OR_RETURN(uint8_t tag, in->ReadU8());
  switch (tag) {
    case kRaw: {
      for (size_t i = 0; i < n; ++i) {
        HARBOR_ASSIGN_OR_RETURN(Value v, ReadRawValue(col, in));
        *(*tuples)[i].mutable_value(col_idx) = std::move(v);
      }
      return Status::OK();
    }
    case kDict: {
      HARBOR_ASSIGN_OR_RETURN(uint32_t m, in->ReadU32());
      std::vector<Value> dict;
      dict.reserve(m);
      for (uint32_t i = 0; i < m; ++i) {
        HARBOR_ASSIGN_OR_RETURN(Value v, ReadDictEntry(col, in));
        dict.push_back(std::move(v));
      }
      HARBOR_ASSIGN_OR_RETURN(uint8_t width, in->ReadU8());
      if (width > 8) return Status::Corruption("column block: code width");
      for (size_t i = 0; i < n; ++i) {
        uint64_t code = 0;
        if (width > 0) HARBOR_RETURN_NOT_OK(in->ReadRaw(&code, width));
        if (code >= dict.size()) {
          return Status::Corruption("column block: code out of range");
        }
        *(*tuples)[i].mutable_value(col_idx) = dict[code];
      }
      return Status::OK();
    }
    case kFor: {
      HARBOR_ASSIGN_OR_RETURN(int64_t base, in->ReadI64());
      HARBOR_ASSIGN_OR_RETURN(uint8_t width, in->ReadU8());
      if (width > 8) return Status::Corruption("column block: delta width");
      for (size_t i = 0; i < n; ++i) {
        uint64_t delta = 0;
        if (width > 0) HARBOR_RETURN_NOT_OK(in->ReadRaw(&delta, width));
        const int64_t v = base + static_cast<int64_t>(delta);
        *(*tuples)[i].mutable_value(col_idx) =
            col.type == ColumnType::kInt32 ? Value(static_cast<int32_t>(v))
                                           : Value(v);
      }
      return Status::OK();
    }
    default:
      return Status::Corruption("column block: unknown encoding tag");
  }
}

}  // namespace

void EncodeColumnBlock(const Schema& schema, const std::vector<Tuple>& tuples,
                       ByteBufferWriter* out) {
  const size_t n = tuples.size();
  out->WriteU32(static_cast<uint32_t>(n));

  std::vector<uint64_t> sys(n);
  for (size_t i = 0; i < n; ++i) sys[i] = tuples[i].insertion_ts();
  WriteU64Array(sys, out);
  for (size_t i = 0; i < n; ++i) sys[i] = tuples[i].deletion_ts();
  WriteU64Array(sys, out);
  for (size_t i = 0; i < n; ++i) sys[i] = tuples[i].tuple_id();
  WriteU64Array(sys, out);

  for (size_t c = 0; c < schema.num_columns(); ++c) {
    EncodeOneColumn(schema.column(c), c, tuples, out);
  }
}

Result<std::vector<Tuple>> DecodeColumnBlock(const Schema& schema,
                                             ByteBufferReader* in) {
  HARBOR_ASSIGN_OR_RETURN(uint32_t n, in->ReadU32());
  std::vector<Tuple> tuples(
      n, Tuple(std::vector<Value>(schema.num_columns())));

  std::vector<uint64_t> sys;
  HARBOR_RETURN_NOT_OK(ReadU64Array(n, in, &sys));
  for (uint32_t i = 0; i < n; ++i) tuples[i].set_insertion_ts(sys[i]);
  HARBOR_RETURN_NOT_OK(ReadU64Array(n, in, &sys));
  for (uint32_t i = 0; i < n; ++i) tuples[i].set_deletion_ts(sys[i]);
  HARBOR_RETURN_NOT_OK(ReadU64Array(n, in, &sys));
  for (uint32_t i = 0; i < n; ++i) tuples[i].set_tuple_id(sys[i]);

  for (size_t c = 0; c < schema.num_columns(); ++c) {
    HARBOR_RETURN_NOT_OK(DecodeOneColumn(schema.column(c), c, n, in, &tuples));
  }
  return tuples;
}

}  // namespace harbor
