#include "storage/tuple.h"

#include <algorithm>
#include <cstring>

namespace harbor {

namespace {

void PackValue(const Column& col, const Value& v, uint8_t* out) {
  switch (col.type) {
    case ColumnType::kInt32: {
      int32_t x = v.AsInt32();
      std::memcpy(out, &x, 4);
      break;
    }
    case ColumnType::kInt64: {
      int64_t x = v.AsInt64();
      std::memcpy(out, &x, 8);
      break;
    }
    case ColumnType::kDouble: {
      double x = v.AsDouble();
      std::memcpy(out, &x, 8);
      break;
    }
    case ColumnType::kChar: {
      // The image holds the string up to its first NUL (where Unpack stops)
      // and zeros after, so two images order as their unpacked strings do.
      const std::string& s = v.AsString();
      const size_t n =
          std::min<size_t>(std::min(s.find('\0'), s.size()), col.width);
      std::memcpy(out, s.data(), n);
      std::memset(out + n, 0, col.width - n);
      break;
    }
  }
}

Value UnpackValue(const Column& col, const uint8_t* in) {
  switch (col.type) {
    case ColumnType::kInt32: {
      int32_t x;
      std::memcpy(&x, in, 4);
      return Value(x);
    }
    case ColumnType::kInt64: {
      int64_t x;
      std::memcpy(&x, in, 8);
      return Value(x);
    }
    case ColumnType::kDouble: {
      double x;
      std::memcpy(&x, in, 8);
      return Value(x);
    }
    case ColumnType::kChar: {
      size_t len = 0;
      while (len < col.width && in[len] != 0) ++len;
      return Value(std::string(reinterpret_cast<const char*>(in), len));
    }
  }
  return Value();
}

}  // namespace

PackedSystemHeader PackedSystemHeader::Read(const uint8_t* tuple_data) {
  PackedSystemHeader h;
  std::memcpy(&h.insertion_ts, tuple_data, 8);
  std::memcpy(&h.deletion_ts, tuple_data + 8, 8);
  std::memcpy(&h.tuple_id, tuple_data + 16, 8);
  return h;
}

void PackedSystemHeader::Write(uint8_t* tuple_data) const {
  std::memcpy(tuple_data, &insertion_ts, 8);
  std::memcpy(tuple_data + 8, &deletion_ts, 8);
  std::memcpy(tuple_data + 16, &tuple_id, 8);
}

void Tuple::Pack(const Schema& schema, uint8_t* out) const {
  HARBOR_CHECK(values_.size() == schema.num_columns());
  PackedSystemHeader{insertion_ts_, deletion_ts_, tuple_id_}.Write(out);
  uint8_t* payload = out + kTupleSystemHeaderBytes;
  for (size_t i = 0; i < values_.size(); ++i) {
    PackValue(schema.column(i), values_[i], payload + schema.ColumnOffset(i));
  }
}

Tuple Tuple::Unpack(const Schema& schema, const uint8_t* data) {
  Tuple t;
  PackedSystemHeader h = PackedSystemHeader::Read(data);
  t.insertion_ts_ = h.insertion_ts;
  t.deletion_ts_ = h.deletion_ts;
  t.tuple_id_ = h.tuple_id;
  const uint8_t* payload = data + kTupleSystemHeaderBytes;
  t.values_.reserve(schema.num_columns());
  for (size_t i = 0; i < schema.num_columns(); ++i) {
    t.values_.push_back(
        UnpackValue(schema.column(i), payload + schema.ColumnOffset(i)));
  }
  return t;
}

void Tuple::Serialize(const Schema& schema, ByteBufferWriter* out) const {
  std::vector<uint8_t> buf(schema.tuple_bytes());
  Pack(schema, buf.data());
  out->WriteU32(static_cast<uint32_t>(buf.size()));
  out->WriteRaw(buf.data(), buf.size());
}

Result<Tuple> Tuple::Deserialize(const Schema& schema, ByteBufferReader* in) {
  HARBOR_ASSIGN_OR_RETURN(uint32_t size, in->ReadU32());
  if (size != schema.tuple_bytes()) {
    return Status::Corruption("tuple size mismatch on wire");
  }
  std::vector<uint8_t> buf(size);
  HARBOR_RETURN_NOT_OK(in->ReadRaw(buf.data(), size));
  return Unpack(schema, buf.data());
}

Tuple Tuple::RemapColumns(const std::vector<size_t>& mapping) const {
  Tuple t;
  t.insertion_ts_ = insertion_ts_;
  t.deletion_ts_ = deletion_ts_;
  t.tuple_id_ = tuple_id_;
  t.values_.reserve(mapping.size());
  for (size_t src : mapping) t.values_.push_back(values_[src]);
  return t;
}

std::string Tuple::ToString() const {
  std::string s = "[ins=";
  s += insertion_ts_ == kUncommittedTimestamp ? "UNCOMMITTED"
                                              : std::to_string(insertion_ts_);
  s += " del=" + std::to_string(deletion_ts_);
  s += " tid=" + std::to_string(tuple_id_) + " |";
  for (const Value& v : values_) {
    s += " ";
    s += v.ToString();
  }
  s += "]";
  return s;
}

}  // namespace harbor
