#ifndef HARBOR_STORAGE_VALUE_H_
#define HARBOR_STORAGE_VALUE_H_

#include <cstdint>
#include <string>
#include <variant>

#include "common/status.h"

namespace harbor {

/// Column data types. All types are stored fixed-width on the page so that
/// heap pages hold a fixed number of slots (§6.1.1 uses fixed 64-byte
/// tuples); kChar columns are space-padded to their declared width.
enum class ColumnType : uint8_t {
  kInt32 = 0,
  kInt64 = 1,
  kDouble = 2,
  kChar = 3,
};

const char* ColumnTypeToString(ColumnType type);

/// \brief A single column value.
///
/// Value is a small tagged union used at the operator boundary; inside pages
/// values live in their packed fixed-width representation.
class Value {
 public:
  Value() : repr_(int64_t{0}) {}
  explicit Value(int32_t v) : repr_(v) {}
  explicit Value(int64_t v) : repr_(v) {}
  explicit Value(double v) : repr_(v) {}
  explicit Value(std::string v) : repr_(std::move(v)) {}

  ColumnType type() const {
    switch (repr_.index()) {
      case 0: return ColumnType::kInt32;
      case 1: return ColumnType::kInt64;
      case 2: return ColumnType::kDouble;
      default: return ColumnType::kChar;
    }
  }

  int32_t AsInt32() const { return std::get<int32_t>(repr_); }
  int64_t AsInt64() const { return std::get<int64_t>(repr_); }
  double AsDouble() const { return std::get<double>(repr_); }
  const std::string& AsString() const { return std::get<std::string>(repr_); }
  /// An integer value (int32 or int64) widened to 64 bits.
  int64_t AsInteger() const {
    return repr_.index() == 0 ? std::get<int32_t>(repr_)
                              : std::get<int64_t>(repr_);
  }

  /// Numeric view of any non-string value (int32/int64 widened, double as
  /// itself); used by comparison predicates and aggregates.
  double AsNumeric() const {
    switch (repr_.index()) {
      case 0: return std::get<int32_t>(repr_);
      case 1: return static_cast<double>(std::get<int64_t>(repr_));
      case 2: return std::get<double>(repr_);
      default: return 0.0;
    }
  }

  bool operator==(const Value& other) const { return repr_ == other.repr_; }
  bool operator<(const Value& other) const;

  std::string ToString() const;

 private:
  std::variant<int32_t, int64_t, double, std::string> repr_;
};

}  // namespace harbor

#endif  // HARBOR_STORAGE_VALUE_H_
