#ifndef HARBOR_STORAGE_TUPLE_H_
#define HARBOR_STORAGE_TUPLE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/byte_buffer.h"
#include "common/types.h"
#include "storage/schema.h"
#include "storage/value.h"

namespace harbor {

/// \brief A materialized row: the three reserved system fields plus the user
/// column values (§3.3).
///
/// The system internally augments a user tuple <a1..aN> to
/// <insertion-time, deletion-time, tuple-id, a1..aN>. Insertion and deletion
/// timestamps are assigned at commit time; tuple ids are assigned once at
/// insert and shared by all versions and replicas of the logical tuple.
class Tuple {
 public:
  Tuple() = default;
  explicit Tuple(std::vector<Value> values) : values_(std::move(values)) {}

  Timestamp insertion_ts() const { return insertion_ts_; }
  Timestamp deletion_ts() const { return deletion_ts_; }
  TupleId tuple_id() const { return tuple_id_; }
  void set_insertion_ts(Timestamp ts) { insertion_ts_ = ts; }
  void set_deletion_ts(Timestamp ts) { deletion_ts_ = ts; }
  void set_tuple_id(TupleId id) { tuple_id_ = id; }

  /// True if this version is visible as of time `t`: inserted at or before
  /// `t` and not deleted at or before `t` (§3.3). Uncommitted tuples are
  /// never visible.
  bool VisibleAt(Timestamp t) const {
    if (insertion_ts_ == kUncommittedTimestamp || insertion_ts_ > t) {
      return false;
    }
    return deletion_ts_ == kNotDeleted || deletion_ts_ > t;
  }

  size_t num_values() const { return values_.size(); }
  const Value& value(size_t i) const { return values_[i]; }
  Value* mutable_value(size_t i) { return &values_[i]; }
  const std::vector<Value>& values() const { return values_; }
  std::vector<Value>* mutable_values() { return &values_; }

  /// Packs this tuple into `schema.tuple_bytes()` bytes at `out`.
  void Pack(const Schema& schema, uint8_t* out) const;

  /// Unpacks a tuple from its fixed-width page representation.
  static Tuple Unpack(const Schema& schema, const uint8_t* data);

  /// Variable-length wire encoding for network messages.
  void Serialize(const Schema& schema, ByteBufferWriter* out) const;
  static Result<Tuple> Deserialize(const Schema& schema, ByteBufferReader* in);

  /// Returns a copy with values permuted into `dst` schema order; `mapping`
  /// comes from Schema::MappingFrom. System fields are preserved.
  Tuple RemapColumns(const std::vector<size_t>& mapping) const;

  /// Transient location of the version this Tuple was read from (set by
  /// scans; not serialized, not part of equality). DML operators use it to
  /// address the underlying slot.
  RecordId record_id() const { return record_id_; }
  void set_record_id(RecordId rid) { record_id_ = rid; }

  bool operator==(const Tuple& other) const {
    return insertion_ts_ == other.insertion_ts_ &&
           deletion_ts_ == other.deletion_ts_ &&
           tuple_id_ == other.tuple_id_ && values_ == other.values_;
  }

  std::string ToString() const;

 private:
  Timestamp insertion_ts_ = kUncommittedTimestamp;
  Timestamp deletion_ts_ = kNotDeleted;
  TupleId tuple_id_ = 0;
  RecordId record_id_;
  std::vector<Value> values_;
};

/// Reads only the three system fields from a packed tuple (cheap path for
/// visibility checks and timestamp stamping).
struct PackedSystemHeader {
  Timestamp insertion_ts;
  Timestamp deletion_ts;
  TupleId tuple_id;

  static PackedSystemHeader Read(const uint8_t* tuple_data);
  void Write(uint8_t* tuple_data) const;
};

/// A stored version located by its system fields alone: what recovery's
/// key scans yield instead of a materialized Tuple. `deletion_ts` is the
/// value the scan presents (a historical scan shows later deletions undone).
struct VersionKey {
  Timestamp insertion_ts = 0;
  Timestamp deletion_ts = kNotDeleted;
  TupleId tuple_id = 0;
  RecordId rid;
};

}  // namespace harbor

#endif  // HARBOR_STORAGE_TUPLE_H_
