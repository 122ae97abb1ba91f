#include "exec/dml.h"

#include "exec/seq_scan.h"

namespace harbor {

void SetClause::Serialize(ByteBufferWriter* out) const {
  out->WriteString(column);
  out->WriteU8(static_cast<uint8_t>(value.type()));
  switch (value.type()) {
    case ColumnType::kInt32: out->WriteI32(value.AsInt32()); break;
    case ColumnType::kInt64: out->WriteI64(value.AsInt64()); break;
    case ColumnType::kDouble: out->WriteDouble(value.AsDouble()); break;
    case ColumnType::kChar: out->WriteString(value.AsString()); break;
  }
}

Result<SetClause> SetClause::Deserialize(ByteBufferReader* in) {
  SetClause s;
  HARBOR_ASSIGN_OR_RETURN(s.column, in->ReadString());
  HARBOR_ASSIGN_OR_RETURN(uint8_t type, in->ReadU8());
  switch (static_cast<ColumnType>(type)) {
    case ColumnType::kInt32: {
      HARBOR_ASSIGN_OR_RETURN(int32_t v, in->ReadI32());
      s.value = Value(v);
      break;
    }
    case ColumnType::kInt64: {
      HARBOR_ASSIGN_OR_RETURN(int64_t v, in->ReadI64());
      s.value = Value(v);
      break;
    }
    case ColumnType::kDouble: {
      HARBOR_ASSIGN_OR_RETURN(double v, in->ReadDouble());
      s.value = Value(v);
      break;
    }
    case ColumnType::kChar: {
      HARBOR_ASSIGN_OR_RETURN(std::string v, in->ReadString());
      s.value = Value(std::move(v));
      break;
    }
    default:
      return Status::Corruption("bad value type in set clause");
  }
  return s;
}

Result<RecordId> ExecInsert(VersionStore* store, TxnState* txn,
                            TableObject* obj, TupleId tuple_id,
                            const Schema& input_schema,
                            const std::vector<Value>& values) {
  if (values.size() != input_schema.num_columns()) {
    return Status::InvalidArgument("value count does not match schema");
  }
  HARBOR_ASSIGN_OR_RETURN(std::vector<size_t> mapping,
                          obj->schema.MappingFrom(input_schema));
  Tuple staged(values);
  Tuple remapped = staged.RemapColumns(mapping);
  remapped.set_tuple_id(tuple_id);
  return store->InsertTuple(txn, obj, remapped);
}

namespace {

/// Scans matching visible tuples with page locks (up-to-date read, §3.1) and
/// returns them materialized; the strict-2PL shared locks stay held so the
/// set cannot change underneath the mutation loop.
Result<std::vector<Tuple>> ScanForWrite(VersionStore* store, TxnState* txn,
                                        TableObject* obj,
                                        const Predicate& predicate,
                                        Timestamp read_time) {
  ScanSpec spec;
  spec.object_id = obj->object_id;
  spec.mode = ScanMode::kVisible;
  spec.as_of = read_time;
  spec.predicate = predicate;
  SeqScanOperator scan(store, obj, std::move(spec), txn->id,
                       ScanLocking::kPageLocks);
  return scan.Collect();
}

}  // namespace

Result<int64_t> ExecDelete(VersionStore* store, TxnState* txn,
                           TableObject* obj, const Predicate& predicate,
                           Timestamp read_time) {
  HARBOR_ASSIGN_OR_RETURN(std::vector<Tuple> victims,
                          ScanForWrite(store, txn, obj, predicate, read_time));
  for (const Tuple& t : victims) {
    HARBOR_RETURN_NOT_OK(store->DeleteTuple(txn, obj, t.record_id()));
  }
  return static_cast<int64_t>(victims.size());
}

Result<int64_t> ExecUpdate(VersionStore* store, TxnState* txn,
                           TableObject* obj, const Predicate& predicate,
                           const std::vector<SetClause>& sets,
                           Timestamp read_time) {
  HARBOR_ASSIGN_OR_RETURN(std::vector<Tuple> victims,
                          ScanForWrite(store, txn, obj, predicate, read_time));
  // Resolve set-clause columns once.
  std::vector<size_t> set_idx(sets.size());
  for (size_t i = 0; i < sets.size(); ++i) {
    HARBOR_ASSIGN_OR_RETURN(set_idx[i],
                            obj->schema.ColumnIndex(sets[i].column));
  }
  for (const Tuple& old : victims) {
    HARBOR_RETURN_NOT_OK(store->DeleteTuple(txn, obj, old.record_id()));
    Tuple next = old;  // same tuple_id: versions stay correlated (§5.3)
    for (size_t i = 0; i < sets.size(); ++i) {
      *next.mutable_value(set_idx[i]) = sets[i].value;
    }
    HARBOR_RETURN_NOT_OK(store->InsertTuple(txn, obj, next).status());
  }
  return static_cast<int64_t>(victims.size());
}

}  // namespace harbor
