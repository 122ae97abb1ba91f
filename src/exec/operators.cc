#include "exec/operators.h"

#include <algorithm>
#include <limits>

namespace harbor {

// ------------------------------------------------------------- Aggregate

AggregateOperator::AggregateOperator(std::unique_ptr<Operator> child,
                                     std::vector<std::string> group_by,
                                     std::vector<AggSpec> aggs)
    : child_(std::move(child)),
      group_by_(std::move(group_by)),
      aggs_(std::move(aggs)) {}

Status AggregateOperator::Open() {
  HARBOR_RETURN_NOT_OK(child_->Open());
  group_idx_.clear();
  agg_idx_.clear();
  std::vector<Column> cols;
  for (const std::string& name : group_by_) {
    HARBOR_ASSIGN_OR_RETURN(size_t idx, child_->schema().ColumnIndex(name));
    group_idx_.push_back(idx);
    cols.push_back(child_->schema().column(idx));
  }
  for (const AggSpec& a : aggs_) {
    size_t idx = 0;
    if (a.func != AggFunc::kCount) {
      HARBOR_ASSIGN_OR_RETURN(idx, child_->schema().ColumnIndex(a.column));
    }
    agg_idx_.push_back(idx);
    std::string name;
    switch (a.func) {
      case AggFunc::kCount: name = "count"; break;
      case AggFunc::kSum: name = "sum_" + a.column; break;
      case AggFunc::kMin: name = "min_" + a.column; break;
      case AggFunc::kMax: name = "max_" + a.column; break;
      case AggFunc::kAvg: name = "avg_" + a.column; break;
    }
    cols.push_back(Column::Double(std::move(name)));
  }
  schema_ = Schema(std::move(cols));
  built_ = false;
  cursor_ = 0;
  groups_.clear();
  return Status::OK();
}

Status AggregateOperator::BuildGroups() {
  // In-memory hash grouping: key string -> group slot.
  std::unordered_map<std::string, size_t> key_to_group;
  while (true) {
    HARBOR_ASSIGN_OR_RETURN(std::optional<Tuple> t, child_->Next());
    if (!t.has_value()) break;
    std::string key;
    std::vector<Value> key_vals;
    for (size_t idx : group_idx_) {
      key += t->value(idx).ToString();
      key += '\x1f';
      key_vals.push_back(t->value(idx));
    }
    auto [it, inserted] = key_to_group.try_emplace(key, groups_.size());
    if (inserted) {
      GroupState g;
      g.key = std::move(key_vals);
      g.acc.resize(aggs_.size());
      g.count.assign(aggs_.size(), 0);
      for (size_t i = 0; i < aggs_.size(); ++i) {
        switch (aggs_[i].func) {
          case AggFunc::kMin:
            g.acc[i] = std::numeric_limits<double>::infinity();
            break;
          case AggFunc::kMax:
            g.acc[i] = -std::numeric_limits<double>::infinity();
            break;
          default:
            g.acc[i] = 0.0;
        }
      }
      groups_.push_back(std::move(g));
    }
    GroupState& g = groups_[it->second];
    for (size_t i = 0; i < aggs_.size(); ++i) {
      g.count[i]++;
      if (aggs_[i].func == AggFunc::kCount) continue;
      const double v = t->value(agg_idx_[i]).AsNumeric();
      switch (aggs_[i].func) {
        case AggFunc::kSum:
        case AggFunc::kAvg: g.acc[i] += v; break;
        case AggFunc::kMin: g.acc[i] = std::min(g.acc[i], v); break;
        case AggFunc::kMax: g.acc[i] = std::max(g.acc[i], v); break;
        case AggFunc::kCount: break;
      }
    }
  }
  built_ = true;
  return Status::OK();
}

Result<std::optional<Tuple>> AggregateOperator::Next() {
  if (!built_) HARBOR_RETURN_NOT_OK(BuildGroups());
  if (cursor_ >= groups_.size()) return std::optional<Tuple>{};
  const GroupState& g = groups_[cursor_++];
  std::vector<Value> vals = g.key;
  for (size_t i = 0; i < aggs_.size(); ++i) {
    double out = 0.0;
    switch (aggs_[i].func) {
      case AggFunc::kCount: out = static_cast<double>(g.count[i]); break;
      case AggFunc::kAvg:
        out = g.count[i] == 0 ? 0.0 : g.acc[i] / static_cast<double>(g.count[i]);
        break;
      default: out = g.acc[i];
    }
    vals.push_back(Value(out));
  }
  return std::optional<Tuple>(Tuple(std::move(vals)));
}

Status AggregateOperator::Rewind() {
  cursor_ = 0;
  return Status::OK();
}

}  // namespace harbor
