#ifndef HARBOR_EXEC_OPERATORS_H_
#define HARBOR_EXEC_OPERATORS_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "exec/operator.h"
#include "exec/predicate.h"

namespace harbor {

/// Aggregate functions for AggregateOperator.
enum class AggFunc : uint8_t { kCount, kSum, kMin, kMax, kAvg };

struct AggSpec {
  AggFunc func;
  std::string column;  // ignored for kCount
};

/// \brief Hash-based grouping aggregation (§6.1.5 "aggregations with
/// in-memory hash-based grouping"). Output columns: the group-by columns
/// followed by one DOUBLE per aggregate.
class AggregateOperator : public Operator {
 public:
  AggregateOperator(std::unique_ptr<Operator> child,
                    std::vector<std::string> group_by,
                    std::vector<AggSpec> aggs);

  Status Open() override;
  Result<std::optional<Tuple>> Next() override;
  Status Rewind() override;
  const Schema& schema() const override { return schema_; }

 private:
  struct GroupState {
    std::vector<Value> key;
    std::vector<double> acc;
    std::vector<int64_t> count;
  };

  Status BuildGroups();

  std::unique_ptr<Operator> child_;
  std::vector<std::string> group_by_;
  std::vector<AggSpec> aggs_;
  std::vector<size_t> group_idx_;
  std::vector<size_t> agg_idx_;
  Schema schema_;
  std::vector<GroupState> groups_;
  size_t cursor_ = 0;
  bool built_ = false;
};

}  // namespace harbor

#endif  // HARBOR_EXEC_OPERATORS_H_
