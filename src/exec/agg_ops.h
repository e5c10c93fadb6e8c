// Hash aggregation: GROUP BY + COUNT/SUM/AVG/MIN/MAX.

#pragma once

#include <map>
#include <vector>

#include "exec/expression.h"
#include "exec/operator.h"

namespace mural {

enum class AggKind { kCountStar, kCount, kSum, kAvg, kMin, kMax };

const char* AggKindToString(AggKind kind);

/// One aggregate to compute.  `column` is ignored for kCountStar.
struct AggSpec {
  AggKind kind = AggKind::kCountStar;
  size_t column = 0;
  std::string output_name = "agg";
};

/// Groups child rows by `group_by` columns and computes aggregates.
/// Output schema: group columns (in order) followed by one column per
/// aggregate.  With no group columns, emits exactly one row (aggregates
/// over the whole input; zero-input COUNT is 0, others NULL).  Without
/// group columns (and with a non-zero batch size) the child is drained
/// through NextBatch, so a batch-native child keeps its batch path.
class AggregateOp : public PhysicalOp {
 public:
  AggregateOp(ExecContext* ctx, OpPtr child, std::vector<size_t> group_by,
              std::vector<AggSpec> aggs);

  [[nodiscard]] Status OpenImpl() override;
  [[nodiscard]] StatusOr<bool> NextImpl(Row* out) override;
  [[nodiscard]] Status CloseImpl() override;
  const Schema& output_schema() const override { return schema_; }
  std::string DisplayName() const override;
  std::vector<const PhysicalOp*> Children() const override {
    return {child_.get()};
  }

 private:
  struct AggState {
    int64_t count = 0;
    double sum = 0;
    bool saw_value = false;
    Value min, max;
  };

  [[nodiscard]]
  Status Accumulate(const Row& row, std::vector<AggState>* states) const;
  Row Finalize(const Row& group, const std::vector<AggState>& states) const;

  OpPtr child_;
  std::vector<size_t> group_by_;
  std::vector<AggSpec> aggs_;
  Schema schema_;
  std::vector<Row> results_;
  size_t pos_ = 0;
};

}  // namespace mural
