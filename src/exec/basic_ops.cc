#include "exec/basic_ops.h"

#include <algorithm>

namespace mural {

StatusOr<bool> FilterOp::NextImpl(Row* out) {
  while (true) {
    MURAL_ASSIGN_OR_RETURN(const bool more, child_->Next(out));
    if (!more) return false;
    MURAL_ASSIGN_OR_RETURN(const bool keep,
                           EvalPredicate(*predicate_, *out, ctx_));
    if (keep) {
      CountRow();
      return true;
    }
  }
}

StatusOr<bool> FilterOp::NextBatchImpl(RowBatch* out) {
  // Pulls child batches and compacts the selection vector in place; rows
  // never move.  Loops past batches the predicate empties so callers see
  // at most one empty batch (the exhausted one).
  while (true) {
    MURAL_ASSIGN_OR_RETURN(const bool more, child_->NextBatch(out));
    std::vector<uint32_t>& sel = out->selection();
    size_t kept = 0;
    for (size_t i = 0; i < sel.size(); ++i) {
      MURAL_ASSIGN_OR_RETURN(
          const bool keep,
          EvalPredicate(*predicate_, out->SelectedRow(i), ctx_));
      if (keep) sel[kept++] = sel[i];
    }
    sel.resize(kept);
    CountRows(kept);
    if (!more) return !out->empty();
    if (kept > 0) return true;
  }
}

OpPtr ProjectOp::ByColumns(ExecContext* ctx, OpPtr child,
                           const std::vector<size_t>& columns) {
  const Schema& in = child->output_schema();
  std::vector<ExprPtr> exprs;
  std::vector<Column> cols;
  for (size_t c : columns) {
    exprs.push_back(Col(c, in.column(c).name));
    cols.push_back(in.column(c));
  }
  return std::make_unique<ProjectOp>(ctx, std::move(child), std::move(exprs),
                                     Schema(std::move(cols)));
}

Status ProjectOp::ProjectRow(const Row& in, Row* out) {
  out->clear();
  out->reserve(exprs_.size());
  for (const ExprPtr& e : exprs_) {
    MURAL_ASSIGN_OR_RETURN(Value v, e->Evaluate(in, ctx_));
    out->push_back(std::move(v));
  }
  return Status::OK();
}

StatusOr<bool> ProjectOp::NextImpl(Row* out) {
  Row in;
  MURAL_ASSIGN_OR_RETURN(const bool more, child_->Next(&in));
  if (!more) return false;
  MURAL_RETURN_IF_ERROR(ProjectRow(in, out));
  CountRow();
  return true;
}

StatusOr<bool> ProjectOp::NextBatchImpl(RowBatch* out) {
  // The child fills the caller's batch; each selected row is replaced by
  // its projection through one scratch row, so the batch path allocates
  // no second batch and, in steady state, no row storage either.
  MURAL_ASSIGN_OR_RETURN(const bool more, child_->NextBatch(out));
  for (size_t i = 0; i < out->num_selected(); ++i) {
    Row& row = out->SelectedRow(i);
    MURAL_RETURN_IF_ERROR(ProjectRow(row, &scratch_));
    row.swap(scratch_);
  }
  CountRows(out->num_selected());
  return more;
}

std::string ProjectOp::DisplayName() const {
  std::string out = "Project(";
  for (size_t i = 0; i < exprs_.size(); ++i) {
    if (i > 0) out += ", ";
    out += exprs_[i]->ToString();
  }
  out += ")";
  return out;
}

StatusOr<bool> LimitOp::NextImpl(Row* out) {
  if (seen_ >= limit_) return false;
  MURAL_ASSIGN_OR_RETURN(const bool more, child_->Next(out));
  if (!more) return false;
  ++seen_;
  CountRow();
  return true;
}

StatusOr<bool> LimitOp::NextBatchImpl(RowBatch* out) {
  if (seen_ >= limit_) return false;
  MURAL_ASSIGN_OR_RETURN(const bool more, child_->NextBatch(out));
  std::vector<uint32_t>& sel = out->selection();
  if (sel.size() > limit_ - seen_) sel.resize(limit_ - seen_);
  seen_ += sel.size();
  CountRows(sel.size());
  return more;
}

Status MaterializeOp::OpenImpl() {
  pos_ = 0;
  if (rows_.has_value()) return Status::OK();  // rescan: replay
  MURAL_RETURN_IF_ERROR(child_->Open());
  rows_.emplace();
  Row row;
  while (true) {
    MURAL_ASSIGN_OR_RETURN(const bool more, child_->Next(&row));
    if (!more) break;
    rows_->push_back(row);
  }
  return child_->Close();
}

StatusOr<bool> MaterializeOp::NextImpl(Row* out) {
  if (pos_ >= rows_->size()) return false;
  *out = (*rows_)[pos_++];
  CountRow();
  return true;
}

Status MaterializeOp::CloseImpl() {
  // No-op unless a failed Open left the child mid-drain (Close is
  // idempotent); releases it so no span dangles.
  return child_->Close();
}

StatusOr<bool> UnionAllOp::NextImpl(Row* out) {
  if (!on_right_) {
    MURAL_ASSIGN_OR_RETURN(const bool more, left_->Next(out));
    if (more) {
      CountRow();
      return true;
    }
    on_right_ = true;
  }
  MURAL_ASSIGN_OR_RETURN(const bool more, right_->Next(out));
  if (more) CountRow();
  return more;
}

Status SortOp::OpenImpl() {
  MURAL_RETURN_IF_ERROR(child_->Open());
  rows_.clear();
  pos_ = 0;
  Row row;
  while (true) {
    MURAL_ASSIGN_OR_RETURN(const bool more, child_->Next(&row));
    if (!more) break;
    rows_.push_back(std::move(row));
    row.clear();
  }
  MURAL_RETURN_IF_ERROR(child_->Close());
  std::stable_sort(rows_.begin(), rows_.end(),
                   [this](const Row& a, const Row& b) {
                     for (const SortKey& k : keys_) {
                       const int c = a[k.column].Compare(b[k.column]);
                       if (c != 0) return k.ascending ? c < 0 : c > 0;
                     }
                     return false;
                   });
  return Status::OK();
}

StatusOr<bool> SortOp::NextImpl(Row* out) {
  if (pos_ >= rows_.size()) return false;
  *out = rows_[pos_++];
  CountRow();
  return true;
}

Status SortOp::CloseImpl() {
  rows_.clear();
  return child_->Close();
}

std::string SortOp::DisplayName() const {
  std::string out = "Sort(";
  const Schema& schema = child_->output_schema();
  for (size_t i = 0; i < keys_.size(); ++i) {
    if (i > 0) out += ", ";
    out += schema.column(keys_[i].column).name;
    if (!keys_[i].ascending) out += " DESC";
  }
  out += ")";
  return out;
}

}  // namespace mural
