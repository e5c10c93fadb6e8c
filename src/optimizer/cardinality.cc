#include "optimizer/cardinality.h"

#include <algorithm>
#include <cmath>

#include "distance/edit_distance.h"

namespace mural {

double CardinalityEstimator::Clamp(double sel) const {
  return std::min(1.0, std::max(params_.min_selectivity, sel));
}

double CardinalityEstimator::PsiScanSelectivity(const ColumnStats& col,
                                                const Value& constant,
                                                int k,
                                                ExecContext* ctx) const {
  if (col.non_null == 0) return params_.min_selectivity;
  StatusOr<PhonemeString> q = PhonemesOf(constant, ctx);
  if (!q.ok()) return params_.opaque_selectivity;

  // First approximation: exact MFV frequencies whose phonemes match.
  uint64_t matched_mass = 0;
  for (size_t i = 0; i < col.mfvs.size(); ++i) {
    if (i < col.mfv_phonemes.size() &&
        WithinDistance(col.mfv_phonemes[i], *q, k)) {
      matched_mass += col.mfvs[i].second;
    }
  }
  double sel = static_cast<double>(matched_mass) /
               static_cast<double>(col.non_null);

  // Inflate for fuzzy matches among the non-frequent tail (§3.4.1).
  const double tail_mass = 1.0 - static_cast<double>(col.MfvMass()) /
                                     static_cast<double>(col.non_null);
  sel += tail_mass * params_.psi_tail_fraction_per_k *
         static_cast<double>(k + 1);
  return Clamp(sel);
}

double CardinalityEstimator::PsiJoinSelectivity(const ColumnStats& left,
                                                const ColumnStats& right,
                                                int k) const {
  // Base rate: cross-probe the two MFV phoneme sets, weighting by their
  // exact frequencies.
  double matched = 0.0, total = 0.0;
  for (size_t i = 0; i < left.mfvs.size(); ++i) {
    for (size_t j = 0; j < right.mfvs.size(); ++j) {
      const double w = static_cast<double>(left.mfvs[i].second) *
                       static_cast<double>(right.mfvs[j].second);
      total += w;
      if (i < left.mfv_phonemes.size() && j < right.mfv_phonemes.size() &&
          WithinDistance(left.mfv_phonemes[i], right.mfv_phonemes[j], k)) {
        matched += w;
      }
    }
  }
  double sel = total > 0 ? matched / total : 0.0;
  // The tail inflation covers non-frequent x non-frequent fuzzy matches.
  sel += params_.psi_tail_fraction_per_k * static_cast<double>(k + 1);
  return Clamp(sel);
}

double CardinalityEstimator::OmegaClosureSize(const Value* constant) const {
  if (taxonomy_ != nullptr && constant != nullptr &&
      constant->type() == TypeId::kUniText) {
    // Exact: |TC(c)| (closures are cheap on the pinned hierarchy).  A
    // constant with no roots has an empty closure: nothing matches it.
    const std::vector<SynsetId> roots =
        taxonomy_->Lookup(constant->unitext());
    return static_cast<double>(
        taxonomy_->TransitiveClosureOfAll(roots).size());
  }
  if (taxonomy_ != nullptr) {
    // Structural heuristic: f^h of an average-depth subtree.  A node
    // halfway down a tree of height h roots a subtree of height ~h/2.
    const TaxonomyStats ts = taxonomy_->ComputeStats();
    const double f = std::max(1.01, ts.avg_fanout);
    const double h = std::max(1.0, ts.height / 2.0);
    return std::min(static_cast<double>(ts.num_synsets), std::pow(f, h));
  }
  return 1.0;
}

double CardinalityEstimator::OmegaScanSelectivity(
    const ColumnStats& col, const Value* constant) const {
  (void)col;  // per-value category frequencies are future work (§3.4.2)
  if (taxonomy_ == nullptr || taxonomy_->size() == 0) {
    return params_.opaque_selectivity;
  }
  const double closure = OmegaClosureSize(constant);
  const double n_t = static_cast<double>(taxonomy_->size());
  // Fraction of concepts subsumed; assume column values spread uniformly
  // over concepts (paper's |TC(c)| / n_T with n_T from Table 2).
  return Clamp(closure / n_t);
}

double CardinalityEstimator::OmegaJoinSelectivity(
    const ColumnStats& lhs, const ColumnStats& rhs) const {
  (void)lhs;
  (void)rhs;
  if (taxonomy_ == nullptr || taxonomy_->size() == 0) {
    return params_.opaque_selectivity;
  }
  // Sum over RHS values of |TC(c_i)| / (n_l * n_T) — with the average
  // closure standing in for each |TC(c_i)| (paper §3.4.2).
  const double closure = OmegaClosureSize(nullptr);
  return Clamp(closure / static_cast<double>(taxonomy_->size()));
}

double CardinalityEstimator::EqSelectivity(const ColumnStats& col,
                                           const Value& constant) const {
  if (col.non_null == 0) return params_.min_selectivity;
  const uint64_t mfv = col.MfvCount(constant);
  if (mfv > 0) {
    return Clamp(static_cast<double>(mfv) /
                 static_cast<double>(col.non_null));
  }
  const uint64_t tail_ndv =
      col.ndv > col.mfvs.size() ? col.ndv - col.mfvs.size() : 1;
  const double tail_mass = static_cast<double>(col.non_null - col.MfvMass());
  return Clamp(tail_mass / static_cast<double>(tail_ndv) /
               static_cast<double>(col.non_null));
}

double CardinalityEstimator::RangeSelectivity(const ColumnStats& col,
                                              const Value& lo,
                                              const Value& hi) const {
  if (col.bounds.size() < 2) return params_.opaque_selectivity;
  const size_t nb = col.bounds.size() - 1;  // number of buckets
  double covered = 0.0;
  for (size_t b = 0; b < nb; ++b) {
    const Value& blo = col.bounds[b];
    const Value& bhi = col.bounds[b + 1];
    const bool above_lo = lo.is_null() || bhi.Compare(lo) >= 0;
    const bool below_hi = hi.is_null() || blo.Compare(hi) <= 0;
    if (above_lo && below_hi) covered += 1.0;
  }
  return Clamp(covered / static_cast<double>(nb));
}

double CardinalityEstimator::EquiJoinSelectivity(
    const ColumnStats& left, const ColumnStats& right) const {
  const double ndv =
      static_cast<double>(std::max<uint64_t>(1, std::max(left.ndv,
                                                         right.ndv)));
  return Clamp(1.0 / ndv);
}

namespace {

/// Matches `col OP literal` with OP a range bound; `*lower` is true for
/// `>` and `>=`.
bool MatchBound(const Expr& expr, size_t* col, Value* bound, bool* lower) {
  const auto* cmp = dynamic_cast<const ComparisonExpr*>(&expr);
  if (cmp == nullptr) return false;
  const auto* ref = dynamic_cast<const ColumnRefExpr*>(cmp->left().get());
  const auto* lit = dynamic_cast<const LiteralExpr*>(cmp->right().get());
  if (ref == nullptr || lit == nullptr) return false;
  switch (cmp->op()) {
    case CompareOp::kGt:
    case CompareOp::kGe:
      *lower = true;
      break;
    case CompareOp::kLt:
    case CompareOp::kLe:
      *lower = false;
      break;
    default:
      return false;
  }
  *col = ref->index();
  *bound = lit->value();
  return true;
}

}  // namespace

std::optional<double> CardinalityEstimator::RangeConjunctionSelectivity(
    const LogicalExpr& conjunction, const TableStats& table,
    const Schema& schema, ExecContext* ctx) const {
  std::vector<ExprPtr> conjuncts;
  FlattenConjuncts(conjunction.left(), &conjuncts);
  FlattenConjuncts(conjunction.right(), &conjuncts);
  std::vector<bool> done(conjuncts.size(), false);
  double sel = 1.0;
  bool paired = false;
  for (size_t i = 0; i < conjuncts.size(); ++i) {
    size_t col;
    Value lo;
    bool lower;
    if (!MatchBound(*conjuncts[i], &col, &lo, &lower) || !lower ||
        col >= schema.NumColumns()) {
      continue;
    }
    const ColumnStats* cs = table.Column(schema.column(col).name);
    if (cs == nullptr) continue;
    for (size_t j = 0; j < conjuncts.size(); ++j) {
      size_t hi_col;
      Value hi;
      bool hi_lower;
      if (done[j] || j == i ||
          !MatchBound(*conjuncts[j], &hi_col, &hi, &hi_lower) || hi_lower ||
          hi_col != col) {
        continue;
      }
      sel *= RangeSelectivity(*cs, lo, hi);
      done[i] = done[j] = true;
      paired = true;
      break;
    }
  }
  if (!paired) return std::nullopt;
  for (size_t i = 0; i < conjuncts.size(); ++i) {
    if (done[i]) continue;
    sel *= PredicateSelectivity(*conjuncts[i], table, schema, ctx);
  }
  return Clamp(sel);
}

double CardinalityEstimator::PredicateSelectivity(const Expr& expr,
                                                  const TableStats& table,
                                                  const Schema& schema,
                                                  ExecContext* ctx) const {
  if (const auto* logical = dynamic_cast<const LogicalExpr*>(&expr)) {
    switch (logical->op()) {
      case LogicalOp::kAnd: {
        const std::optional<double> ranged =
            RangeConjunctionSelectivity(*logical, table, schema, ctx);
        if (ranged.has_value()) return *ranged;
        // Conjunction: independence assumption.
        const double l = PredicateSelectivity(*logical->left(), table,
                                              schema, ctx);
        const double r = PredicateSelectivity(*logical->right(), table,
                                              schema, ctx);
        return Clamp(l * r);
      }
      case LogicalOp::kOr: {
        const double l = PredicateSelectivity(*logical->left(), table,
                                              schema, ctx);
        const double r = PredicateSelectivity(*logical->right(), table,
                                              schema, ctx);
        return Clamp(l + r - l * r);
      }
      case LogicalOp::kNot:
        return Clamp(1.0 - PredicateSelectivity(*logical->left(), table,
                                                schema, ctx));
    }
  }
  if (const auto* cmp = dynamic_cast<const ComparisonExpr*>(&expr)) {
    const auto* col = dynamic_cast<const ColumnRefExpr*>(cmp->left().get());
    const auto* lit = dynamic_cast<const LiteralExpr*>(cmp->right().get());
    if (col != nullptr && lit != nullptr &&
        col->index() < schema.NumColumns()) {
      const ColumnStats* cs =
          table.Column(schema.column(col->index()).name);
      if (cs != nullptr) {
        switch (cmp->op()) {
          case CompareOp::kEq:
            return EqSelectivity(*cs, lit->value());
          case CompareOp::kNe:
            return Clamp(1.0 - EqSelectivity(*cs, lit->value()));
          case CompareOp::kLt:
          case CompareOp::kLe:
            return RangeSelectivity(*cs, Value::Null(), lit->value());
          case CompareOp::kGt:
          case CompareOp::kGe:
            return RangeSelectivity(*cs, lit->value(), Value::Null());
        }
      }
    }
    return params_.opaque_selectivity;
  }
  if (const auto* psi = dynamic_cast<const LexEqualExpr*>(&expr)) {
    const auto* col = dynamic_cast<const ColumnRefExpr*>(psi->left().get());
    const auto* lit = dynamic_cast<const LiteralExpr*>(psi->right().get());
    // Psi commutes: accept the constant on either side (Table 1).
    if (col == nullptr || lit == nullptr) {
      col = dynamic_cast<const ColumnRefExpr*>(psi->right().get());
      lit = dynamic_cast<const LiteralExpr*>(psi->left().get());
    }
    if (col != nullptr && lit != nullptr &&
        col->index() < schema.NumColumns()) {
      const ColumnStats* cs =
          table.Column(schema.column(col->index()).name);
      if (cs != nullptr) {
        return PsiScanSelectivity(*cs, lit->value(),
                                  psi->EffectiveThreshold(ctx), ctx);
      }
    }
    return params_.opaque_selectivity;
  }
  if (const auto* omega = dynamic_cast<const SemEqualExpr*>(&expr)) {
    const auto* col =
        dynamic_cast<const ColumnRefExpr*>(omega->left().get());
    const auto* lit =
        dynamic_cast<const LiteralExpr*>(omega->right().get());
    if (col != nullptr && lit != nullptr &&
        col->index() < schema.NumColumns()) {
      const ColumnStats* cs =
          table.Column(schema.column(col->index()).name);
      if (cs != nullptr) {
        const Value& v = lit->value();
        return OmegaScanSelectivity(*cs, &v);
      }
    }
    return params_.opaque_selectivity;
  }
  if (const auto* lang = dynamic_cast<const LangInExpr*>(&expr)) {
    // Assume languages are uniform over the registry's population.
    const size_t total =
        std::max<size_t>(1, LanguageRegistry::Default().All().size());
    return Clamp(static_cast<double>(lang->langs().size()) /
                 static_cast<double>(total));
  }
  return params_.opaque_selectivity;
}

}  // namespace mural
