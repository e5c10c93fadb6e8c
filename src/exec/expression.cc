#include "exec/expression.h"

#include "common/string_util.h"
#include "phonetic/phoneme_cache.h"

namespace mural {

const char* CompareOpToString(CompareOp op) {
  switch (op) {
    case CompareOp::kEq:
      return "=";
    case CompareOp::kNe:
      return "<>";
    case CompareOp::kLt:
      return "<";
    case CompareOp::kLe:
      return "<=";
    case CompareOp::kGt:
      return ">";
    case CompareOp::kGe:
      return ">=";
  }
  return "?";
}

StatusOr<Value> ColumnRefExpr::Evaluate(const Row& row,
                                        ExecContext* ctx) const {
  (void)ctx;
  if (index_ >= row.size()) {
    return Status::Internal("column index " + std::to_string(index_) +
                            " out of row bounds");
  }
  return row[index_];
}

StatusOr<Value> LiteralExpr::Evaluate(const Row& row,
                                      ExecContext* ctx) const {
  (void)row;
  (void)ctx;
  return value_;
}

StatusOr<Value> ComparisonExpr::Evaluate(const Row& row,
                                         ExecContext* ctx) const {
  MURAL_ASSIGN_OR_RETURN(const Value l, left_->Evaluate(row, ctx));
  MURAL_ASSIGN_OR_RETURN(const Value r, right_->Evaluate(row, ctx));
  if (l.is_null() || r.is_null()) return Value::Null();
  ++ctx->stats.predicate_evals;
  const int c = l.Compare(r);
  switch (op_) {
    case CompareOp::kEq:
      return Value::Bool(c == 0);
    case CompareOp::kNe:
      return Value::Bool(c != 0);
    case CompareOp::kLt:
      return Value::Bool(c < 0);
    case CompareOp::kLe:
      return Value::Bool(c <= 0);
    case CompareOp::kGt:
      return Value::Bool(c > 0);
    case CompareOp::kGe:
      return Value::Bool(c >= 0);
  }
  return Status::Internal("unknown comparison op");
}

std::string ComparisonExpr::ToString() const {
  return left_->ToString() + " " + CompareOpToString(op_) + " " +
         right_->ToString();
}

StatusOr<Value> LogicalExpr::Evaluate(const Row& row,
                                      ExecContext* ctx) const {
  MURAL_ASSIGN_OR_RETURN(const Value l, left_->Evaluate(row, ctx));
  if (op_ == LogicalOp::kNot) {
    if (l.is_null()) return Value::Null();
    return Value::Bool(!l.bool_val());
  }
  // Three-valued short-circuit.
  if (op_ == LogicalOp::kAnd) {
    if (!l.is_null() && !l.bool_val()) return Value::Bool(false);
    MURAL_ASSIGN_OR_RETURN(const Value r, right_->Evaluate(row, ctx));
    if (!r.is_null() && !r.bool_val()) return Value::Bool(false);
    if (l.is_null() || r.is_null()) return Value::Null();
    return Value::Bool(true);
  }
  if (!l.is_null() && l.bool_val()) return Value::Bool(true);
  MURAL_ASSIGN_OR_RETURN(const Value r, right_->Evaluate(row, ctx));
  if (!r.is_null() && r.bool_val()) return Value::Bool(true);
  if (l.is_null() || r.is_null()) return Value::Null();
  return Value::Bool(false);
}

std::string LogicalExpr::ToString() const {
  switch (op_) {
    case LogicalOp::kNot:
      return "NOT (" + left_->ToString() + ")";
    case LogicalOp::kAnd:
      return "(" + left_->ToString() + " AND " + right_->ToString() + ")";
    case LogicalOp::kOr:
      return "(" + left_->ToString() + " OR " + right_->ToString() + ")";
  }
  return "?";
}

StatusOr<Value> FullEqualsExpr::Evaluate(const Row& row,
                                         ExecContext* ctx) const {
  MURAL_ASSIGN_OR_RETURN(const Value l, left_->Evaluate(row, ctx));
  MURAL_ASSIGN_OR_RETURN(const Value r, right_->Evaluate(row, ctx));
  if (l.is_null() || r.is_null()) return Value::Null();
  if (l.type() != TypeId::kUniText || r.type() != TypeId::kUniText) {
    return Status::InvalidArgument("=== requires UNITEXT operands");
  }
  ++ctx->stats.predicate_evals;
  return Value::Bool(l.unitext().FullEquals(r.unitext()));
}

// Cache-aware G2P: a hit costs a lookup, a miss costs (and counts) the
// transform.  Without a session cache every call is a transform, which is
// the pre-cache behavior the counters' consumers expect.
PhonemeString TransformPhonemesCounted(std::string_view text, LangId lang,
                                       ExecContext* ctx) {
  if (ctx->phoneme_cache != nullptr) {
    bool was_hit = false;
    PhonemeString p =
        ctx->phoneme_cache->GetOrCompute(text, lang, *ctx->transformer,
                                         &was_hit);
    if (was_hit) {
      ++ctx->stats.phoneme_cache_hits;
    } else {
      ++ctx->stats.phoneme_cache_misses;
      ++ctx->stats.phoneme_transforms;
    }
    return p;
  }
  ++ctx->stats.phoneme_transforms;
  return ctx->transformer->Transform(text, lang);
}

StatusOr<PhonemeString> PhonemesOf(const Value& v, ExecContext* ctx) {
  if (v.type() == TypeId::kUniText) {
    const UniText& u = v.unitext();
    if (u.has_phonemes()) return *u.phonemes();
    return TransformPhonemesCounted(u.text(), u.lang(), ctx);
  }
  if (v.type() == TypeId::kText) {
    return TransformPhonemesCounted(v.text(), lang::kEnglish, ctx);
  }
  return Status::InvalidArgument("LexEQUAL operand must be UNITEXT or TEXT");
}

StatusOr<Value> LexEqualExpr::Evaluate(const Row& row,
                                       ExecContext* ctx) const {
  MURAL_ASSIGN_OR_RETURN(const Value l, left_->Evaluate(row, ctx));
  MURAL_ASSIGN_OR_RETURN(const Value r, right_->Evaluate(row, ctx));
  if (l.is_null() || r.is_null()) return Value::Null();
  MURAL_ASSIGN_OR_RETURN(const PhonemeString pl, PhonemesOf(l, ctx));
  MURAL_ASSIGN_OR_RETURN(const PhonemeString pr, PhonemesOf(r, ctx));
  ++ctx->stats.predicate_evals;
  const int k = EffectiveThreshold(ctx);
  const int d = BoundedDistanceCounted(pl, pr, k, &ctx->stats.distance);
  return Value::Bool(d <= k);
}

std::string LexEqualExpr::ToString() const {
  std::string out = left_->ToString() + " LexEQUAL " + right_->ToString();
  if (threshold_override_ >= 0) {
    out += StringFormat(" {t=%d}", threshold_override_);
  }
  return out;
}

StatusOr<Value> SemEqualExpr::Evaluate(const Row& row,
                                       ExecContext* ctx) const {
  if (ctx->taxonomy == nullptr) {
    return Status::InvalidArgument(
        "SemEQUAL requires a taxonomy pinned in the session");
  }
  MURAL_ASSIGN_OR_RETURN(const Value l, left_->Evaluate(row, ctx));
  MURAL_ASSIGN_OR_RETURN(const Value r, right_->Evaluate(row, ctx));
  if (l.is_null() || r.is_null()) return Value::Null();
  if (l.type() != TypeId::kUniText || r.type() != TypeId::kUniText) {
    return Status::InvalidArgument("SemEQUAL requires UNITEXT operands");
  }
  ++ctx->stats.predicate_evals;
  const Taxonomy& tax = *ctx->taxonomy;
  const std::vector<SynsetId> lhs = tax.Lookup(l.unitext());
  if (lhs.empty()) return Value::Bool(false);
  const std::vector<SynsetId> rhs = tax.Lookup(r.unitext());
  if (rhs.empty()) return Value::Bool(false);
  // Memoized closures when the session provides a cache (paper §4.3);
  // otherwise compute per evaluation (the naive path, used as an ablation
  // baseline).
  if (ctx->closure_cache != nullptr) {
    for (SynsetId root : rhs) {
      const uint64_t misses_before = ctx->closure_cache->misses();
      const Closure& closure = ctx->closure_cache->Get(root);
      if (ctx->closure_cache->misses() > misses_before) {
        ++ctx->stats.closure_computations;
      } else {
        ++ctx->stats.closure_reuses;
      }
      for (SynsetId id : lhs) {
        if (closure.count(id) > 0) return Value::Bool(true);
      }
    }
    return Value::Bool(false);
  }
  ++ctx->stats.closure_computations;
  const Closure closure = tax.TransitiveClosureOfAll(rhs);
  for (SynsetId id : lhs) {
    if (closure.count(id) > 0) return Value::Bool(true);
  }
  return Value::Bool(false);
}

StatusOr<Value> LangInExpr::Evaluate(const Row& row, ExecContext* ctx) const {
  MURAL_ASSIGN_OR_RETURN(const Value v, operand_->Evaluate(row, ctx));
  if (v.is_null()) return Value::Null();
  if (v.type() != TypeId::kUniText) {
    return Status::InvalidArgument("IN <languages> requires UNITEXT operand");
  }
  return Value::Bool(langs_.count(v.unitext().lang()) > 0);
}

std::string LangInExpr::ToString() const {
  std::vector<std::string> names;
  for (LangId id : langs_) {
    names.push_back(LanguageRegistry::Default().NameOf(id));
  }
  return operand_->ToString() + " IN " + Join(names, ", ");
}

ExprPtr Col(size_t index, std::string name) {
  return std::make_shared<ColumnRefExpr>(index, std::move(name));
}
ExprPtr Lit(Value v) { return std::make_shared<LiteralExpr>(std::move(v)); }
ExprPtr Cmp(CompareOp op, ExprPtr l, ExprPtr r) {
  return std::make_shared<ComparisonExpr>(op, std::move(l), std::move(r));
}
ExprPtr Eq(ExprPtr l, ExprPtr r) {
  return Cmp(CompareOp::kEq, std::move(l), std::move(r));
}
ExprPtr And(ExprPtr l, ExprPtr r) {
  return std::make_shared<LogicalExpr>(LogicalOp::kAnd, std::move(l),
                                       std::move(r));
}
ExprPtr Or(ExprPtr l, ExprPtr r) {
  return std::make_shared<LogicalExpr>(LogicalOp::kOr, std::move(l),
                                       std::move(r));
}
ExprPtr Not(ExprPtr e) {
  return std::make_shared<LogicalExpr>(LogicalOp::kNot, std::move(e));
}
ExprPtr LexEq(ExprPtr l, ExprPtr r, int threshold) {
  return std::make_shared<LexEqualExpr>(std::move(l), std::move(r),
                                        threshold);
}
ExprPtr SemEq(ExprPtr l, ExprPtr r) {
  return std::make_shared<SemEqualExpr>(std::move(l), std::move(r));
}
ExprPtr LangIn(ExprPtr operand, std::set<LangId> langs) {
  return std::make_shared<LangInExpr>(std::move(operand), std::move(langs));
}

void FlattenConjuncts(const ExprPtr& expr, std::vector<ExprPtr>* out) {
  if (const auto* logical = dynamic_cast<const LogicalExpr*>(expr.get())) {
    if (logical->op() == LogicalOp::kAnd) {
      FlattenConjuncts(logical->left(), out);
      FlattenConjuncts(logical->right(), out);
      return;
    }
  }
  out->push_back(expr);
}

StatusOr<bool> EvalPredicate(const Expr& e, const Row& row,
                             ExecContext* ctx) {
  MURAL_ASSIGN_OR_RETURN(const Value v, e.Evaluate(row, ctx));
  if (v.is_null()) return false;
  if (v.type() != TypeId::kBool) {
    return Status::InvalidArgument("predicate did not evaluate to boolean");
  }
  return v.bool_val();
}

}  // namespace mural
