// Expression trees evaluated against rows.
//
// Includes the standard relational predicates plus the multilingual ones:
//   - LexEqualExpr (Psi):  phoneme edit-distance match under the session
//     threshold (paper Fig. 3);
//   - SemEqualExpr (Omega): transitive-closure membership in the pinned
//     taxonomy (paper Fig. 5);
//   - FullEqualsExpr:      the UniText 'both components' equality;
//   - LangInExpr:          the "IN English, Tamil, ..." language filter of
//     the paper's SQL surface.

#pragma once

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "catalog/schema.h"
#include "catalog/value.h"
#include "common/status.h"
#include "exec/exec_context.h"

namespace mural {

class Expr;
using ExprPtr = std::shared_ptr<Expr>;

/// Comparison operators for ComparisonExpr.
enum class CompareOp { kEq, kNe, kLt, kLe, kGt, kGe };

const char* CompareOpToString(CompareOp op);

/// Base expression.  Evaluate returns a Value (kBool for predicates; NULL
/// propagates SQL-style).
class Expr {
 public:
  virtual ~Expr() = default;

  [[nodiscard]]
  virtual StatusOr<Value> Evaluate(const Row& row, ExecContext* ctx) const = 0;

  /// Display form for EXPLAIN.
  virtual std::string ToString() const = 0;

  /// Column indexes this expression reads (for pushdown legality checks).
  virtual void CollectColumns(std::set<size_t>* out) const = 0;
};

/// A reference to the i-th column of the input row.
class ColumnRefExpr : public Expr {
 public:
  ColumnRefExpr(size_t index, std::string name)
      : index_(index), name_(std::move(name)) {}

  [[nodiscard]]
  StatusOr<Value> Evaluate(const Row& row, ExecContext* ctx) const override;
  std::string ToString() const override { return name_; }
  void CollectColumns(std::set<size_t>* out) const override {
    out->insert(index_);
  }

  size_t index() const { return index_; }

 private:
  size_t index_;
  std::string name_;
};

/// A literal constant.
class LiteralExpr : public Expr {
 public:
  explicit LiteralExpr(Value value) : value_(std::move(value)) {}

  [[nodiscard]]
  StatusOr<Value> Evaluate(const Row& row, ExecContext* ctx) const override;
  std::string ToString() const override { return value_.ToString(); }
  void CollectColumns(std::set<size_t>*) const override {}

  const Value& value() const { return value_; }

 private:
  Value value_;
};

/// Binary comparison with SQL NULL semantics (NULL operand -> NULL).
class ComparisonExpr : public Expr {
 public:
  ComparisonExpr(CompareOp op, ExprPtr left, ExprPtr right)
      : op_(op), left_(std::move(left)), right_(std::move(right)) {}

  [[nodiscard]]
  StatusOr<Value> Evaluate(const Row& row, ExecContext* ctx) const override;
  std::string ToString() const override;
  void CollectColumns(std::set<size_t>* out) const override {
    left_->CollectColumns(out);
    right_->CollectColumns(out);
  }

  CompareOp op() const { return op_; }
  const ExprPtr& left() const { return left_; }
  const ExprPtr& right() const { return right_; }

 private:
  CompareOp op_;
  ExprPtr left_, right_;
};

/// AND / OR / NOT with three-valued logic.
enum class LogicalOp { kAnd, kOr, kNot };

class LogicalExpr : public Expr {
 public:
  LogicalExpr(LogicalOp op, ExprPtr left, ExprPtr right = nullptr)
      : op_(op), left_(std::move(left)), right_(std::move(right)) {}

  [[nodiscard]]
  StatusOr<Value> Evaluate(const Row& row, ExecContext* ctx) const override;
  std::string ToString() const override;
  void CollectColumns(std::set<size_t>* out) const override {
    left_->CollectColumns(out);
    if (right_) right_->CollectColumns(out);
  }

  LogicalOp op() const { return op_; }
  const ExprPtr& left() const { return left_; }
  const ExprPtr& right() const { return right_; }

 private:
  LogicalOp op_;
  ExprPtr left_, right_;
};

/// The UniText full-equality operator (text AND language must match).
class FullEqualsExpr : public Expr {
 public:
  FullEqualsExpr(ExprPtr left, ExprPtr right)
      : left_(std::move(left)), right_(std::move(right)) {}

  [[nodiscard]]
  StatusOr<Value> Evaluate(const Row& row, ExecContext* ctx) const override;
  std::string ToString() const override {
    return left_->ToString() + " === " + right_->ToString();
  }
  void CollectColumns(std::set<size_t>* out) const override {
    left_->CollectColumns(out);
    right_->CollectColumns(out);
  }

 private:
  ExprPtr left_, right_;
};

/// Psi: LexEQUAL(left, right) under the session threshold.  Operands must
/// evaluate to UNITEXT (or TEXT, treated as phoneme-transformable English).
///
/// `threshold_override` < 0 means "use ctx->lexequal_threshold" (the
/// paper's workaround for PostgreSQL's binary-operator limit, §4.2).
class LexEqualExpr : public Expr {
 public:
  LexEqualExpr(ExprPtr left, ExprPtr right, int threshold_override = -1)
      : left_(std::move(left)),
        right_(std::move(right)),
        threshold_override_(threshold_override) {}

  [[nodiscard]]
  StatusOr<Value> Evaluate(const Row& row, ExecContext* ctx) const override;
  std::string ToString() const override;
  void CollectColumns(std::set<size_t>* out) const override {
    left_->CollectColumns(out);
    right_->CollectColumns(out);
  }

  const ExprPtr& left() const { return left_; }
  const ExprPtr& right() const { return right_; }
  int threshold_override() const { return threshold_override_; }

  /// Resolves the effective threshold for a context.
  int EffectiveThreshold(const ExecContext* ctx) const {
    return threshold_override_ >= 0 ? threshold_override_
                                    : ctx->lexequal_threshold;
  }

 private:
  ExprPtr left_, right_;
  int threshold_override_;
};

/// Omega: SemEQUAL(left, right) — true iff some sense of `left` is in the
/// transitive closure of `right` in the pinned taxonomy.
class SemEqualExpr : public Expr {
 public:
  SemEqualExpr(ExprPtr left, ExprPtr right)
      : left_(std::move(left)), right_(std::move(right)) {}

  [[nodiscard]]
  StatusOr<Value> Evaluate(const Row& row, ExecContext* ctx) const override;
  std::string ToString() const override {
    return left_->ToString() + " SemEQUAL " + right_->ToString();
  }
  void CollectColumns(std::set<size_t>* out) const override {
    left_->CollectColumns(out);
    right_->CollectColumns(out);
  }

  const ExprPtr& left() const { return left_; }
  const ExprPtr& right() const { return right_; }

 private:
  ExprPtr left_, right_;
};

/// "attr IN (English, Tamil, ...)": true iff the UNITEXT operand's
/// language id is in the set.
class LangInExpr : public Expr {
 public:
  LangInExpr(ExprPtr operand, std::set<LangId> langs)
      : operand_(std::move(operand)), langs_(std::move(langs)) {}

  [[nodiscard]]
  StatusOr<Value> Evaluate(const Row& row, ExecContext* ctx) const override;
  std::string ToString() const override;
  void CollectColumns(std::set<size_t>* out) const override {
    operand_->CollectColumns(out);
  }

  const std::set<LangId>& langs() const { return langs_; }

 private:
  ExprPtr operand_;
  std::set<LangId> langs_;
};

// ------------------------------------------------------ builder helpers

ExprPtr Col(size_t index, std::string name);
ExprPtr Lit(Value v);
ExprPtr Cmp(CompareOp op, ExprPtr l, ExprPtr r);
ExprPtr Eq(ExprPtr l, ExprPtr r);
ExprPtr And(ExprPtr l, ExprPtr r);
ExprPtr Or(ExprPtr l, ExprPtr r);
ExprPtr Not(ExprPtr e);
ExprPtr LexEq(ExprPtr l, ExprPtr r, int threshold = -1);
ExprPtr SemEq(ExprPtr l, ExprPtr r);
ExprPtr LangIn(ExprPtr operand, std::set<LangId> langs);

/// Flattens an AND tree into its conjuncts, left to right.
void FlattenConjuncts(const ExprPtr& expr, std::vector<ExprPtr>* out);

/// Helper used by both the expression evaluator and physical operators:
/// the phoneme string of a value (materialized if available, else
/// transformed; TEXT values transform with the English rules).
[[nodiscard]]
StatusOr<PhonemeString> PhonemesOf(const Value& v, ExecContext* ctx);

/// Cache-aware grapheme-to-phoneme transform with the same counter
/// accounting PhonemesOf uses (cache hits/misses, transforms).  The batch
/// LexEQUAL scan calls this directly when it peeks a key column that has
/// no materialized phonemes.
PhonemeString TransformPhonemesCounted(std::string_view text, LangId lang,
                                       ExecContext* ctx);

/// Helper: evaluates a predicate expression to a definite boolean (NULL ->
/// false, matching SQL WHERE semantics).
[[nodiscard]]
StatusOr<bool> EvalPredicate(const Expr& e, const Row& row, ExecContext* ctx);

}  // namespace mural
