// Selectivity / output-cardinality estimation (paper §3.4).
//
// Psi (§3.4.1): probe the end-biased histogram — the exact frequencies of
// the ten most-frequent values are matched against the query constant in
// phoneme space at the query threshold; that gives the first
// approximation, which is then inflated by a threshold-dependent factor to
// model fuzzy matches among non-frequent values.
//
// Omega (§3.4.2): selectivity from the taxonomy's structural parameters
// (f_T, h_T, n_T) — scan selectivity f^h / n_T — or, when the closure is
// materialized/cheaply computable, the exact |TC(c)| / n_T.

#pragma once

#include <optional>

#include "exec/exec_context.h"
#include "exec/expression.h"
#include "optimizer/stats.h"
#include "taxonomy/taxonomy.h"

namespace mural {

/// Calibration constants for the heuristic parts of §3.4.
struct CardinalityParams {
  /// Per-threshold-unit inflation applied to the non-MFV mass in Psi
  /// estimates (the "fraction corresponding to the threshold factor").
  double psi_tail_fraction_per_k = 0.002;
  /// Floor selectivity (never estimate zero rows).
  double min_selectivity = 1e-6;
  /// Default selectivity for opaque predicates (outside-the-server UDFs).
  double opaque_selectivity = 1.0 / 3.0;
};

class CardinalityEstimator {
 public:
  CardinalityEstimator(const StatsCatalog* stats,
                       const Taxonomy* taxonomy = nullptr,
                       CardinalityParams params = CardinalityParams())
      : stats_(stats), taxonomy_(taxonomy), params_(params) {}

  // ------------------------------------------------------------- Psi

  /// Selectivity of `col Psi const` at threshold k (§3.4.1).
  double PsiScanSelectivity(const ColumnStats& col, const Value& constant,
                            int k, ExecContext* ctx) const;

  /// Selectivity of `l Psi r` joins: MFV-cross-probe base rate inflated by
  /// the threshold factor.
  double PsiJoinSelectivity(const ColumnStats& left,
                            const ColumnStats& right, int k) const;

  // ----------------------------------------------------------- Omega

  /// Expected closure size: exact when the constant resolves in the
  /// pinned taxonomy, else the f^h structural heuristic.
  double OmegaClosureSize(const Value* constant) const;

  /// Selectivity of `col Omega const` (§3.4.2): |TC(c)| / n_T projected
  /// onto the column's distinct values.
  double OmegaScanSelectivity(const ColumnStats& col,
                              const Value* constant) const;

  /// Selectivity of an Omega join.
  double OmegaJoinSelectivity(const ColumnStats& lhs,
                              const ColumnStats& rhs) const;

  // -------------------------------------------------------- standard

  /// Equality selectivity from the end-biased histogram.
  double EqSelectivity(const ColumnStats& col, const Value& constant) const;

  /// Range selectivity from equi-depth bounds (NULL bound = unbounded).
  double RangeSelectivity(const ColumnStats& col, const Value& lo,
                          const Value& hi) const;

  /// Equi-join selectivity: 1 / max(ndv_l, ndv_r).
  double EquiJoinSelectivity(const ColumnStats& left,
                             const ColumnStats& right) const;

  /// Walks a predicate over a single table's columns and estimates its
  /// combined selectivity (independence assumed across conjuncts, except
  /// that a lower and an upper bound on one column are one range).
  double PredicateSelectivity(const Expr& expr, const TableStats& table,
                              const Schema& schema, ExecContext* ctx) const;

  const CardinalityParams& params() const { return params_; }
  const StatsCatalog* stats() const { return stats_; }

 private:
  double Clamp(double sel) const;

  /// The selectivity of an AND tree that bounds some column from below
  /// and above (`c >= lo AND c < hi`): each such pair estimated as one
  /// RangeSelectivity, the other conjuncts as independent.  nullopt when
  /// the tree has no such pair.
  std::optional<double> RangeConjunctionSelectivity(
      const LogicalExpr& conjunction, const TableStats& table,
      const Schema& schema, ExecContext* ctx) const;

  const StatsCatalog* stats_;
  const Taxonomy* taxonomy_;
  CardinalityParams params_;
};

}  // namespace mural
