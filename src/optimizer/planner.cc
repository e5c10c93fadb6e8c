#include "optimizer/planner.h"

#include <algorithm>

#include "common/string_util.h"

namespace mural {

std::string PhysicalPlan::Explain() const {
  std::string out = StringFormat("Predicted: rows=%.0f %s\n", predicted_rows,
                                 predicted_cost.ToString().c_str());
  out += ExplainTree(*root);
  return out;
}

namespace {

/// Matches `expr` as Psi(colref, literal) in either operand order (Psi
/// commutes, Table 1).  Returns the column index and the literal.
bool MatchPsiConstant(const Expr& expr, size_t* col, Value* constant,
                      int* threshold_override) {
  const auto* psi = dynamic_cast<const LexEqualExpr*>(&expr);
  if (psi == nullptr) return false;
  const auto* c = dynamic_cast<const ColumnRefExpr*>(psi->left().get());
  const auto* l = dynamic_cast<const LiteralExpr*>(psi->right().get());
  if (c == nullptr || l == nullptr) {
    c = dynamic_cast<const ColumnRefExpr*>(psi->right().get());
    l = dynamic_cast<const LiteralExpr*>(psi->left().get());
  }
  if (c == nullptr || l == nullptr) return false;
  *col = c->index();
  *constant = l->value();
  *threshold_override = psi->threshold_override();
  return true;
}

bool MatchEqConstant(const Expr& expr, size_t* col, Value* constant) {
  const auto* cmp = dynamic_cast<const ComparisonExpr*>(&expr);
  if (cmp == nullptr || cmp->op() != CompareOp::kEq) return false;
  const auto* c = dynamic_cast<const ColumnRefExpr*>(cmp->left().get());
  const auto* l = dynamic_cast<const LiteralExpr*>(cmp->right().get());
  if (c == nullptr || l == nullptr) {
    c = dynamic_cast<const ColumnRefExpr*>(cmp->right().get());
    l = dynamic_cast<const LiteralExpr*>(cmp->left().get());
  }
  if (c == nullptr || l == nullptr) return false;
  *col = c->index();
  *constant = l->value();
  return true;
}

/// Matches `expr` as Omega(UNITEXT colref, UniText literal).  Only this
/// operand order: Omega does not commute (Table 1).
bool MatchOmegaConstant(const Expr& expr, const Schema& schema, size_t* col,
                        Value* constant) {
  const auto* omega = dynamic_cast<const SemEqualExpr*>(&expr);
  if (omega == nullptr) return false;
  const auto* c = dynamic_cast<const ColumnRefExpr*>(omega->left().get());
  const auto* l = dynamic_cast<const LiteralExpr*>(omega->right().get());
  if (c == nullptr || l == nullptr || c->index() >= schema.NumColumns() ||
      schema.column(c->index()).type != TypeId::kUniText ||
      l->value().type() != TypeId::kUniText) {
    return false;
  }
  *col = c->index();
  *constant = l->value();
  return true;
}

bool ContainsPsi(const Expr& expr) {
  if (dynamic_cast<const LexEqualExpr*>(&expr) != nullptr) return true;
  if (const auto* logical = dynamic_cast<const LogicalExpr*>(&expr)) {
    if (ContainsPsi(*logical->left())) return true;
    if (logical->right() && ContainsPsi(*logical->right())) return true;
  }
  return false;
}

}  // namespace

int Planner::EffectiveDop() const {
  if (ctx_->thread_pool == nullptr) return 1;
  return std::max(1, ctx_->degree_of_parallelism);
}

RelProfile Planner::ProfileOf(const Planned& planned, size_t key_col) const {
  RelProfile profile;
  profile.rows = planned.rows;
  if (planned.base_table != nullptr) {
    profile.pages = planned.base_table->heap->num_pages();
  } else {
    // Intermediate results are pipelined/materialized in memory; charge a
    // synthetic page count from the row estimate.
    profile.pages = std::max(1.0, planned.rows / 80.0);
  }
  profile.avg_len = 12.0;  // default phoneme-string length
  if (planned.base_stats != nullptr &&
      key_col < planned.op->output_schema().NumColumns()) {
    const ColumnStats* cs = planned.base_stats->Column(
        planned.op->output_schema().column(key_col).name);
    if (cs != nullptr) {
      profile.avg_len =
          cs->avg_phoneme_len > 0 ? cs->avg_phoneme_len : cs->avg_len;
    }
  }
  return profile;
}

Planner::TaxonomyProfile Planner::ProfileTaxonomy() const {
  TaxonomyProfile tax;
  if (ctx_->taxonomy != nullptr) {
    const TaxonomyStats ts = ctx_->taxonomy->ComputeStats();
    tax.nodes = static_cast<double>(ts.num_synsets);
    tax.pages = std::max(1.0, tax.nodes / 150.0);
    tax.height = std::max<double>(1.0, ts.height);
  }
  return tax;
}

StatusOr<PhysicalPlan> Planner::Plan(const LogicalPtr& root,
                                     PlannerHints hints) {
  if (root == nullptr) {
    return Status::InvalidArgument("null logical plan");
  }
  MURAL_ASSIGN_OR_RETURN(Planned planned, PlanNode(*root, hints));
  PhysicalPlan plan;
  plan.root = std::move(planned.op);
  plan.predicted_rows = planned.rows;
  plan.predicted_cost = planned.cost;
  return plan;
}

StatusOr<Planner::Planned> Planner::PlanNode(const LogicalNode& node,
                                             const PlannerHints& hints) {
  MURAL_ASSIGN_OR_RETURN(Planned planned, PlanNodeImpl(node, hints));
  if (planned.op != nullptr) {
    // Stamp the estimate on the operator so EXPLAIN ANALYZE can report
    // estimated-vs-actual rows and the per-node q-error.
    planned.op->set_estimated_rows(
        static_cast<int64_t>(planned.rows + 0.5));
  }
  return planned;
}

StatusOr<Planner::Planned> Planner::PlanNodeImpl(const LogicalNode& node,
                                                 const PlannerHints& hints) {
  switch (node.kind) {
    case LogicalKind::kScan:
      return PlanScan(node, hints);
    case LogicalKind::kEquiJoin:
      return PlanEquiJoin(node, hints);
    case LogicalKind::kPsiJoin:
      return PlanPsiJoin(node, hints);
    case LogicalKind::kOmegaJoin:
      return PlanOmegaJoin(node, hints);
    case LogicalKind::kFilter: {
      MURAL_ASSIGN_OR_RETURN(Planned child, PlanNode(*node.left, hints));
      Planned out;
      double sel = estimator_.params().opaque_selectivity;
      if (child.base_table != nullptr && child.base_stats != nullptr) {
        sel = estimator_.PredicateSelectivity(*node.predicate,
                                              *child.base_stats,
                                              child.base_table->schema, ctx_);
      }
      out.rows = std::max(1.0, child.rows * sel);
      out.cost = child.cost + cost_model_.Filter(child.rows);
      if (ContainsPsi(*node.predicate)) {
        // Each surviving row pays a distance evaluation.
        RelProfile rel;
        rel.rows = child.rows;
        rel.pages = 0;
        rel.avg_len = 12.0;
        Cost psi = cost_model_.PsiScanNoIndex(rel, ctx_->lexequal_threshold);
        out.cost.cpu += psi.cpu;
      }
      out.base_table = child.base_table;
      out.base_stats = child.base_stats;
      out.op = std::make_unique<FilterOp>(ctx_, std::move(child.op),
                                          node.predicate);
      return out;
    }
    case LogicalKind::kProject: {
      MURAL_ASSIGN_OR_RETURN(Planned child, PlanNode(*node.left, hints));
      Planned out;
      out.rows = child.rows;
      out.cost = child.cost + cost_model_.Project(child.rows);
      std::vector<Column> cols;
      for (size_t i = 0; i < node.exprs.size(); ++i) {
        // Column type: propagate when the expression is a bare reference.
        TypeId type = TypeId::kText;
        if (const auto* ref = dynamic_cast<const ColumnRefExpr*>(
                node.exprs[i].get())) {
          type = child.op->output_schema().column(ref->index()).type;
        }
        const std::string name = i < node.output_names.size()
                                     ? node.output_names[i]
                                     : node.exprs[i]->ToString();
        cols.emplace_back(name, type);
      }
      out.op = std::make_unique<ProjectOp>(ctx_, std::move(child.op),
                                           node.exprs, Schema(cols));
      return out;
    }
    case LogicalKind::kAggregate: {
      MURAL_ASSIGN_OR_RETURN(Planned child, PlanNode(*node.left, hints));
      Planned out;
      out.rows = node.group_by.empty()
                     ? 1.0
                     : std::max(1.0, child.rows / 10.0);
      out.cost = child.cost + cost_model_.Aggregate(child.rows);
      out.op = std::make_unique<AggregateOp>(ctx_, std::move(child.op),
                                             node.group_by, node.aggs);
      return out;
    }
    case LogicalKind::kSort: {
      MURAL_ASSIGN_OR_RETURN(Planned child, PlanNode(*node.left, hints));
      Planned out;
      out.rows = child.rows;
      out.cost = child.cost + cost_model_.Sort(child.rows);
      out.op = std::make_unique<SortOp>(ctx_, std::move(child.op),
                                        node.sort_keys);
      return out;
    }
    case LogicalKind::kLimit: {
      MURAL_ASSIGN_OR_RETURN(Planned child, PlanNode(*node.left, hints));
      Planned out;
      out.rows = std::min<double>(child.rows,
                                  static_cast<double>(node.limit));
      out.cost = child.cost;
      out.op = std::make_unique<LimitOp>(ctx_, std::move(child.op),
                                         node.limit);
      return out;
    }
    case LogicalKind::kUnionAll: {
      MURAL_ASSIGN_OR_RETURN(Planned l, PlanNode(*node.left, hints));
      MURAL_ASSIGN_OR_RETURN(Planned r, PlanNode(*node.right, hints));
      Planned out;
      out.rows = l.rows + r.rows;
      out.cost = l.cost + r.cost;
      out.op = std::make_unique<UnionAllOp>(ctx_, std::move(l.op),
                                            std::move(r.op));
      return out;
    }
    case LogicalKind::kJoin: {
      MURAL_ASSIGN_OR_RETURN(Planned l, PlanNode(*node.left, hints));
      MURAL_ASSIGN_OR_RETURN(Planned r, PlanNode(*node.right, hints));
      Planned out;
      const double sel = estimator_.params().opaque_selectivity;
      out.rows = std::max(1.0, l.rows * r.rows * sel);
      out.cost = l.cost + r.cost +
                 cost_model_.NestedLoopJoin(ProfileOf(l, 0), ProfileOf(r, 0),
                                            0.0);
      OpPtr inner = std::move(r.op);
      if (hints.enable_materialize) {
        inner = std::make_unique<MaterializeOp>(ctx_, std::move(inner));
      }
      out.op = std::make_unique<NestedLoopJoinOp>(
          ctx_, std::move(l.op), std::move(inner), node.predicate);
      return out;
    }
  }
  return Status::Internal("unknown logical node kind");
}

StatusOr<Planner::Planned> Planner::PlanScan(const LogicalNode& node,
                                             const PlannerHints& hints) {
  MURAL_ASSIGN_OR_RETURN(TableInfo * table, catalog_->GetTable(node.table));
  const std::shared_ptr<const TableStats> tstats = stats_->Get(node.table);
  const double base_rows =
      tstats != nullptr ? static_cast<double>(tstats->num_rows)
                        : static_cast<double>(table->heap->num_records());

  RelProfile rel;
  rel.rows = base_rows;
  rel.pages = table->heap->num_pages();
  rel.avg_len = tstats != nullptr ? tstats->avg_row_len : 64.0;

  Planned seq;
  seq.base_table = table;
  seq.base_stats = tstats;
  seq.rows = base_rows;
  seq.cost = cost_model_.SeqScan(rel);
  if (node.predicate == nullptr) {
    seq.op = std::make_unique<SeqScanOp>(ctx_, table);
    return seq;
  }

  // Selectivity of the full predicate.
  double sel = estimator_.params().opaque_selectivity;
  if (tstats != nullptr && !hints.opaque_multilingual) {
    sel = estimator_.PredicateSelectivity(*node.predicate, *tstats,
                                          table->schema, ctx_);
  }
  const double out_rows = std::max(1.0, base_rows * sel);

  std::vector<ExprPtr> conjuncts;
  FlattenConjuncts(node.predicate, &conjuncts);

  // The fused select's kernel conjunct: the first Psi(col, constant), else
  // the first Omega(UNITEXT col, UniText constant).  The other conjuncts
  // become its residual.
  size_t kernel_col = 0;
  Value kernel_const;
  int psi_k_override = -1;
  size_t kernel_conjunct = conjuncts.size();
  bool omega_kernel = false;
  if (!hints.opaque_multilingual) {
    for (size_t i = 0; i < conjuncts.size(); ++i) {
      if (MatchPsiConstant(*conjuncts[i], &kernel_col, &kernel_const,
                           &psi_k_override)) {
        kernel_conjunct = i;
        break;
      }
    }
    if (kernel_conjunct == conjuncts.size()) {
      for (size_t i = 0; i < conjuncts.size(); ++i) {
        if (MatchOmegaConstant(*conjuncts[i], table->schema, &kernel_col,
                               &kernel_const)) {
          kernel_conjunct = i;
          omega_kernel = true;
          break;
        }
      }
    }
  }
  const bool has_kernel = kernel_conjunct < conjuncts.size();
  RelProfile psi_rel = rel;
  int psi_k = ctx_->lexequal_threshold;
  if (has_kernel && !omega_kernel) {
    const ColumnStats* cs =
        tstats != nullptr
            ? tstats->Column(table->schema.column(kernel_col).name)
            : nullptr;
    psi_rel.avg_len = cs != nullptr && cs->avg_phoneme_len > 0
                          ? cs->avg_phoneme_len
                          : 12.0;
    psi_k = psi_k_override >= 0 ? psi_k_override : ctx_->lexequal_threshold;
  }
  // The kernel's Table-3 no-index scan row (for Omega: one closure, then
  // one hash probe per row); `batch_size` 0 prices the filter scan, else
  // the fused select.
  double closure = 0;
  TaxonomyProfile tax;
  if (omega_kernel) {
    closure = estimator_.OmegaClosureSize(&kernel_const);
    tax = ProfileTaxonomy();
  }
  const auto kernel_cost = [&](size_t batch_size) {
    return omega_kernel
               ? cost_model_.OmegaScanNoIndex(rel, closure, tax.nodes,
                                              tax.pages, tax.height,
                                              batch_size)
               : cost_model_.PsiScanNoIndex(psi_rel, psi_k, batch_size);
  };

  // --- candidate 1: seq scan + filter
  Planned best;
  best.base_table = table;
  best.base_stats = tstats;
  best.rows = out_rows;
  if (has_kernel) {
    best.cost = kernel_cost(/*batch_size=*/0);
  } else if (!hints.opaque_multilingual && ContainsPsi(*node.predicate)) {
    best.cost = cost_model_.PsiScanNoIndex(rel, ctx_->lexequal_threshold);
  } else {
    // Under opaque_multilingual the engine still executes the UDF per row;
    // it simply cannot model it.  Charge the generic operator cost only —
    // exactly the mis-costing that makes outside-the-server plans poor
    // (paper §5.3 discussion).
    best.cost = cost_model_.SeqScan(rel);
    best.cost.cpu += base_rows * cost_model_.params().cpu_operator_cost;
  }
  best.op = std::make_unique<FilterOp>(
      ctx_, std::make_unique<SeqScanOp>(ctx_, table), node.predicate);

  // --- candidate 2: the fused select (LexSelectOp with the Psi or Omega
  // kernel), serial or morsel-parallel.  Costed on the batched basis; the
  // Table-3 CPU term divides by DOP, and setup/worker overhead keeps small
  // inputs serial.
  if (has_kernel) {
    const Cost serial = kernel_cost(ctx_->batch_size);
    const int dop = EffectiveDop();
    const Cost parallel = cost_model_.Parallelize(serial, dop);
    const bool parallel_wins = dop > 1 && parallel.total() < serial.total();
    const Cost cost = parallel_wins ? parallel : serial;
    if (cost.total() < best.cost.total()) {
      ExprPtr residual;
      for (size_t i = 0; i < conjuncts.size(); ++i) {
        if (i == kernel_conjunct) continue;
        residual = residual == nullptr ? conjuncts[i]
                                       : And(residual, conjuncts[i]);
      }
      const int select_dop = parallel_wins ? dop : 1;
      best.cost = cost;
      if (omega_kernel) {
        best.op = LexSelectOp::SemSelect(ctx_, table, kernel_col,
                                         kernel_const, std::move(residual),
                                         select_dop);
      } else {
        best.op = std::make_unique<LexSelectOp>(
            ctx_, table, kernel_col, kernel_const, psi_k_override,
            std::move(residual), select_dop);
      }
    }
  }

  // --- candidate 3: index scans over one indexable conjunct
  for (const ExprPtr& conjunct : conjuncts) {
    size_t col;
    Value constant;
    int k_override;
    if (!hints.opaque_multilingual && hints.enable_mtree &&
        MatchPsiConstant(*conjunct, &col, &constant, &k_override)) {
      const std::string& col_name = table->schema.column(col).name;
      for (IndexInfo* index : catalog_->FindIndexes(node.table, col_name)) {
        if (!index->on_phonemes) continue;
        if (index->kind != IndexKind::kMTree &&
            index->kind != IndexKind::kMdi) {
          continue;
        }
        StatusOr<PhonemeString> ph = PhonemesOf(constant, ctx_);
        if (!ph.ok()) continue;
        const int k = k_override >= 0 ? k_override
                                      : ctx_->lexequal_threshold;
        RelProfile irel = rel;
        irel.index_pages = index->index->NumPages();
        const ColumnStats* cs =
            tstats != nullptr ? tstats->Column(col_name) : nullptr;
        irel.avg_len = cs != nullptr && cs->avg_phoneme_len > 0
                           ? cs->avg_phoneme_len
                           : 12.0;
        Cost cost = cost_model_.PsiScanMTree(irel, k);
        cost.cpu += out_rows * cost_model_.params().cpu_tuple_cost;
        if (cost.total() < best.cost.total()) {
          IndexProbe probe;
          probe.kind = IndexProbe::Kind::kWithin;
          probe.key = Value::Text(*ph);
          probe.radius = k;
          // The M-Tree is exact on the phoneme metric, but the full
          // predicate may carry more conjuncts (language filters); MDI is
          // approximate and always needs the recheck.
          best.cost = cost;
          best.op = std::make_unique<IndexScanOp>(ctx_, table, index, probe,
                                                  node.predicate);
        }
      }
    }
    if (hints.enable_indexscan && MatchEqConstant(*conjunct, &col,
                                                  &constant)) {
      const std::string& col_name = table->schema.column(col).name;
      for (IndexInfo* index : catalog_->FindIndexes(node.table, col_name)) {
        if (index->kind != IndexKind::kBTree || index->on_phonemes) continue;
        const ColumnStats* cs =
            tstats != nullptr ? tstats->Column(col_name) : nullptr;
        const double eq_sel =
            cs != nullptr ? estimator_.EqSelectivity(*cs, constant)
                          : estimator_.params().opaque_selectivity;
        RelProfile irel = rel;
        irel.index_height = 2 + index->index->NumPages() / 500.0;
        Cost cost = cost_model_.BTreeProbe(irel, base_rows * eq_sel);
        if (cost.total() < best.cost.total()) {
          IndexProbe probe;
          probe.kind = IndexProbe::Kind::kEqual;
          probe.key = constant;
          best.cost = cost;
          best.op = std::make_unique<IndexScanOp>(ctx_, table, index, probe,
                                                  node.predicate);
        }
      }
    }
  }
  return best;
}

StatusOr<Planner::Planned> Planner::PlanEquiJoin(const LogicalNode& node,
                                                 const PlannerHints& hints) {
  MURAL_ASSIGN_OR_RETURN(Planned l, PlanNode(*node.left, hints));
  MURAL_ASSIGN_OR_RETURN(Planned r, PlanNode(*node.right, hints));

  double sel = 0.01;
  const ColumnStats* lcs = nullptr;
  const ColumnStats* rcs = nullptr;
  if (l.base_stats != nullptr) {
    lcs = l.base_stats->Column(
        l.op->output_schema().column(node.left_col).name);
  }
  if (r.base_stats != nullptr) {
    rcs = r.base_stats->Column(
        r.op->output_schema().column(node.right_col).name);
  }
  if (lcs != nullptr && rcs != nullptr) {
    sel = estimator_.EquiJoinSelectivity(*lcs, *rcs);
  }

  Planned out;
  out.rows = std::max(1.0, l.rows * r.rows * sel);
  const RelProfile lp = ProfileOf(l, node.left_col);
  const RelProfile rp = ProfileOf(r, node.right_col);
  const Cost hash_cost = cost_model_.HashJoin(lp, rp);
  const Cost nlj_cost = cost_model_.NestedLoopJoin(lp, rp, 0.0);
  if (hints.enable_hashjoin && hash_cost.total() <= nlj_cost.total()) {
    out.cost = l.cost + r.cost + hash_cost;
    out.op = std::make_unique<HashJoinOp>(ctx_, std::move(l.op),
                                          std::move(r.op), node.left_col,
                                          node.right_col);
  } else {
    out.cost = l.cost + r.cost + nlj_cost;
    ExprPtr pred = Eq(Col(node.left_col,
                          l.op->output_schema().column(node.left_col).name),
                      Col(l.op->output_schema().NumColumns() + node.right_col,
                          r.op->output_schema().column(node.right_col).name));
    OpPtr inner = std::move(r.op);
    if (hints.enable_materialize) {
      inner = std::make_unique<MaterializeOp>(ctx_, std::move(inner));
    }
    out.op = std::make_unique<NestedLoopJoinOp>(ctx_, std::move(l.op),
                                                std::move(inner), pred);
  }
  return out;
}

StatusOr<Planner::Planned> Planner::PlanPsiJoin(const LogicalNode& node,
                                                const PlannerHints& hints) {
  MURAL_ASSIGN_OR_RETURN(Planned l, PlanNode(*node.left, hints));
  MURAL_ASSIGN_OR_RETURN(Planned r, PlanNode(*node.right, hints));
  const int k = node.psi_threshold >= 0 ? node.psi_threshold
                                        : ctx_->lexequal_threshold;

  double sel = estimator_.params().opaque_selectivity;
  if (!hints.opaque_multilingual) {
    const ColumnStats* lcs =
        l.base_stats != nullptr
            ? l.base_stats->Column(
                  l.op->output_schema().column(node.left_col).name)
            : nullptr;
    const ColumnStats* rcs =
        r.base_stats != nullptr
            ? r.base_stats->Column(
                  r.op->output_schema().column(node.right_col).name)
            : nullptr;
    sel = (lcs != nullptr && rcs != nullptr)
              ? estimator_.PsiJoinSelectivity(*lcs, *rcs, k)
              : 0.001 * (k + 1);
  }

  Planned out;
  out.rows = std::max(1.0, l.rows * r.rows * sel);
  const RelProfile lp = ProfileOf(l, node.left_col);
  const RelProfile rp = ProfileOf(r, node.right_col);
  // LexJoinOp's prepared matchers on the batched basis; under
  // opaque_multilingual the predicate is a per-pair UDF call (batch 0).
  const Cost serial_nlj_cost = cost_model_.PsiJoinNoIndex(
      lp, rp, k, hints.opaque_multilingual ? 0 : ctx_->batch_size);

  // Morsel-parallel walk: the quadratic CPU term divides by DOP.
  const int dop = EffectiveDop();
  const Cost par_nlj_cost =
      hints.opaque_multilingual
          ? serial_nlj_cost
          : cost_model_.Parallelize(serial_nlj_cost, dop);
  const bool parallel_wins =
      dop > 1 && par_nlj_cost.total() < serial_nlj_cost.total();
  const Cost nlj_cost = parallel_wins ? par_nlj_cost : serial_nlj_cost;

  // Index-nested-loop via an M-Tree on the right side's base table.
  const IndexInfo* mtree = nullptr;
  if (!hints.opaque_multilingual && hints.enable_mtree &&
      r.base_table != nullptr) {
    const std::string& col_name =
        r.op->output_schema().column(node.right_col).name;
    for (IndexInfo* index :
         catalog_->FindIndexes(r.base_table->name, col_name)) {
      if (index->kind == IndexKind::kMTree && index->on_phonemes) {
        mtree = index;
        break;
      }
    }
  }
  if (mtree != nullptr) {
    RelProfile ip = rp;
    ip.index_pages = mtree->index->NumPages();
    const Cost idx_cost = cost_model_.PsiJoinMTree(lp, ip, k);
    if (idx_cost.total() < nlj_cost.total()) {
      out.cost = l.cost + r.cost + idx_cost;
      out.op = std::make_unique<LexIndexJoinOp>(ctx_, std::move(l.op),
                                                r.base_table, mtree,
                                                node.left_col,
                                                node.psi_threshold);
      return out;
    }
  }
  out.cost = l.cost + r.cost + nlj_cost;
  LexJoinOp::Options options;
  options.threshold = node.psi_threshold;
  options.tag_distance = node.psi_tag_distance;
  if (parallel_wins) options.dop = dop;
  OpPtr outer = std::move(l.op);
  OpPtr inner = std::move(r.op);
  // A bare table scan on the walked side becomes a leaf attribute: the
  // join walks its heap page-wise and the scan operator, which would
  // never be pulled, is dropped.  The inner table is walked only when it
  // is the larger side, so the drained side (one matcher per row) stays
  // the smaller one; otherwise the outer side is walked.
  const auto bare = [](const Planned& side, const OpPtr& op) {
    return side.base_table != nullptr &&
           dynamic_cast<const SeqScanOp*>(op.get()) != nullptr;
  };
  if (!hints.opaque_multilingual) {
    if (bare(r, inner) && r.rows > l.rows) {
      options.inner_table = r.base_table;
      inner.reset();
    } else if (bare(l, outer)) {
      options.outer_table = l.base_table;
      outer.reset();
    }
  }
  out.op = std::make_unique<LexJoinOp>(ctx_, std::move(outer),
                                       std::move(inner), node.left_col,
                                       node.right_col, options);
  return out;
}

StatusOr<Planner::Planned> Planner::PlanOmegaJoin(const LogicalNode& node,
                                                  const PlannerHints& hints) {
  MURAL_ASSIGN_OR_RETURN(Planned l, PlanNode(*node.left, hints));
  MURAL_ASSIGN_OR_RETURN(Planned r, PlanNode(*node.right, hints));

  double sel = estimator_.params().opaque_selectivity;
  double rhs_unique = std::max(1.0, r.rows / 10.0);
  if (!hints.opaque_multilingual) {
    const ColumnStats* lcs =
        l.base_stats != nullptr
            ? l.base_stats->Column(
                  l.op->output_schema().column(node.left_col).name)
            : nullptr;
    const ColumnStats* rcs =
        r.base_stats != nullptr
            ? r.base_stats->Column(
                  r.op->output_schema().column(node.right_col).name)
            : nullptr;
    if (lcs != nullptr && rcs != nullptr) {
      sel = estimator_.OmegaJoinSelectivity(*lcs, *rcs);
      rhs_unique = static_cast<double>(std::max<uint64_t>(1, rcs->ndv));
    }
  }

  Planned out;
  out.rows = std::max(1.0, l.rows * r.rows * sel);
  const TaxonomyProfile tax = ProfileTaxonomy();
  const double closure = estimator_.OmegaClosureSize(nullptr);
  out.cost = l.cost + r.cost +
             cost_model_.OmegaJoin(ProfileOf(l, node.left_col),
                                   ProfileOf(r, node.right_col), rhs_unique,
                                   closure, tax.nodes, tax.pages, tax.height,
                                   /*btree=*/false, 2.0, 8.0);
  SemJoinOp::Options options;
  out.op = std::make_unique<SemJoinOp>(ctx_, std::move(l.op),
                                       std::move(r.op), node.left_col,
                                       node.right_col, options);
  return out;
}

}  // namespace mural
