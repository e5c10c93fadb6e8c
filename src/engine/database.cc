#include "engine/database.h"

#include <algorithm>
#include <cctype>

#include "catalog/tuple_codec.h"
#include "common/logging.h"
#include "common/metrics.h"
#include "common/string_util.h"
#include "common/timer.h"
#include "index/btree.h"
#include "index/mdi.h"
#include "index/mtree.h"
#include "sql/sql.h"

namespace mural {

std::string QueryResult::ToTable(size_t max_rows) const {
  std::string out;
  for (size_t c = 0; c < schema.NumColumns(); ++c) {
    if (c > 0) out += " | ";
    out += schema.column(c).name;
  }
  out += "\n";
  for (size_t r = 0; r < rows.size() && r < max_rows; ++r) {
    for (size_t c = 0; c < rows[r].size(); ++c) {
      if (c > 0) out += " | ";
      out += rows[r][c].ToString();
    }
    out += "\n";
  }
  if (rows.size() > max_rows) {
    out += StringFormat("... (%zu rows total)\n", rows.size());
  }
  return out;
}

namespace {

/// Pre-order walk collecting estimate-vs-actual feedback for every node
/// the planner stamped with a cardinality estimate.
void CollectFeedback(const PhysicalOp& op, int depth,
                     std::vector<NodeFeedback>* out) {
  if (op.estimated_rows() >= 0) {
    NodeFeedback fb;
    fb.op = op.DisplayName();
    fb.depth = depth;
    fb.estimated_rows = op.estimated_rows();
    fb.actual_rows = op.rows_produced();
    fb.qerror = QError(static_cast<double>(fb.estimated_rows),
                       static_cast<double>(fb.actual_rows));
    out->push_back(std::move(fb));
  }
  for (const PhysicalOp* child : op.Children()) {
    CollectFeedback(*child, depth + 1, out);
  }
}

std::string UpperAscii(const std::string& s) {
  std::string out = s;
  for (char& c : out) {
    c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
  }
  return out;
}

QueryResult OkResult() {
  QueryResult result;
  result.schema = Schema({{"ok", TypeId::kBool}});
  result.rows.push_back({Value::Bool(true)});
  return result;
}

}  // namespace

StatusOr<std::unique_ptr<Database>> Database::Open(DatabaseOptions options) {
  std::unique_ptr<Database> db(new Database());
  if (options.disk_path.empty()) {
    db->disk_ = std::make_unique<MemoryDiskManager>();
  } else {
    MURAL_ASSIGN_OR_RETURN(auto file_disk,
                           FileDiskManager::Open(options.disk_path));
    db->disk_ = std::move(file_disk);
  }
  db->pool_ = std::make_unique<BufferPool>(db->disk_.get(),
                                           options.buffer_pool_pages);
  db->catalog_ = std::make_unique<Catalog>(db->pool_.get());
  db->phoneme_cache_ =
      std::make_unique<PhonemeCache>(options.phoneme_cache_capacity);
  db->plan_cache_ = std::make_unique<PlanCache>(options.plan_cache_capacity);
  db->admission_ = std::make_unique<AdmissionController>(options.admission);
  return db;
}

Status Database::CreateTable(const std::string& name, Schema schema) {
  MURAL_RETURN_IF_ERROR(
      catalog_->CreateTable(name, std::move(schema)).status());
  plan_cache_->Invalidate();
  return Status::OK();
}

Status Database::Insert(const std::string& table, Row row) {
  MURAL_ASSIGN_OR_RETURN(TableInfo * info, catalog_->GetTable(table));
  const Schema& schema = info->schema;
  if (row.size() != schema.NumColumns()) {
    return Status::InvalidArgument("row arity mismatch for " + table);
  }
  for (size_t c = 0; c < row.size(); ++c) {
    if (schema.column(c).materialize_phonemes && !row[c].is_null() &&
        row[c].type() == TypeId::kUniText &&
        !row[c].unitext().has_phonemes()) {
      // Materialize is const and stateless, so every session shares the
      // one transformer.
      PhoneticTransformer::Default().Materialize(&row[c].mutable_unitext());
    }
  }
  TableWriter writer(info);
  return writer.Insert(row).status();
}

Status Database::InsertBulk(const std::string& table,
                            std::vector<Row> rows) {
  for (Row& row : rows) {
    MURAL_RETURN_IF_ERROR(Insert(table, std::move(row)));
  }
  return Status::OK();
}

Status Database::CreateIndex(const std::string& index_name,
                             const std::string& table,
                             const std::string& column, IndexKind kind,
                             bool on_phonemes) {
  if ((kind == IndexKind::kMTree || kind == IndexKind::kMdi) &&
      !on_phonemes) {
    return Status::InvalidArgument(
        "metric indexes must be built on materialized phoneme strings");
  }
  std::unique_ptr<AccessMethod> index;
  switch (kind) {
    case IndexKind::kBTree: {
      MURAL_ASSIGN_OR_RETURN(auto btree, BTreeIndex::Create(pool_.get()));
      index = std::move(btree);
      break;
    }
    case IndexKind::kMTree: {
      MURAL_ASSIGN_OR_RETURN(auto mtree, MTreeIndex::Create(pool_.get()));
      index = std::move(mtree);
      break;
    }
    case IndexKind::kMdi: {
      MURAL_ASSIGN_OR_RETURN(auto mdi, MdiIndex::Create(pool_.get()));
      index = std::move(mdi);
      break;
    }
  }
  MURAL_ASSIGN_OR_RETURN(TableInfo * info, catalog_->GetTable(table));
  const int col = info->schema.IndexOf(column);
  if (col < 0) {
    return Status::NotFound("no such column: " + table + "." + column);
  }
  // Backfill existing rows.
  Row row;
  for (auto it = info->heap->Begin(); it.Valid(); it.Next()) {
    MURAL_RETURN_IF_ERROR(
        TupleCodec::Deserialize(info->schema, it.record(), &row));
    const Value& v = row[static_cast<size_t>(col)];
    if (v.is_null()) continue;
    if (on_phonemes) {
      if (v.type() != TypeId::kUniText || !v.unitext().has_phonemes()) {
        return Status::InvalidArgument(
            "phoneme index requires materialized phonemes in " + table +
            "." + column);
      }
      MURAL_RETURN_IF_ERROR(
          index->Insert(Value::Text(*v.unitext().phonemes()), it.rid()));
    } else {
      MURAL_RETURN_IF_ERROR(index->Insert(v, it.rid()));
    }
  }
  MURAL_RETURN_IF_ERROR(
      catalog_
          ->CreateIndex(index_name, table, column, on_phonemes, kind,
                        std::move(index))
          .status());
  plan_cache_->Invalidate();
  return Status::OK();
}

Status Database::Analyze(const std::string& table) {
  ExecContext ctx = SharedContext();
  return AnalyzeWith(table, &ctx);
}

Status Database::AnalyzeWith(const std::string& table, ExecContext* ctx) {
  MURAL_ASSIGN_OR_RETURN(TableInfo * info, catalog_->GetTable(table));
  MURAL_RETURN_IF_ERROR(stats_.Analyze(*info, ctx));
  // Fresh statistics change cardinality estimates and therefore which
  // cached binds are worth keeping hot; sweep the cache.
  plan_cache_->Invalidate();
  return Status::OK();
}

Status Database::LoadTaxonomy(std::unique_ptr<Taxonomy> taxonomy) {
  taxonomy_ = std::move(taxonomy);
  closure_cache_ = std::make_unique<ClosureCache>(taxonomy_.get());

  // Persist the hierarchy relationally so closure computation can also be
  // driven through the storage layer.
  for (const char* t : {"tax_synsets", "tax_edges", "tax_equiv"}) {
    if (catalog_->GetTable(t).ok()) {
      MURAL_RETURN_IF_ERROR(catalog_->DropTable(t));
    }
  }
  MURAL_RETURN_IF_ERROR(CreateTable(
      "tax_synsets",
      Schema({{"synset_id", TypeId::kInt32}, {"lemma", TypeId::kUniText}})));
  MURAL_RETURN_IF_ERROR(CreateTable(
      "tax_edges",
      Schema({{"child", TypeId::kInt32}, {"parent", TypeId::kInt32}})));
  MURAL_RETURN_IF_ERROR(CreateTable(
      "tax_equiv",
      Schema({{"a", TypeId::kInt32}, {"b", TypeId::kInt32}})));

  MURAL_ASSIGN_OR_RETURN(TableInfo * synsets,
                         catalog_->GetTable("tax_synsets"));
  MURAL_ASSIGN_OR_RETURN(TableInfo * edges, catalog_->GetTable("tax_edges"));
  MURAL_ASSIGN_OR_RETURN(TableInfo * equiv, catalog_->GetTable("tax_equiv"));
  TableWriter synsets_writer(synsets);
  TableWriter edges_writer(edges);
  TableWriter equiv_writer(equiv);
  for (const Synset& s : taxonomy_->synsets()) {
    MURAL_RETURN_IF_ERROR(
        synsets_writer
            .Insert({Value::Int32(static_cast<int32_t>(s.id)),
                     Value::Uni(s.lemma, s.lang)})
            .status());
    for (SynsetId child : taxonomy_->ChildrenOf(s.id)) {
      MURAL_RETURN_IF_ERROR(
          edges_writer
              .Insert({Value::Int32(static_cast<int32_t>(child)),
                       Value::Int32(static_cast<int32_t>(s.id))})
              .status());
    }
    for (SynsetId eq : taxonomy_->EquivalentsOf(s.id)) {
      if (eq > s.id) continue;  // store each symmetric pair once per side
      MURAL_RETURN_IF_ERROR(
          equiv_writer
              .Insert({Value::Int32(static_cast<int32_t>(s.id)),
                       Value::Int32(static_cast<int32_t>(eq))})
              .status());
    }
  }
  // Statistics so closure-path plans (index probe vs scan) are costed
  // correctly.
  for (const char* t : {"tax_synsets", "tax_edges", "tax_equiv"}) {
    MURAL_RETURN_IF_ERROR(Analyze(t));
  }
  return Status::OK();
}

Status Database::CreateTaxonomyIndexes() {
  MURAL_RETURN_IF_ERROR(CreateIndex("tax_edges_parent", "tax_edges",
                                    "parent", IndexKind::kBTree,
                                    /*on_phonemes=*/false));
  return CreateIndex("tax_equiv_a", "tax_equiv", "a", IndexKind::kBTree,
                     /*on_phonemes=*/false);
}

ExecContext Database::SharedContext() const {
  ExecContext ctx;
  if (phoneme_cache_->enabled()) ctx.phoneme_cache = phoneme_cache_.get();
  SyncSharedHandles(&ctx);
  return ctx;
}

void Database::SyncSharedHandles(ExecContext* ctx) const {
  ctx->taxonomy = taxonomy_.get();
  ctx->closure_cache = closure_cache_.get();
}

StatusOr<PhysicalPlan> Database::PlanOn(SessionState& session,
                                        const LogicalPtr& plan,
                                        PlannerHints hints) {
  // Sessions minted before LoadTaxonomy still see the taxonomy: the
  // shared handles are refreshed on every plan entry.
  SyncSharedHandles(session.exec_context());
  Planner planner(catalog_.get(), &stats_, session.exec_context());
  return planner.Plan(plan, hints);
}

StatusOr<QueryResult> Database::QueryOn(SessionState& session,
                                       const LogicalPtr& plan,
                                       PlannerHints hints) {
  // The single admission funnel: every execution path (Session::Query,
  // Session::Sql including EXPLAIN ANALYZE, the server) reaches execution
  // through here, so the gate is taken exactly once per query.
  double queue_wait_ms = 0;
  MURAL_ASSIGN_OR_RETURN(AdmissionTicket ticket,
                         admission_->Admit(&queue_wait_ms));
  MURAL_ASSIGN_OR_RETURN(PhysicalPlan physical, PlanOn(session, plan, hints));
  ExecContext* ctx = session.exec_context();
  QueryResult result;
  result.session_id = session.id();
  result.queue_wait_ms = queue_wait_ms;
  result.schema = physical.root->output_schema();
  result.predicted_rows = physical.predicted_rows;
  result.predicted_cost = physical.predicted_cost;
  result.explain = physical.Explain();

  const ExecStats before = ctx->stats;
  Timer timer;
  MURAL_ASSIGN_OR_RETURN(result.rows, CollectAll(physical.root.get()));
  result.runtime_ms = timer.ElapsedMillis();

  // Plan-vs-actual feedback: walk the executed tree, compare each node's
  // cardinality estimate with its observed row count, and export the
  // q-error distribution through the metrics registry.
  static Histogram* qerror_hist = MetricsRegistry::Global().GetHistogram(
      "optimizer.qerror", DefaultRatioBounds());
  CollectFeedback(*physical.root, 0, &result.feedback);
  for (const NodeFeedback& fb : result.feedback) {
    result.max_qerror = std::max(result.max_qerror, fb.qerror);
    qerror_hist->Observe(fb.qerror);
  }
  result.explain_analyze = TraceTree(*physical.root);
  result.explain_analyze += StringFormat(
      "q-error: max=%.2f over %zu estimated nodes\n", result.max_qerror,
      result.feedback.size());
  result.explain_analyze += StringFormat(
      "session: id=%llu queue_wait_ms=%.2f\n",
      static_cast<unsigned long long>(result.session_id),
      result.queue_wait_ms);

  const int64_t slow_millis = session.slow_query_millis();
  if (slow_millis >= 0 &&
      result.runtime_ms >= static_cast<double>(slow_millis)) {
    static Counter* slow_queries =
        MetricsRegistry::Global().GetCounter("engine.slow_queries");
    slow_queries->Increment();
    MURAL_LOG(Warn) << "slow query (session " << session.id() << ": "
                    << result.runtime_ms << " ms >= " << slow_millis
                    << " ms):\n"
                    << result.explain_analyze;
  }

  // Per-query counter deltas.
  result.exec_stats = ctx->stats;
  result.exec_stats.SubtractBaseline(before);
  return result;
}

StatusOr<QueryResult> Database::SqlOn(SessionState& session,
                                      const std::string& statement,
                                      PlannerHints hints) {
  MURAL_ASSIGN_OR_RETURN(sql::Statement stmt, sql::Parse(statement));
  QueryResult result;
  switch (stmt.kind) {
    case sql::StatementKind::kSelect: {
      MURAL_ASSIGN_OR_RETURN(LogicalPtr plan, BindCached(session, stmt));
      return QueryOn(session, plan, hints);
    }
    case sql::StatementKind::kExplain: {
      MURAL_ASSIGN_OR_RETURN(LogicalPtr plan, BindCached(session, stmt));
      if (stmt.explain_analyze) {
        // EXPLAIN ANALYZE: execute, then return the timed plan tree (with
        // estimated vs actual rows and the q-error summary) as rows.
        MURAL_ASSIGN_OR_RETURN(QueryResult executed,
                               QueryOn(session, plan, hints));
        result = std::move(executed);
        result.rows.clear();
        result.schema = Schema({{"plan", TypeId::kText}});
        for (const std::string& line :
             Split(result.explain_analyze, '\n')) {
          if (!line.empty()) result.rows.push_back({Value::Text(line)});
        }
        return result;
      }
      MURAL_ASSIGN_OR_RETURN(PhysicalPlan physical,
                             PlanOn(session, plan, hints));
      result.session_id = session.id();
      result.schema = Schema({{"plan", TypeId::kText}});
      result.predicted_rows = physical.predicted_rows;
      result.predicted_cost = physical.predicted_cost;
      result.explain = physical.Explain();
      for (const std::string& line : Split(result.explain, '\n')) {
        if (!line.empty()) result.rows.push_back({Value::Text(line)});
      }
      return result;
    }
    case sql::StatementKind::kSet: {
      // THE settings path: SQL SET and Session::Set both land in
      // SessionState::Set, so validation/clamping live in one place.
      MURAL_RETURN_IF_ERROR(session.Set(stmt.set_name, stmt.set_value));
      result = OkResult();
      result.session_id = session.id();
      return result;
    }
    case sql::StatementKind::kCreateTable:
      MURAL_RETURN_IF_ERROR(CreateTable(stmt.table_name, stmt.schema));
      result = OkResult();
      result.session_id = session.id();
      return result;
    case sql::StatementKind::kCreateIndex:
      MURAL_RETURN_IF_ERROR(CreateIndex(stmt.index_name, stmt.table_name,
                                        stmt.index_column, stmt.index_kind,
                                        stmt.index_on_phonemes));
      result = OkResult();
      result.session_id = session.id();
      return result;
    case sql::StatementKind::kInsert: {
      // Coerce TEXT literals into UNITEXT columns (default: English), the
      // binder-level counterpart of the compose operator.
      MURAL_ASSIGN_OR_RETURN(TableInfo * info,
                             catalog_->GetTable(stmt.table_name));
      for (Row& row : stmt.insert_rows) {
        for (size_t c = 0;
             c < row.size() && c < info->schema.NumColumns(); ++c) {
          if (info->schema.column(c).type == TypeId::kUniText &&
              row[c].type() == TypeId::kText) {
            row[c] = Value::Uni(row[c].text(), lang::kEnglish);
          }
        }
        MURAL_RETURN_IF_ERROR(Insert(stmt.table_name, std::move(row)));
      }
      result.session_id = session.id();
      result.schema = Schema({{"inserted", TypeId::kInt64}});
      result.rows.push_back(
          {Value::Int64(static_cast<int64_t>(stmt.insert_rows.size()))});
      return result;
    }
    case sql::StatementKind::kAnalyze:
      MURAL_RETURN_IF_ERROR(
          AnalyzeWith(stmt.table_name, session.exec_context()));
      result = OkResult();
      result.session_id = session.id();
      return result;
    case sql::StatementKind::kPrepare: {
      // Validate the body now so EXECUTE never hits a parse error, and
      // refuse nested PREPARE/EXECUTE (no indirection cycles).
      MURAL_ASSIGN_OR_RETURN(sql::Statement body,
                             sql::Parse(stmt.prepare_body));
      if (body.kind == sql::StatementKind::kPrepare ||
          body.kind == sql::StatementKind::kExecute) {
        return Status::InvalidArgument(
            "PREPARE body must not itself be PREPARE or EXECUTE");
      }
      (*session.prepared_statements())[UpperAscii(stmt.prepare_name)] =
          stmt.prepare_body;
      result = OkResult();
      result.session_id = session.id();
      return result;
    }
    case sql::StatementKind::kExecute: {
      const auto* prepared = session.prepared_statements();
      const auto it = prepared->find(UpperAscii(stmt.prepare_name));
      if (it == prepared->end()) {
        return Status::NotFound("no prepared statement named " +
                                stmt.prepare_name);
      }
      // One level of recursion only: PREPARE rejected nested
      // PREPARE/EXECUTE bodies above.
      return SqlOn(session, it->second, hints);
    }
  }
  return Status::Internal("unhandled statement kind");
}

StatusOr<LogicalPtr> Database::BindCached(SessionState& session,
                                          const sql::Statement& stmt) {
  // The cache key carries everything that feeds binding and plan shape:
  // the statement text (which embeds the predicate language set), plus
  // the session's threshold/DOP/batch knobs.
  PlanCacheKey key;
  key.statement = stmt.text;
  key.lexequal_threshold = session.options().lexequal_threshold;
  key.degree_of_parallelism = session.options().degree_of_parallelism;
  key.batch_size = session.options().batch_size;
  LogicalPtr plan = plan_cache_->Lookup(key);
  if (plan != nullptr) return plan;
  MURAL_ASSIGN_OR_RETURN(plan, sql::Bind(stmt, catalog_.get()));
  plan_cache_->Insert(key, plan);
  return plan;
}

StatusOr<pl::UdfRuntime*> Database::udf_runtime() {
  if (udf_ == nullptr) {
    MURAL_ASSIGN_OR_RETURN(udf_, pl::UdfRuntime::Create());
    MURAL_RETURN_IF_ERROR(BindUdfHosts());
  }
  return udf_.get();
}

Status Database::BindUdfHosts() {
  pl::UdfRuntime* udf = udf_.get();

  udf->RegisterHost(
      "SQL_LOOKUP",
      [this](const std::vector<pl::PlValue>& args)
          -> StatusOr<pl::PlValue> {
        if (args.size() != 2) {
          return Status::InvalidArgument("SQL_LOOKUP(lemma, lang)");
        }
        auto out = std::make_shared<std::vector<pl::PlValue>>();
        if (taxonomy_ != nullptr) {
          for (SynsetId id : taxonomy_->Lookup(
                   args[0].AsString(),
                   static_cast<LangId>(args[1].AsInt()))) {
            out->emplace_back(static_cast<int64_t>(id));
          }
        }
        return pl::PlValue(std::move(out));
      });

  udf->RegisterHost(
      "SQL_CHILDREN",
      [this](const std::vector<pl::PlValue>& args)
          -> StatusOr<pl::PlValue> {
        if (args.size() != 1) {
          return Status::InvalidArgument("SQL_CHILDREN(parent)");
        }
        // The recursive-SQL mechanism, faithfully: the PL procedure
        // issues one SQL statement per expanded node, which the server
        // parses, binds, plans and executes every time.  With the
        // B+Tree enabled the plan is an index probe; without it the
        // statement degenerates to a scan of the edge table.
        const int32_t parent = static_cast<int32_t>(args[0].AsInt());
        const std::string statement =
            "SELECT child FROM tax_edges WHERE parent = " +
            std::to_string(parent);
        MURAL_ASSIGN_OR_RETURN(sql::Statement parsed,
                               sql::Parse(statement));
        MURAL_ASSIGN_OR_RETURN(LogicalPtr plan,
                               sql::Bind(parsed, catalog_.get()));
        PlannerHints hints;
        hints.enable_indexscan = outside_closure_btree_;
        // Serial context: the statement has no Psi, so DOP cannot matter.
        ExecContext ctx = SharedContext();
        Planner planner(catalog_.get(), &stats_, &ctx);
        MURAL_ASSIGN_OR_RETURN(PhysicalPlan physical,
                               planner.Plan(plan, hints));
        MURAL_ASSIGN_OR_RETURN(std::vector<Row> rows,
                               CollectAll(physical.root.get()));
        auto out = std::make_shared<std::vector<pl::PlValue>>();
        for (const Row& row : rows) {
          out->emplace_back(static_cast<int64_t>(row[0].int32()));
        }
        return pl::PlValue(std::move(out));
      });

  udf->RegisterHost(
      "SQL_EQUIVALENTS",
      [this](const std::vector<pl::PlValue>& args)
          -> StatusOr<pl::PlValue> {
        if (args.size() != 1) {
          return Status::InvalidArgument("SQL_EQUIVALENTS(id)");
        }
        // Equivalence is symmetric but stored once; consult the pinned
        // adjacency (the stored table would need a union of two probes —
        // same result, and the closure cost is dominated by SQL_CHILDREN).
        auto out = std::make_shared<std::vector<pl::PlValue>>();
        if (taxonomy_ != nullptr) {
          const SynsetId id = static_cast<SynsetId>(args[0].AsInt());
          if (taxonomy_->Valid(id)) {
            for (SynsetId eq : taxonomy_->EquivalentsOf(id)) {
              out->emplace_back(static_cast<int64_t>(eq));
            }
          }
        }
        return pl::PlValue(std::move(out));
      });

  udf->RegisterHost("TEMPSET_NEW",
                    [this](const std::vector<pl::PlValue>&)
                        -> StatusOr<pl::PlValue> {
                      const int64_t handle = next_tempset_++;
                      tempsets_[handle] = {};
                      return pl::PlValue(handle);
                    });
  udf->RegisterHost(
      "TEMPSET_ADD",
      [this](const std::vector<pl::PlValue>& args)
          -> StatusOr<pl::PlValue> {
        if (args.size() != 2) {
          return Status::InvalidArgument("TEMPSET_ADD(h, v)");
        }
        auto it = tempsets_.find(args[0].AsInt());
        if (it == tempsets_.end()) {
          return Status::NotFound("bad tempset handle");
        }
        return pl::PlValue(it->second.insert(args[1].AsInt()).second);
      });
  udf->RegisterHost(
      "TEMPSET_CONTAINS",
      [this](const std::vector<pl::PlValue>& args)
          -> StatusOr<pl::PlValue> {
        if (args.size() != 2) {
          return Status::InvalidArgument("TEMPSET_CONTAINS(h, v)");
        }
        auto it = tempsets_.find(args[0].AsInt());
        if (it == tempsets_.end()) {
          return Status::NotFound("bad tempset handle");
        }
        return pl::PlValue(it->second.count(args[1].AsInt()) > 0);
      });
  udf->RegisterHost(
      "TEMPSET_SIZE",
      [this](const std::vector<pl::PlValue>& args)
          -> StatusOr<pl::PlValue> {
        auto it = tempsets_.find(args[0].AsInt());
        if (it == tempsets_.end()) {
          return Status::NotFound("bad tempset handle");
        }
        return pl::PlValue(static_cast<int64_t>(it->second.size()));
      });
  udf->RegisterHost(
      "TEMPSET_FREE",
      [this](const std::vector<pl::PlValue>& args)
          -> StatusOr<pl::PlValue> {
        tempsets_.erase(args[0].AsInt());
        return pl::PlValue(true);
      });
  return Status::OK();
}

}  // namespace mural
