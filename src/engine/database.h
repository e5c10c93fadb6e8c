// Database: the shared engine core tying together storage, catalog,
// statistics, the optimizer, the pinned taxonomy, the shared plan cache,
// the admission-control gate, and the outside-the-server UDF runtime.
//
// One Database serves MANY concurrent sessions.  Per-session state — the
// settings the paper stores in system tables (§4.2: LexEQUAL threshold,
// execution mode) plus the execution context, worker pool and prepared
// statements — lives in SessionState (engine/session_state.h) and is
// surfaced through the Session API (session/session.h), the only way to
// run a query:
//
//   MURAL_ASSIGN_OR_RETURN(auto db, Database::Open());
//   MURAL_ASSIGN_OR_RETURN(auto session, db->Connect());
//   MURAL_ASSIGN_OR_RETURN(QueryResult r, session->Sql("SELECT ..."));

#pragma once

#include <atomic>
#include <memory>
#include <string>

#include "catalog/catalog.h"
#include "datagen/taxonomy_generator.h"
#include "engine/admission.h"
#include "engine/plan_cache.h"
#include "engine/session_state.h"
#include "exec/exec_context.h"
#include "optimizer/planner.h"
#include "phonetic/phoneme_cache.h"
#include "plfront/udf_runtime.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"

namespace mural {

namespace sql {
struct Statement;
}  // namespace sql

class Session;  // session layer; minted by Connect(), defined there

struct DatabaseOptions {
  /// Buffer-pool frames (8 KiB each).
  size_t buffer_pool_pages = 8192;
  /// Backing file; empty = in-memory pages (logical I/O still counted).
  std::string disk_path;
  /// Entry budget of the shared phoneme cache; 0 disables caching.
  size_t phoneme_cache_capacity = 1 << 16;
  /// Shared plan-cache entry budget; 0 disables plan caching.
  size_t plan_cache_capacity = 128;
  /// Admission-control gate over concurrent query execution
  /// (max_concurrent = 0 leaves the gate open — library single-user use
  /// pays nothing).
  AdmissionOptions admission;
};

/// Plan-vs-actual feedback for one executed plan node: the planner's
/// cardinality estimate against the observed row count, as a q-error.
struct NodeFeedback {
  std::string op;        // operator display name
  int depth = 0;         // position in the plan tree
  int64_t estimated_rows = -1;
  uint64_t actual_rows = 0;
  double qerror = 1.0;   // max(est/actual, actual/est), both floored at 1
};

/// Result of one query execution.
struct QueryResult {
  std::vector<Row> rows;
  Schema schema;
  double predicted_rows = 0;
  Cost predicted_cost;
  double runtime_ms = 0;
  ExecStats exec_stats;   // counters for this query only
  std::string explain;
  /// EXPLAIN ANALYZE form: the executed plan as a timed tree (per-operator
  /// wall time, estimated vs actual rows, per-node q-error) plus a q-error
  /// summary line and the session attribution line.
  std::string explain_analyze;
  /// Per-node estimate feedback, pre-order; nodes without an estimate are
  /// skipped.  max_qerror summarizes the worst node.
  std::vector<NodeFeedback> feedback;
  double max_qerror = 1.0;
  /// The session that ran the query.
  uint64_t session_id = 0;
  /// Time spent queued at the admission gate before execution began.
  double queue_wait_ms = 0;

  /// Pretty-prints rows as an aligned table.
  std::string ToTable(size_t max_rows = 20) const;
};

class Database {
 public:
  [[nodiscard]] static StatusOr<std::unique_ptr<Database>> Open(
      DatabaseOptions options = DatabaseOptions());

  // ------------------------------------------------------------ sessions

  /// Mints a new concurrent session against this Database with the
  /// default SessionOptions (thread-safe).  The Session must not outlive
  /// the Database.  Defined in session/session.cc.
  [[nodiscard]] StatusOr<std::unique_ptr<Session>> Connect();
  [[nodiscard]] StatusOr<std::unique_ptr<Session>> Connect(
      SessionOptions options);

  /// The options Connect() starts a session from.
  SessionOptions session_defaults() const { return SessionOptions(); }

  // ------------------------------------------------------------- DDL/DML
  //
  // DDL and ANALYZE mutate what bound plans were built against, so each
  // of these invalidates the shared plan cache.  Safe to call from any
  // session's thread; the catalog and stats catalog are internally
  // synchronized.

  [[nodiscard]] Status CreateTable(const std::string& name, Schema schema);

  /// Inserts a row; UniText values in MATERIALIZE PHONEMES columns get
  /// their phoneme strings computed and stored (paper §4.2).
  [[nodiscard]] Status Insert(const std::string& table, Row row);

  [[nodiscard]]
  Status InsertBulk(const std::string& table, std::vector<Row> rows);

  /// Creates and registers an index.  `on_phonemes` keys the index by the
  /// materialized phoneme string (required for kMTree/kMdi).
  [[nodiscard]]
  Status CreateIndex(const std::string& index_name, const std::string& table,
                     const std::string& column, IndexKind kind,
                     bool on_phonemes);

  /// Rebuilds optimizer statistics for a table.
  [[nodiscard]] Status Analyze(const std::string& table);

  // ------------------------------------------------------------ taxonomy

  /// Pins `taxonomy` in memory for SemEQUAL *and* persists it into the
  /// relational tables tax_synsets / tax_edges / tax_equiv, so closure
  /// computation can also run against storage (the Figure-8 experiments).
  /// Setup-phase only: must not race live queries.
  [[nodiscard]] Status LoadTaxonomy(std::unique_ptr<Taxonomy> taxonomy);

  /// Adds B+Tree indexes on tax_edges.parent and tax_equiv.a (the
  /// "B+Tree index on the parent attribute" configuration of §5.4).
  [[nodiscard]] Status CreateTaxonomyIndexes();

  const Taxonomy* taxonomy() const { return taxonomy_.get(); }

  // -------------------------------------------------------------- access

  Catalog* catalog() { return catalog_.get(); }
  StatsCatalog* stats_catalog() { return &stats_; }
  BufferPool* buffer_pool() { return pool_.get(); }
  DiskManager* disk() { return disk_.get(); }
  PhonemeCache* phoneme_cache() { return phoneme_cache_.get(); }
  PlanCache* plan_cache() { return plan_cache_.get(); }
  AdmissionController* admission() { return admission_.get(); }

  /// The outside-the-server UDF runtime with SQL_*/TEMPSET_* host
  /// callbacks bound to this database.  `use_btree_for_closure` selects
  /// how the SQL_CHILDREN host statement executes: B+Tree probe (requires
  /// CreateTaxonomyIndexes) vs full scan of tax_edges.  Single-user: the
  /// outside-the-server baseline models the paper's one-user setup.
  [[nodiscard]] StatusOr<pl::UdfRuntime*> udf_runtime();
  void set_outside_closure_uses_btree(bool use) {
    outside_closure_btree_ = use;
  }

 private:
  friend class Session;  // the only caller of the *On core below

  Database() = default;

  // Every query entry point — Session methods and, through them, the
  // server — funnels through these.

  /// Plans without executing (EXPLAIN) on behalf of `session`.
  [[nodiscard]] StatusOr<PhysicalPlan> PlanOn(
      SessionState& session, const LogicalPtr& plan,
      PlannerHints hints = PlannerHints());

  /// Plans and executes on behalf of `session`: takes an admission-gate
  /// slot, reports predictions/timings/counters, and stamps the result
  /// with the session id and queue wait.
  [[nodiscard]] StatusOr<QueryResult> QueryOn(
      SessionState& session, const LogicalPtr& plan,
      PlannerHints hints = PlannerHints());

  /// Parses and runs one SQL statement (SELECT / EXPLAIN / SET / CREATE /
  /// INSERT / ANALYZE / PREPARE / EXECUTE) on behalf of `session`,
  /// consulting the shared plan cache for SELECT/EXPLAIN binds and
  /// routing SET through SessionState::Set.  `hints` reaches the planner
  /// for SELECT and EXPLAIN [ANALYZE] statements.
  [[nodiscard]] StatusOr<QueryResult> SqlOn(
      SessionState& session, const std::string& statement,
      PlannerHints hints = PlannerHints());

  [[nodiscard]] Status BindUdfHosts();

  /// Binds `stmt` through the shared plan cache (hit skips parse+bind
  /// work; miss binds and populates).
  [[nodiscard]] StatusOr<LogicalPtr> BindCached(SessionState& session,
                                                const sql::Statement& stmt);

  /// ANALYZE core: G2P for MFV phonemes runs through `ctx` so the work is
  /// attributed to the requesting session's counters.
  [[nodiscard]] Status AnalyzeWith(const std::string& table,
                                   ExecContext* ctx);

  /// A serial context over the engine-shared handles (phoneme cache,
  /// taxonomy, closure cache) for work no session asked for: ANALYZE
  /// through the C++ API and the SQL_CHILDREN host statements.
  ExecContext SharedContext() const;

  /// Points `ctx` at the engine-shared handles (taxonomy, closure
  /// cache), which may have been loaded after its session was minted.
  void SyncSharedHandles(ExecContext* ctx) const;

  uint64_t MintSessionId() {
    return next_session_id_.fetch_add(1, std::memory_order_relaxed);
  }

  std::unique_ptr<DiskManager> disk_;
  std::unique_ptr<BufferPool> pool_;
  std::unique_ptr<Catalog> catalog_;
  StatsCatalog stats_;
  std::unique_ptr<Taxonomy> taxonomy_;
  std::unique_ptr<ClosureCache> closure_cache_;
  std::unique_ptr<PhonemeCache> phoneme_cache_;
  std::unique_ptr<PlanCache> plan_cache_;
  std::unique_ptr<AdmissionController> admission_;
  std::atomic<uint64_t> next_session_id_{1};
  std::unique_ptr<pl::UdfRuntime> udf_;
  bool outside_closure_btree_ = false;
  // TEMPSET_* backing store (models PL/SQL temp tables with an index).
  std::map<int64_t, std::unordered_set<int64_t>> tempsets_;
  int64_t next_tempset_ = 1;
};

}  // namespace mural
