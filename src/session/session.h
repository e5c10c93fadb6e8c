// Session: one client's handle onto a shared Database.
//
// Database is the shared engine core — storage, catalog, statistics,
// optimizer, taxonomy, plan cache, admission gate — used concurrently by
// many sessions, while everything per-client lives here: the typed
// SessionOptions knobs, the ExecContext with per-session effort counters,
// the session worker pool, and prepared statements.  `Database::Connect()`
// mints sessions, and a Session is the only way to run a query:
//
//   MURAL_ASSIGN_OR_RETURN(auto db, Database::Open());
//   MURAL_ASSIGN_OR_RETURN(auto alice, db->Connect());
//   MURAL_ASSIGN_OR_RETURN(auto bob,
//                          db->Connect({.lexequal_threshold = 3}));
//   MURAL_RETURN_IF_ERROR(alice->Set("degree_of_parallelism", 8));
//   MURAL_ASSIGN_OR_RETURN(QueryResult r, alice->Sql("SELECT ..."));
//
// A Session is NOT internally synchronized — one client drives it at a
// time (the server gives each connection its own) — but any number of
// sessions may run queries against the same Database concurrently.
// Sessions must not outlive their Database.
//
// Exported metrics: engine.sessions.active (gauge),
// engine.sessions.opened (counter).

#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "engine/database.h"

namespace mural {

class Session {
 public:
  ~Session();

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// Parses and runs one SQL statement; `hints` reaches the planner for
  /// SELECT / EXPLAIN [ANALYZE], so hint-driven runs attribute their
  /// EXPLAIN ANALYZE output and slow-query logs to this session.
  [[nodiscard]] StatusOr<QueryResult> Sql(
      const std::string& statement, PlannerHints hints = PlannerHints());

  /// Plans and executes a bound logical plan.
  [[nodiscard]] StatusOr<QueryResult> Query(
      const LogicalPtr& plan, PlannerHints hints = PlannerHints());

  /// Plans without executing (EXPLAIN).
  [[nodiscard]] StatusOr<PhysicalPlan> PlanQuery(
      const LogicalPtr& plan, PlannerHints hints = PlannerHints());

  /// Sets one session knob — the same validated/clamped path SQL SET
  /// uses (SessionState::Set).  Unknown names are NotFound.
  [[nodiscard]] Status Set(const std::string& name, int64_t value);

  /// PREPARE name AS statement / EXECUTE name, as API calls.
  [[nodiscard]] Status Prepare(const std::string& name,
                               const std::string& statement);
  [[nodiscard]] StatusOr<QueryResult> Execute(const std::string& name);

  uint64_t id() const { return state_.id(); }
  const SessionOptions& options() const { return state_.options(); }
  ExecContext* exec_context() { return state_.exec_context(); }
  Database* database() { return db_; }

 private:
  friend class Database;  // Connect() is the only minter
  Session(Database* db, uint64_t id);

  Database* const db_;
  SessionState state_;
};

}  // namespace mural
