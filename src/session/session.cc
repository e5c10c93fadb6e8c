#include "session/session.h"

#include "common/metrics.h"

namespace mural {

namespace {

Gauge* ActiveSessions() {
  static Gauge* g =
      MetricsRegistry::Global().GetGauge("engine.sessions.active");
  return g;
}

Counter* OpenedSessions() {
  static Counter* c =
      MetricsRegistry::Global().GetCounter("engine.sessions.opened");
  return c;
}

}  // namespace

Session::Session(Database* db, uint64_t id)
    : db_(db), state_(id, db->phoneme_cache()) {
  ActiveSessions()->Add(1);
  OpenedSessions()->Increment();
}

Session::~Session() { ActiveSessions()->Add(-1); }

StatusOr<QueryResult> Session::Sql(const std::string& statement,
                                   PlannerHints hints) {
  return db_->SqlOn(state_, statement, hints);
}

StatusOr<QueryResult> Session::Query(const LogicalPtr& plan,
                                     PlannerHints hints) {
  return db_->QueryOn(state_, plan, hints);
}

StatusOr<PhysicalPlan> Session::PlanQuery(const LogicalPtr& plan,
                                          PlannerHints hints) {
  return db_->PlanOn(state_, plan, hints);
}

Status Session::Set(const std::string& name, int64_t value) {
  return state_.Set(name, value);
}

Status Session::Prepare(const std::string& name,
                        const std::string& statement) {
  // Same path as SQL PREPARE so validation happens exactly once, in SqlOn.
  return db_->SqlOn(state_, "PREPARE " + name + " AS " + statement)
      .status();
}

StatusOr<QueryResult> Session::Execute(const std::string& name) {
  return db_->SqlOn(state_, "EXECUTE " + name);
}

// Defined here, where Session is complete, so the engine layer never
// includes upward into the session layer.
StatusOr<std::unique_ptr<Session>> Database::Connect() {
  return Connect(session_defaults());
}

StatusOr<std::unique_ptr<Session>> Database::Connect(
    SessionOptions options) {
  std::unique_ptr<Session> session(new Session(this, MintSessionId()));
  MURAL_RETURN_IF_ERROR(session->state_.ApplyOptions(options));
  // A fresh session's context serves hand-built operators over the
  // taxonomy before it plans its first query.
  SyncSharedHandles(session->exec_context());
  return session;
}

}  // namespace mural
