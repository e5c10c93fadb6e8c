// Per-session engine state.
//
// A SessionState owns everything the paper stores per session in system
// tables (§4.2) — the LexEQUAL threshold and execution knobs — plus the
// runtime a single session's queries need: its ExecContext (with
// per-session effort counters), its worker pool, and its prepared
// statements.  The shared engine core (storage, catalog, stats, optimizer,
// taxonomy, plan cache, admission gate) stays in Database; many
// SessionStates run against one Database concurrently.
//
// All settings changes — SQL `SET name = value` and the C++ API alike —
// funnel through the single Set() path below, which validates, clamps,
// and (for DOP) provisions the worker pool in one place.

#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "common/status.h"
#include "common/thread_pool.h"
#include "exec/exec_context.h"
#include "phonetic/phoneme_cache.h"

namespace mural {

/// The typed per-session settings.  Field defaults are the engine
/// defaults a fresh session starts with (Database::session_defaults).
struct SessionOptions {
  /// LexEQUAL mismatch threshold (SET LEXEQUAL_THRESHOLD).
  int lexequal_threshold = 2;
  /// Degree of parallelism for Psi operators; 0 = hardware concurrency,
  /// 1 = serial plans (SET DEGREE_OF_PARALLELISM).
  int degree_of_parallelism = 0;
  /// Rows per batch on the vectorized path; 0 = tuple-at-a-time
  /// (SET BATCH_SIZE).
  int64_t batch_size = 1024;
  /// Queries running at least this many milliseconds log a warning with
  /// the timed plan tree; negative disables (SET SLOW_QUERY_MILLIS).
  int64_t slow_query_millis = -1;
};

/// Clamp ceilings enforced by SessionState::Set.
constexpr int kMaxLexequalThreshold = 256;
constexpr int kMaxDegreeOfParallelism = 256;
constexpr int64_t kMaxBatchSize = 65536;

/// One session's engine-side state.  NOT internally synchronized: a
/// session serves one client at a time (the server gives every connection
/// its own session); only the Database core it points into is shared.
class SessionState {
 public:
  /// `phoneme_cache` is the Database's shared (thread-safe) G2P cache
  /// handle; may be null when caching is disabled.
  SessionState(uint64_t id, PhonemeCache* phoneme_cache);

  SessionState(const SessionState&) = delete;
  SessionState& operator=(const SessionState&) = delete;

  /// Applies every field of `options` through Set (so construction-time
  /// options get identical validation/clamping to later SET statements).
  [[nodiscard]] Status ApplyOptions(const SessionOptions& options);

  /// THE settings path.  Case-insensitive `name` in {lexequal_threshold,
  /// degree_of_parallelism, batch_size, slow_query_millis}; values are
  /// clamped into their documented ranges; unknown names are NotFound.
  /// Raising degree_of_parallelism (re)provisions the session worker pool
  /// (grow-only).
  [[nodiscard]] Status Set(const std::string& name, int64_t value);

  uint64_t id() const { return id_; }
  const SessionOptions& options() const { return options_; }
  ExecContext* exec_context() { return &ctx_; }
  int64_t slow_query_millis() const { return options_.slow_query_millis; }

  /// Prepared statements: name (upper-cased) -> validated statement text.
  std::map<std::string, std::string>* prepared_statements() {
    return &prepared_;
  }

 private:
  const uint64_t id_;
  SessionOptions options_;
  ExecContext ctx_;
  /// Session-owned morsel workers, provisioned when DOP > 1 (grow-only).
  std::unique_ptr<ThreadPool> pool_;
  std::map<std::string, std::string> prepared_;
};

}  // namespace mural
