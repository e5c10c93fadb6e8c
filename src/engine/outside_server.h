// Outside-the-server query execution (the paper's baseline, §5).
//
// These entry points run the same multilingual queries as the native
// operators, but the matching logic executes as interpreted PL UDFs behind
// a serialize/deserialize call boundary, the optimizer never sees the
// predicates, and the only index help available is the MDI candidate
// filter (which still needs per-candidate UDF verification).  Everything
// is real work — the slowdown versus the core path is the measured cost of
// the architecture, exactly the comparison Table 4 and Figure 8 make.
//
// Each entry point takes the caller's ExecContext (normally
// session->exec_context()): its transformer converts non-materialized
// values, and its udf_calls counter is charged with the boundary calls.

#pragma once

#include "engine/database.h"

namespace mural {

/// Per-query report for an outside-the-server run.
struct OutsideRunStats {
  uint64_t rows_examined = 0;
  uint64_t udf_calls = 0;
  uint64_t wire_bytes = 0;
  uint64_t candidates = 0;  // MDI candidates fetched (indexed runs)
  double millis = 0;
};

/// LexEQUAL scan: rows of `table` whose `column` phonemically matches
/// `query` within `threshold`.  With `use_mdi_index`, candidates come from
/// the MDI named `mdi_index_name`; each one is still verified through the
/// LEXMATCH UDF (MDI is approximate).
StatusOr<std::pair<std::vector<Row>, OutsideRunStats>> OutsideLexScan(
    Database* db, ExecContext* ctx, const std::string& table,
    const std::string& column, const UniText& query, int threshold,
    bool use_mdi_index = false, const std::string& mdi_index_name = "");

/// LexEQUAL join between two tables' columns, evaluated as a nested loop
/// of per-pair UDF calls (the PL/SQL script form).
StatusOr<std::pair<std::vector<Row>, OutsideRunStats>> OutsideLexJoin(
    Database* db, ExecContext* ctx, const std::string& left_table,
    const std::string& left_column, const std::string& right_table,
    const std::string& right_column, int threshold,
    bool use_mdi_index = false, const std::string& mdi_index_name = "");

/// Closure-size computation through the interpreted CLOSURE_SIZE UDF,
/// whose SQL_CHILDREN host statements execute as either full edge-table
/// scans (use_btree=false) or B+Tree probes — the two outside-the-server
/// curves of Figure 8.
StatusOr<std::pair<size_t, OutsideRunStats>> OutsideClosureSize(
    Database* db, ExecContext* ctx, const std::string& lemma, LangId lang,
    bool use_btree);

/// SemEQUAL scan via the SEM_MATCH UDF: rows of `table` whose `column`
/// concept is subsumed by `concept_value`.
StatusOr<std::pair<std::vector<Row>, OutsideRunStats>> OutsideSemScan(
    Database* db, ExecContext* ctx, const std::string& table,
    const std::string& column, const UniText& concept_value, bool use_btree);

}  // namespace mural
