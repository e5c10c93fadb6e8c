// The Session/Database API split: Database::Connect() mints sessions with
// independent settings over one shared engine core; the single
// SessionState::Set path validates and clamps every knob (SQL SET and the
// C++ API identically); a Database starts no worker threads of its own;
// results carry session attribution; the shared plan cache serves
// repeated (prepared) statements with DDL/ANALYZE invalidation; and the
// multilingual selections plan the fused select exactly where they can,
// with the filter scan's results and errors.

#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/metrics.h"
#include "datagen/name_generator.h"
#include "engine/database.h"
#include "mural/algebra.h"
#include "session/session.h"

namespace mural {
namespace {

Counter* PlanCacheHits() {
  return MetricsRegistry::Global().GetCounter("engine.plan_cache.hits");
}

Counter* PlanCacheMisses() {
  return MetricsRegistry::Global().GetCounter("engine.plan_cache.misses");
}

Counter* PlanCacheInvalidations() {
  return MetricsRegistry::Global().GetCounter(
      "engine.plan_cache.invalidations");
}

StatusOr<std::unique_ptr<Database>> MakeBookDatabase(
    DatabaseOptions options = DatabaseOptions()) {
  MURAL_ASSIGN_OR_RETURN(std::unique_ptr<Database> db,
                         Database::Open(options));
  MURAL_ASSIGN_OR_RETURN(std::unique_ptr<Session> loader, db->Connect());
  MURAL_RETURN_IF_ERROR(loader->Sql("CREATE TABLE Book (BookID INT, "
                                    "Author UNITEXT MATERIALIZE PHONEMES)")
                            .status());
  const char* rows[] = {"Nehru", "Neru", "Nero", "Gandhi"};
  int id = 1;
  for (const char* author : rows) {
    MURAL_RETURN_IF_ERROR(
        loader->Sql("INSERT INTO Book VALUES (" + std::to_string(id++) +
                    ", '" + author + "'@English)")
            .status());
  }
  return db;
}

/// This process's OS thread count.
size_t ThreadCount() {
  size_t n = 0;
  for (const auto& task :
       std::filesystem::directory_iterator("/proc/self/task")) {
    (void)task;
    ++n;
  }
  return n;
}

TEST(SessionTest, ConnectMintsDistinctSessions) {
  auto db = MakeBookDatabase();
  ASSERT_TRUE(db.ok());
  Gauge* active = MetricsRegistry::Global().GetGauge(
      "engine.sessions.active");
  const int64_t active_before = active->value();

  auto a = (*db)->Connect();
  auto b = (*db)->Connect();
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_NE((*a)->id(), (*b)->id());
  EXPECT_NE((*a)->id(), 0u);  // session ids start at 1
  EXPECT_EQ(active->value(), active_before + 2);

  a->reset();
  b->reset();
  EXPECT_EQ(active->value(), active_before);
}

TEST(SessionTest, SessionsHaveIndependentSettings) {
  auto db = MakeBookDatabase();
  ASSERT_TRUE(db.ok());
  auto strict = (*db)->Connect();
  auto loose = (*db)->Connect();
  ASSERT_TRUE(strict.ok());
  ASSERT_TRUE(loose.ok());

  ASSERT_TRUE((*strict)->Sql("SET LEXEQUAL_THRESHOLD = 0").ok());
  ASSERT_TRUE((*loose)->Set("lexequal_threshold", 3).ok());
  EXPECT_EQ((*strict)->options().lexequal_threshold, 0);
  EXPECT_EQ((*loose)->options().lexequal_threshold, 3);
  // A session minted afterwards starts from the defaults.
  auto fresh = (*db)->Connect();
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ((*fresh)->options().lexequal_threshold, 2);

  const std::string query =
      "SELECT Author FROM Book WHERE Author LexEQUAL 'Nehru'";
  auto strict_rows = (*strict)->Sql(query);
  auto loose_rows = (*loose)->Sql(query);
  ASSERT_TRUE(strict_rows.ok());
  ASSERT_TRUE(loose_rows.ok());
  // Threshold 0 = exact phonetic match only; threshold 3 catches the
  // spelling variants too.
  EXPECT_LT(strict_rows->rows.size(), loose_rows->rows.size());
  EXPECT_EQ(strict_rows->session_id, (*strict)->id());
  EXPECT_EQ(loose_rows->session_id, (*loose)->id());
}

TEST(SessionTest, ConnectWithExplicitOptions) {
  auto db = MakeBookDatabase();
  ASSERT_TRUE(db.ok());
  SessionOptions options;
  options.lexequal_threshold = 5;
  options.batch_size = 0;
  options.degree_of_parallelism = 2;
  auto session = (*db)->Connect(options);
  ASSERT_TRUE(session.ok());
  EXPECT_EQ((*session)->options().lexequal_threshold, 5);
  EXPECT_EQ((*session)->options().batch_size, 0);
  EXPECT_EQ((*session)->options().degree_of_parallelism, 2);
}

TEST(SessionTest, SetValidatesAndClampsInOnePlace) {
  auto db = MakeBookDatabase();
  ASSERT_TRUE(db.ok());
  auto session = (*db)->Connect();
  ASSERT_TRUE(session.ok());

  // Clamping — same behavior the old setter zoo had.
  ASSERT_TRUE((*session)->Set("batch_size", -5).ok());
  EXPECT_EQ((*session)->options().batch_size, 0);
  ASSERT_TRUE((*session)->Set("batch_size", int64_t{1} << 20).ok());
  EXPECT_EQ((*session)->options().batch_size, 65536);
  ASSERT_TRUE((*session)->Set("lexequal_threshold", -1).ok());
  EXPECT_EQ((*session)->options().lexequal_threshold, 0);
  ASSERT_TRUE((*session)->Set("lexequal_threshold", 10000).ok());
  EXPECT_EQ((*session)->options().lexequal_threshold,
            kMaxLexequalThreshold);

  // Unknown names fail identically through SQL and the C++ API.
  auto bad_api = (*session)->Set("nonsense", 3);
  EXPECT_TRUE(bad_api.IsNotFound()) << bad_api.ToString();
  auto bad_sql = (*session)->Sql("SET nonsense = 3");
  ASSERT_FALSE(bad_sql.ok());
  EXPECT_TRUE(bad_sql.status().IsNotFound());

  // Case-insensitive, like SQL SET always was.
  ASSERT_TRUE((*session)->Set("LEXEQUAL_THRESHOLD", 1).ok());
  EXPECT_EQ((*session)->options().lexequal_threshold, 1);
}

TEST(SessionTest, OpenStartsNoWorkerThreads) {
  // Only sessions own morsel workers: opening, loading, analyzing and
  // pinning a taxonomy start none, whatever the hardware concurrency.
  const size_t before = ThreadCount();
  auto db = Database::Open();
  ASSERT_TRUE(db.ok());
  const Schema schema({{"id", TypeId::kInt32},
                       {"name", TypeId::kUniText, /*mat=*/true}});
  ASSERT_TRUE((*db)->CreateTable("names", schema).ok());
  ASSERT_TRUE(
      (*db)->Insert("names", {Value::Int32(1),
                               Value::Uni("Nehru", lang::kEnglish)})
          .ok());
  ASSERT_TRUE((*db)->Analyze("names").ok());
  auto tax = std::make_unique<Taxonomy>();
  const SynsetId history = tax->AddSynset(lang::kEnglish, "History");
  const SynsetId autob = tax->AddSynset(lang::kEnglish, "Autobiography");
  ASSERT_TRUE(tax->AddIsA(autob, history).ok());
  ASSERT_TRUE((*db)->LoadTaxonomy(std::move(tax)).ok());
  EXPECT_EQ(ThreadCount(), before);

  // A serial session adds none; a DOP-2 session adds exactly one worker
  // (its morsel phases run strip 0 on the calling thread).
  SessionOptions serial;
  serial.degree_of_parallelism = 1;
  auto serial_session = (*db)->Connect(serial);
  ASSERT_TRUE(serial_session.ok());
  EXPECT_EQ(ThreadCount(), before);
  SessionOptions two;
  two.degree_of_parallelism = 2;
  auto two_session = (*db)->Connect(two);
  ASSERT_TRUE(two_session.ok());
  EXPECT_EQ(ThreadCount(), before + 1);
}

TEST(SessionTest, ConnectHandsFreshSessionsTheSharedTaxonomy) {
  auto db = MakeBookDatabase();
  ASSERT_TRUE(db.ok());
  auto tax = std::make_unique<Taxonomy>();
  tax->AddSynset(lang::kEnglish, "History");
  ASSERT_TRUE((*db)->LoadTaxonomy(std::move(tax)).ok());
  // Without planning a query first, the context serves hand-built Omega
  // operators.
  auto session = (*db)->Connect();
  ASSERT_TRUE(session.ok());
  EXPECT_EQ((*session)->exec_context()->taxonomy, (*db)->taxonomy());
  EXPECT_NE((*session)->exec_context()->closure_cache, nullptr);
}

TEST(SessionTest, ExplainAnalyzeAttributesSession) {
  auto db = MakeBookDatabase();
  ASSERT_TRUE(db.ok());
  auto session = (*db)->Connect();
  ASSERT_TRUE(session.ok());
  auto result = (*session)->Sql(
      "EXPLAIN ANALYZE SELECT Author FROM Book WHERE Author LexEQUAL "
      "'Nehru'");
  ASSERT_TRUE(result.ok());
  const std::string want =
      "session: id=" + std::to_string((*session)->id());
  EXPECT_NE(result->explain_analyze.find(want), std::string::npos)
      << result->explain_analyze;
}

TEST(SessionTest, PlannerHintsThreadThroughSql) {
  auto db = MakeBookDatabase();
  ASSERT_TRUE(db.ok());
  auto session = (*db)->Connect();
  ASSERT_TRUE(session.ok());
  const std::string query =
      "SELECT Author FROM Book WHERE Author LexEQUAL 'Nehru'";
  auto plain = (*session)->Sql(query);
  ASSERT_TRUE(plain.ok());
  EXPECT_NE(plain->explain.find("LexSelect"), std::string::npos)
      << plain->explain;
  PlannerHints opaque;
  opaque.opaque_multilingual = true;
  auto result = (*session)->Sql(query, opaque);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->explain.find("LexSelect"), std::string::npos)
      << result->explain;
}

TEST(SessionTest, PrepareExecuteRoundTrip) {
  auto db = MakeBookDatabase();
  ASSERT_TRUE(db.ok());
  auto session = (*db)->Connect();
  ASSERT_TRUE(session.ok());

  ASSERT_TRUE((*session)
                  ->Sql("PREPARE q1 AS SELECT Author FROM Book WHERE "
                        "Author LexEQUAL 'Nehru'")
                  .ok());
  auto first = (*session)->Sql("EXECUTE q1");
  ASSERT_TRUE(first.ok());
  auto second = (*session)->Execute("q1");  // API spelling, same statement
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(first->rows.size(), second->rows.size());

  // Unknown name and nested PREPARE both refuse.
  auto missing = (*session)->Sql("EXECUTE nope");
  ASSERT_FALSE(missing.ok());
  EXPECT_TRUE(missing.status().IsNotFound());
  auto nested =
      (*session)->Sql("PREPARE q2 AS PREPARE q3 AS SELECT * FROM Book");
  ASSERT_FALSE(nested.ok());
  EXPECT_TRUE(nested.status().IsInvalidArgument());
  // A PREPARE body with a parse error is rejected at PREPARE time.
  auto bad_body = (*session)->Sql("PREPARE q4 AS SELECTT nope");
  ASSERT_FALSE(bad_body.ok());

  // Prepared statements are per-session state.
  auto other = (*db)->Connect();
  ASSERT_TRUE(other.ok());
  auto not_here = (*other)->Sql("EXECUTE q1");
  ASSERT_FALSE(not_here.ok());
  EXPECT_TRUE(not_here.status().IsNotFound());
}

TEST(SessionTest, PlanCacheHitsOnRepeatAndInvalidatesOnDdl) {
  auto db = MakeBookDatabase();
  ASSERT_TRUE(db.ok());
  auto session = (*db)->Connect();
  ASSERT_TRUE(session.ok());
  ASSERT_TRUE((*session)
                  ->Sql("PREPARE probe AS SELECT Author FROM Book WHERE "
                        "Author LexEQUAL 'Nehru'")
                  .ok());

  const uint64_t hits0 = PlanCacheHits()->value();
  const uint64_t misses0 = PlanCacheMisses()->value();
  auto first = (*session)->Execute("probe");
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(PlanCacheMisses()->value(), misses0 + 1);
  EXPECT_EQ(PlanCacheHits()->value(), hits0);

  auto second = (*session)->Execute("probe");
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(PlanCacheHits()->value(), hits0 + 1);
  EXPECT_EQ((*db)->plan_cache()->size(), 1u);

  // A second session with identical knobs shares the cached bind.
  auto twin = (*db)->Connect();
  ASSERT_TRUE(twin.ok());
  auto twin_run = (*twin)->Sql(
      "SELECT Author FROM Book WHERE Author LexEQUAL 'Nehru'");
  ASSERT_TRUE(twin_run.ok());
  EXPECT_EQ(PlanCacheHits()->value(), hits0 + 2);
  EXPECT_EQ(twin_run->rows.size(), second->rows.size());

  // A session with a different threshold must NOT share it (the key
  // carries the knobs), but populates its own entry.
  auto other = (*db)->Connect();
  ASSERT_TRUE(other.ok());
  ASSERT_TRUE((*other)->Set("lexequal_threshold", 3).ok());
  auto other_run = (*other)->Sql(
      "SELECT Author FROM Book WHERE Author LexEQUAL 'Nehru'");
  ASSERT_TRUE(other_run.ok());
  EXPECT_EQ(PlanCacheMisses()->value(), misses0 + 2);
  EXPECT_EQ((*db)->plan_cache()->size(), 2u);

  // DDL sweeps the cache; the next run re-binds.
  const uint64_t invalidations0 = PlanCacheInvalidations()->value();
  ASSERT_TRUE((*session)->Sql("CREATE TABLE Other (X INT)").ok());
  EXPECT_EQ(PlanCacheInvalidations()->value(), invalidations0 + 1);
  EXPECT_EQ((*db)->plan_cache()->size(), 0u);
  auto after_ddl = (*session)->Execute("probe");
  ASSERT_TRUE(after_ddl.ok());
  EXPECT_EQ(PlanCacheMisses()->value(), misses0 + 3);

  // ANALYZE sweeps too.
  ASSERT_TRUE((*session)->Sql("ANALYZE Book").ok());
  EXPECT_EQ((*db)->plan_cache()->size(), 0u);
  EXPECT_GE(PlanCacheInvalidations()->value(), invalidations0 + 2);
}

TEST(SessionTest, PlanCacheCapacityZeroDisables) {
  DatabaseOptions options;
  options.plan_cache_capacity = 0;
  auto db = MakeBookDatabase(options);
  ASSERT_TRUE(db.ok());
  auto session = (*db)->Connect();
  ASSERT_TRUE(session.ok());
  const uint64_t hits0 = PlanCacheHits()->value();
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(
        (*session)->Sql("SELECT Author FROM Book").ok());
  }
  EXPECT_EQ(PlanCacheHits()->value(), hits0);
  EXPECT_EQ((*db)->plan_cache()->size(), 0u);
}

TEST(SessionTest, QueryViaLogicalPlanCarriesSessionId) {
  auto db = MakeBookDatabase();
  ASSERT_TRUE(db.ok());
  auto session = (*db)->Connect();
  ASSERT_TRUE(session.ok());
  const Schema schema({{"BookID", TypeId::kInt32},
                       {"Author", TypeId::kUniText, /*mat=*/true}});
  const LogicalPtr plan =
      MuralBuilder::Scan("Book", schema)
          .PsiSelect("Author", UniText("Nehru", lang::kEnglish))
          .Build();
  auto result = (*session)->Query(plan);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->session_id, (*session)->id());
  EXPECT_GE(result->queue_wait_ms, 0.0);
  auto physical = (*session)->PlanQuery(plan);
  ASSERT_TRUE(physical.ok());
}

std::vector<std::string> RenderRows(const std::vector<Row>& rows) {
  std::vector<std::string> out;
  for (const Row& row : rows) {
    std::string line;
    for (const Value& v : row) line += v.ToString() + "|";
    out.push_back(std::move(line));
  }
  return out;
}

// The trace line of the first operator whose name starts with `op`, and
// the line above it (its parent), from an EXPLAIN ANALYZE tree.
std::pair<std::string, std::string> TraceLine(const std::string& trace,
                                              const std::string& op) {
  std::string parent, line;
  size_t pos = 0;
  while (pos < trace.size()) {
    size_t eol = trace.find('\n', pos);
    if (eol == std::string::npos) eol = trace.size();
    line = trace.substr(pos, eol - pos);
    pos = eol + 1;
    if (line.find("-> " + op + "(") != std::string::npos) {
      return {line, parent};
    }
    parent = line;
  }
  return {"", ""};
}

TEST(SessionTest, LanguageRestrictedLexEqualRunsOnBatchedPsiScan) {
  // The multilingual catalog's everyday probe, LexEQUAL restricted to a
  // language set, through Session::Sql: it must plan the Psi-scan operator
  // (residual language filter, batch path under Project) at every DOP and
  // return exactly the rows of the opaque Filter(SeqScan) plan.
  auto db = Database::Open();
  ASSERT_TRUE(db.ok());
  auto session = (*db)->Connect();
  ASSERT_TRUE(session.ok());
  ASSERT_TRUE((*session)
                  ->Sql("CREATE TABLE Author (AuthorID INT, AName UNITEXT "
                        "MATERIALIZE PHONEMES)")
                  .ok());
  NameGenOptions gen;
  gen.seed = 11;
  gen.num_bases = 1600;
  gen.variants_per_base = 5;
  const std::vector<NameRecord> names = GenerateNames(gen);
  for (const NameRecord& rec : names) {
    ASSERT_TRUE((*db)->Insert("Author",
                              {Value::Int32(static_cast<int32_t>(rec.id)),
                               Value::Uni(rec.name)})
                    .ok());
  }
  ASSERT_TRUE((*session)->Sql("ANALYZE Author").ok());
  ASSERT_TRUE((*session)->Sql("SET LEXEQUAL_THRESHOLD = 3").ok());

  const NameRecord* probe = nullptr;
  for (const NameRecord& rec : names) {
    if (rec.name.lang() == lang::kTamil) {
      probe = &rec;
      break;
    }
  }
  ASSERT_NE(probe, nullptr);
  const std::string query =
      "SELECT AuthorID, AName FROM Author WHERE AName LexEQUAL '" +
      probe->name.text() + "'@Tamil IN Hindi, Tamil";

  PlannerHints opaque;
  opaque.opaque_multilingual = true;
  auto reference = (*session)->Sql(query, opaque);
  ASSERT_TRUE(reference.ok());
  EXPECT_EQ(reference->explain.find("LexSelect"), std::string::npos)
      << reference->explain;
  // At least two matches, so LIMIT 1 below cuts a batch short.
  ASSERT_GE(reference->rows.size(), 2u);

  for (const int dop : {1, 2, 4}) {
    ASSERT_TRUE((*session)
                    ->Sql("SET degree_of_parallelism = " +
                          std::to_string(dop))
                    .ok());
    auto result = (*session)->Sql(query);
    ASSERT_TRUE(result.ok()) << "dop=" << dop;
    const auto [scan, parent] =
        TraceLine(result->explain_analyze, "LexSelect");
    ASSERT_FALSE(scan.empty()) << result->explain_analyze;
    EXPECT_NE(parent.find("-> Project("), std::string::npos)
        << result->explain_analyze;
    EXPECT_NE(scan.find("batches="), std::string::npos)
        << result->explain_analyze;
    EXPECT_NE(scan.find("residual ANAME IN Hindi, Tamil"), std::string::npos) << scan;
    // 4,800 names at threshold 3: the CPU term pays for the workers.
    EXPECT_EQ(scan.find("dop="), dop > 1 ? scan.find("dop=" +
                                                       std::to_string(dop))
                                         : std::string::npos)
        << scan;
    // Same rows in the same order as the opaque filter scan.
    EXPECT_EQ(RenderRows(result->rows), RenderRows(reference->rows))
        << "dop=" << dop;

    // LIMIT passes the batch through, truncating its selection mid-batch.
    auto limited = (*session)->Sql(query + " LIMIT 1");
    ASSERT_TRUE(limited.ok()) << "dop=" << dop;
    ASSERT_EQ(limited->rows.size(), 1u);
    EXPECT_EQ(RenderRows(limited->rows)[0], RenderRows(reference->rows)[0]);
    const std::string limit = TraceLine(limited->explain_analyze, "Limit").first;
    EXPECT_NE(limit.find("actual rows=1 "), std::string::npos)
        << limited->explain_analyze;
    EXPECT_NE(limit.find("batches=1 "), std::string::npos)
        << limited->explain_analyze;
    const std::string limited_scan =
        TraceLine(limited->explain_analyze, "LexSelect").first;
    EXPECT_NE(limited_scan.find("actual rows=" +
                                std::to_string(reference->rows.size())),
              std::string::npos)
        << limited->explain_analyze;
  }
}

// The plan lines of EXPLAIN `query` (planned, not executed), joined.
std::string ExplainText(Session* session, const std::string& query,
                        PlannerHints hints = PlannerHints()) {
  auto explain = session->Sql("EXPLAIN " + query, hints);
  EXPECT_TRUE(explain.ok()) << query;
  std::string out;
  if (!explain.ok()) return out;
  for (const Row& row : explain->rows) out += row[0].ToString() + "\n";
  return out;
}

TEST(SessionTest, SemEqualWithoutTaxonomyFailsIdentically) {
  // No taxonomy pinned: the fused select and the opaque Filter(SeqScan)
  // plan fail a non-empty scan with the same typed error.
  auto db = Database::Open();
  ASSERT_TRUE(db.ok());
  auto session = (*db)->Connect();
  ASSERT_TRUE(session.ok());
  Session* s = session->get();
  ASSERT_TRUE(
      s->Sql("CREATE TABLE Book (BookID INT, Category UNITEXT)").ok());
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE((*db)->Insert("Book", {Value::Int32(i),
                                       i % 4 == 0 ? Value::Null()
                                                  : Value::Uni("History",
                                                               lang::kEnglish)})
                    .ok());
  }
  ASSERT_TRUE(s->Sql("ANALYZE Book").ok());
  const std::string query =
      "SELECT count(*) FROM Book WHERE Category SemEQUAL 'History'@English";
  PlannerHints opaque;
  opaque.opaque_multilingual = true;
  EXPECT_NE(ExplainText(s, query).find("SemSelect("), std::string::npos);
  EXPECT_EQ(ExplainText(s, query, opaque).find("SemSelect("),
            std::string::npos);

  auto fused = s->Sql(query);
  auto filtered = s->Sql(query, opaque);
  ASSERT_FALSE(fused.ok());
  ASSERT_FALSE(filtered.ok());
  EXPECT_EQ(fused.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(fused.status().code(), filtered.status().code());
  EXPECT_EQ(fused.status().message(), filtered.status().message());
  EXPECT_NE(fused.status().message().find("SemEQUAL requires a taxonomy"),
            std::string::npos)
      << fused.status().ToString();
}

// A four-concept taxonomy (History > Biography > Autobiography, and the
// Tamil Charitram equivalent to History) and a 60-row Book table whose
// Category (UNITEXT) and Genre (TEXT) cycle through those concepts and
// one unknown, with every 7th row NULL.
StatusOr<std::unique_ptr<Session>> MakeCategoryBooks(Database* db) {
  auto tax = std::make_unique<Taxonomy>();
  const SynsetId history = tax->AddSynset(lang::kEnglish, "History");
  const SynsetId biography = tax->AddSynset(lang::kEnglish, "Biography");
  const SynsetId autobio = tax->AddSynset(lang::kEnglish, "Autobiography");
  const SynsetId charitram = tax->AddSynset(lang::kTamil, "Charitram");
  MURAL_RETURN_IF_ERROR(tax->AddIsA(biography, history));
  MURAL_RETURN_IF_ERROR(tax->AddIsA(autobio, biography));
  MURAL_RETURN_IF_ERROR(tax->AddEquivalence(history, charitram));
  MURAL_RETURN_IF_ERROR(db->LoadTaxonomy(std::move(tax)));

  MURAL_ASSIGN_OR_RETURN(std::unique_ptr<Session> session, db->Connect());
  MURAL_RETURN_IF_ERROR(session
                            ->Sql("CREATE TABLE Book (BookID INT, Category "
                                  "UNITEXT, Genre TEXT)")
                            .status());
  const std::pair<const char*, LangId> categories[] = {
      {"History", lang::kEnglish},       {"Biography", lang::kEnglish},
      {"Autobiography", lang::kEnglish}, {"Charitram", lang::kTamil},
      {"Cooking", lang::kEnglish}};
  for (int i = 0; i < 60; ++i) {
    const auto& [text, lang_id] = categories[i % 5];
    const bool null = i % 7 == 0;
    MURAL_RETURN_IF_ERROR(
        db->Insert("Book", {Value::Int32(i),
                            null ? Value::Null() : Value::Uni(text, lang_id),
                            null ? Value::Null() : Value::Text(text)}));
  }
  MURAL_RETURN_IF_ERROR(session->Sql("ANALYZE Book").status());
  return session;
}

TEST(SessionTest, OmegaFormsOutsideTheKernelStayOnFilterScan) {
  // The Omega kernel takes only `UNITEXT column SemEQUAL UniText
  // constant`.  A constant on the LHS (Omega does not commute), a TEXT
  // column, and the opaque_multilingual hint keep Filter(SeqScan), with
  // the results (or the typed error) of the opaque plan.
  auto db = Database::Open();
  ASSERT_TRUE(db.ok());
  auto session = MakeCategoryBooks(db->get());
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  Session* s = session->get();
  PlannerHints opaque;
  opaque.opaque_multilingual = true;

  // The kernel form itself is fused, and the opaque hint turns it off.
  const std::string kernel_form =
      "SELECT BookID FROM Book WHERE Category SemEQUAL 'History'@English";
  EXPECT_NE(ExplainText(s, kernel_form).find("SemSelect("),
            std::string::npos);
  const std::string opaque_plan = ExplainText(s, kernel_form, opaque);
  EXPECT_EQ(opaque_plan.find("SemSelect("), std::string::npos);
  EXPECT_NE(opaque_plan.find("SeqScan("), std::string::npos) << opaque_plan;
  auto fused = s->Sql(kernel_form);
  auto filtered = s->Sql(kernel_form, opaque);
  ASSERT_TRUE(fused.ok());
  ASSERT_TRUE(filtered.ok());
  EXPECT_EQ(RenderRows(fused->rows), RenderRows(filtered->rows));
  EXPECT_FALSE(fused->rows.empty());

  // Constant on the LHS: rows whose category's closure holds it.
  const std::string constant_lhs =
      "SELECT BookID FROM Book WHERE 'Autobiography'@English SemEQUAL "
      "Category";
  const std::string lhs_plan = ExplainText(s, constant_lhs);
  EXPECT_EQ(lhs_plan.find("SemSelect("), std::string::npos) << lhs_plan;
  EXPECT_NE(lhs_plan.find("Filter("), std::string::npos) << lhs_plan;
  auto lhs = s->Sql(constant_lhs);
  auto lhs_reference = s->Sql(constant_lhs, opaque);
  ASSERT_TRUE(lhs.ok());
  ASSERT_TRUE(lhs_reference.ok());
  EXPECT_FALSE(lhs->rows.empty());
  EXPECT_EQ(RenderRows(lhs->rows), RenderRows(lhs_reference->rows));

  // A TEXT column: no kernel; both plans fail with the operand-type error.
  const std::string text_column =
      "SELECT BookID FROM Book WHERE Genre SemEQUAL 'History'@English";
  const std::string text_plan = ExplainText(s, text_column);
  EXPECT_EQ(text_plan.find("SemSelect("), std::string::npos) << text_plan;
  EXPECT_NE(text_plan.find("Filter("), std::string::npos) << text_plan;
  auto text = s->Sql(text_column);
  auto text_reference = s->Sql(text_column, opaque);
  ASSERT_FALSE(text.ok());
  ASSERT_FALSE(text_reference.ok());
  EXPECT_EQ(text.status().ToString(), text_reference.status().ToString());
}

TEST(SessionTest, PsiAndOmegaConjunctsRunOnThePsiKernel) {
  // Psi before Omega in kernel choice: `Psi AND Omega` runs the Psi kernel
  // with the Omega conjunct as its residual, with the opaque plan's rows.
  auto db = Database::Open();
  ASSERT_TRUE(db.ok());
  auto session = MakeCategoryBooks(db->get());
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  Session* s = session->get();
  const std::string query =
      "SELECT BookID FROM Book WHERE Category SemEQUAL 'History'@English "
      "AND Category LexEQUAL 'Biografy'@English THRESHOLD 2";
  const std::string plan = ExplainText(s, query);
  EXPECT_NE(plan.find("LexSelect(BOOK.CATEGORY LexEQUAL"), std::string::npos)
      << plan;
  EXPECT_NE(plan.find("residual CATEGORY SemEQUAL 'History'@English"),
            std::string::npos)
      << plan;
  PlannerHints opaque;
  opaque.opaque_multilingual = true;
  auto fused = s->Sql(query);
  auto reference = s->Sql(query, opaque);
  ASSERT_TRUE(fused.ok());
  ASSERT_TRUE(reference.ok());
  EXPECT_FALSE(fused->rows.empty());
  EXPECT_EQ(RenderRows(fused->rows), RenderRows(reference->rows));
}

}  // namespace
}  // namespace mural
