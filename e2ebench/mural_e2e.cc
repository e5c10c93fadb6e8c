// mural_e2e: the end-to-end benchmark of Mural.  It measures what a client
// of the SQL server sees — statements sent over the line protocol on an
// AF_UNIX socket and answered by a Server running default DatabaseOptions
// and SessionOptions — and, in a separate traced run, where that time goes
// layer by layer.
//
//   mural_e2e --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// One run:
//   1. builds, from the seed, the statement stream and the reference views
//      the answers are checked against (not timed);
//   2. kSetupRepeats times: sets an engine up (generate the Books.com
//      catalog of the paper's Fig. 1, load, ANALYZE, build the M-Tree and
//      B+Tree, start the server; setup_s is the median), then drives it from
//      `clients` threads, one connection each, in a closed loop: a warm-up,
//      then an equal share of the measured window;
//   3. checks every answer against the reference, then prints one JSON
//      object as the last line of stdout.
// With --trace 1 one engine is set up and its window is split into an
// untraced and a traced half (the ratio of the two is the tracing
// overhead), and a fixed sample of statements is replayed in-process call
// by call.  Spans go to .bench_out/trace-<workload>-seed<n>.jsonl.

#include <dirent.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/metrics.h"
#include "common/random.h"
#include "datagen/catalog_generator.h"
#include "distance/bounded_myers.h"
#include "e2e_lib.h"
#include "engine/database.h"
#include "phonetic/transformer.h"
#include "server/server.h"
#include "session/session.h"
#include "sql/sql.h"

#ifndef MURAL_E2E_BUILD_TYPE
#define MURAL_E2E_BUILD_TYPE ""
#endif

namespace e2e {
namespace {

using mural::Database;
using mural::LangId;
using mural::Status;
using mural::StatusOr;
using mural::UniText;
using Clock = std::chrono::steady_clock;

// The paper's LexEQUAL threshold (Table 4).
constexpr int kTheta = 3;
// setup_s is the median of this many set-ups (a set-up takes 6-10 s on a
// 4-vCPU box; two keep the benchmark's full schedule of runs within its
// time budget).  Each engine set up serves an equal share of the measured
// window, right after its set-up: one engine per run repeated closely for
// one seed but differed by up to 25% between seeds, and pooling separately
// built engines over a longer stretch of time halved that spread.  The
// traced run, which does not report setup_s, sets up once.
constexpr int kSetupRepeats = 2;
constexpr double kWarmupSeconds = 0.5;
constexpr const char* kOutDir = ".bench_out";

// Dataset scale (Table-4 scale for names).
constexpr size_t kAuthors = 30000;
constexpr size_t kPublishers = 3000;
constexpr size_t kBooks = 60000;
constexpr size_t kBaseSynsets = 5000;
constexpr double kPublisherHomophones = 0.15;
constexpr size_t kSpellings = 1024;
constexpr double kAbsentSpellings = 0.10;
constexpr double kZipfSkew = 1.0;
constexpr size_t kJoinWindow = 20;
constexpr size_t kHotConcepts = 8;
// Author ids given to inserted rows; the load stream and the replay
// sample draw from disjoint ranges.
constexpr int32_t kLoadInsertIdBase = 1000000;
constexpr int32_t kReplayInsertIdBase = 1900000;

double Since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}

uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::string LangName(LangId lang) {
  return mural::LanguageRegistry::Default().NameOf(lang);
}

// ------------------------------------------------------------ workloads

enum class Mix { kLexSearch, kCatalogOltp, kCrosslingReport };

struct WorkloadSpec {
  const char* name;
  Mix mix;
  int clients;
  /// Buffer-pool frames; 0 keeps the DatabaseOptions default.
  size_t pool_pages;
  /// Statements replayed in-process by the traced run.
  size_t replay_sample;
  /// The tail_ms quantile.  Every run must keep at least ten samples
  /// beyond it (a run with fewer fails).
  double tail_quantile;
};

// catalog_oltp_4c runs with about a quarter of the ~1280 pages the
// catalog, its indexes and the taxonomy tables take: the one workload
// larger than the cache.  The tail is p90 rather than p95: across runs on
// a shared 4-vCPU host, catalog_oltp_4c's p95 spread twice as wide as its
// p90.
constexpr WorkloadSpec kWorkloads[] = {
    {"lex_search_1c", Mix::kLexSearch, 1, 0, 32, 0.9},
    {"catalog_oltp_4c", Mix::kCatalogOltp, 4, 320, 256, 0.9},
    {"crossling_report_1c", Mix::kCrosslingReport, 1, 0, 16, 0.9},
};

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

// ---------------------------------------------------------------- world

const std::vector<LangId>& NameLanguages() {
  static const std::vector<LangId> langs = {
      mural::lang::kEnglish, mural::lang::kHindi, mural::lang::kTamil,
      mural::lang::kKannada};
  return langs;
}

mural::TaxonomyGenOptions TaxonomyOptions(uint64_t seed) {
  mural::TaxonomyGenOptions options;
  options.seed = seed;
  options.base_synsets = kBaseSynsets;
  options.languages = {mural::lang::kEnglish, mural::lang::kHindi,
                       mural::lang::kTamil};
  return options;
}

mural::BooksGenOptions BooksOptions(uint64_t seed) {
  mural::BooksGenOptions options;
  options.seed = seed;
  options.num_authors = kAuthors;
  options.num_publishers = kPublishers;
  options.num_books = kBooks;
  options.publisher_author_overlap = kPublisherHomophones;
  options.languages = NameLanguages();
  return options;
}

/// One LexEQUAL probe spelling: a fixed statement text.
struct Spelling {
  UniText name;
  std::set<LangId> langs;  // IN clause; empty = none
  std::string phonemes;
  std::string sql;
};

/// Everything the statement generator and the reference checkers need,
/// derived from the seed independently of the engine's copy of the data.
struct World {
  uint64_t seed = 0;
  mural::BooksDataset data;
  mural::GeneratedTaxonomy taxonomy;
  std::vector<RefName> authors;
  std::vector<RefName> publishers;
  std::unordered_map<int32_t, std::vector<std::string>> books_by_author;
  std::vector<std::vector<mural::SynsetId>> category_senses;
  std::vector<Spelling> spellings;
  std::vector<double> zipf_cdf;
  std::vector<UniText> concepts;
};

RefName MakeRefName(int32_t id, const UniText& name) {
  RefName ref;
  ref.id = id;
  ref.phonemes = mural::PhoneticTransformer::Default().Transform(
      name.text(), name.lang());
  ref.lang = name.lang();
  ref.rendered = name.ToString();
  return ref;
}

std::string LexProbeSql(const UniText& name, const std::set<LangId>& langs) {
  std::string sql =
      "SELECT AuthorID, AName FROM Author WHERE AName LexEQUAL '" +
      name.text() + "'@" + LangName(name.lang());
  if (!langs.empty()) {
    sql += " IN ";
    bool first = true;
    for (const LangId lang : langs) {
      if (!first) sql += ", ";
      sql += LangName(lang);
      first = false;
    }
  }
  return sql;
}

void BuildSpellings(World* world) {
  mural::Rng rng(Mix64(world->seed ^ 0x5eed5u));
  std::unordered_set<std::string> present;
  for (const mural::AuthorRow& a : world->data.authors) {
    present.insert(a.name.text());
  }
  const size_t absent = static_cast<size_t>(
      std::lround(kAbsentSpellings * static_cast<double>(kSpellings)));
  std::vector<size_t> picks(world->data.authors.size());
  for (size_t i = 0; i < picks.size(); ++i) picks[i] = i;
  rng.Shuffle(&picks);
  for (size_t s = 0; s < kSpellings; ++s) {
    Spelling sp;
    if (s < kSpellings - absent) {
      sp.name = world->data.authors[picks[s]].name;
    } else {
      // A name the table does not hold (it may still sound like some).
      std::string text;
      LangId lang = mural::lang::kEnglish;
      do {
        lang = NameLanguages()[rng.Uniform(NameLanguages().size())];
        text = mural::RenderNameInLanguage(mural::RandomBaseName(&rng), lang,
                                           &rng, 0.2);
      } while (present.count(text) > 0);
      sp.name = UniText(text, lang);
    }
    if (rng.Bernoulli(0.5)) {
      const size_t n = 1 + rng.Uniform(3);
      while (sp.langs.size() < n) {
        sp.langs.insert(NameLanguages()[rng.Uniform(NameLanguages().size())]);
      }
    }
    sp.phonemes = mural::PhoneticTransformer::Default().Transform(
        sp.name.text(), sp.name.lang());
    sp.sql = LexProbeSql(sp.name, sp.langs);
    world->spellings.push_back(std::move(sp));
  }
  // The Zipf ranks are a shuffle of the spellings, so the absent names
  // are spread over hot and cold ranks alike.
  rng.Shuffle(&world->spellings);
  double total = 0;
  for (size_t r = 0; r < kSpellings; ++r) {
    total += 1.0 / std::pow(static_cast<double>(r + 1), kZipfSkew);
    world->zipf_cdf.push_back(total);
  }
  for (double& c : world->zipf_cdf) c /= total;
}

void BuildConcepts(World* world) {
  const mural::Taxonomy& tax = *world->taxonomy.taxonomy;
  std::unordered_map<mural::SynsetId, size_t> base_index;
  for (size_t i = 0; i < world->taxonomy.base_synsets.size(); ++i) {
    base_index[world->taxonomy.base_synsets[i]] = i;
  }
  // Leaves up to ~1k-synset closures, on a doubling ladder.
  std::vector<mural::SynsetId> roots;
  std::set<mural::SynsetId> seen;
  for (size_t target = 1; target <= 1024; target *= 2) {
    for (const mural::SynsetId id : mural::FindRootsWithClosureSize(
             tax, world->taxonomy.base_synsets, target, 4)) {
      if (seen.insert(id).second) roots.push_back(id);
    }
  }
  mural::Rng rng(Mix64(world->seed ^ 0xc0c0u));
  rng.Shuffle(&roots);
  for (const mural::SynsetId root : roots) {
    mural::SynsetId pick = root;
    const auto it = base_index.find(root);
    if (it != base_index.end()) {
      const std::vector<mural::SynsetId>& replicas =
          world->taxonomy.replicas[it->second];
      const size_t choice = rng.Uniform(replicas.size() + 1);
      if (choice < replicas.size()) pick = replicas[choice];
    }
    const mural::Synset& s = tax.Get(pick);
    world->concepts.push_back(UniText(s.lemma, s.lang));
  }
}

std::unique_ptr<World> BuildWorld(uint64_t seed) {
  auto world = std::make_unique<World>();
  world->seed = seed;
  world->taxonomy = mural::GenerateTaxonomy(TaxonomyOptions(seed));
  world->data = mural::GenerateBooks(BooksOptions(seed), world->taxonomy);
  for (const mural::AuthorRow& a : world->data.authors) {
    world->authors.push_back(MakeRefName(a.author_id, a.name));
  }
  for (const mural::PublisherRow& p : world->data.publishers) {
    world->publishers.push_back(MakeRefName(p.publisher_id, p.name));
  }
  for (const mural::BookRow& b : world->data.books) {
    world->books_by_author[b.author_id].push_back(
        std::to_string(b.book_id) + " | " + b.title.ToString());
    world->category_senses.push_back(
        world->taxonomy.taxonomy->Lookup(b.category));
  }
  BuildSpellings(world.get());
  BuildConcepts(world.get());
  return world;
}

// ----------------------------------------------------------- statements

enum class Kind { kLexProbe, kPointLookup, kInsert, kSemCount, kJoinWindow };

struct Stmt {
  Kind kind = Kind::kLexProbe;
  std::string sql;
  size_t arg = 0;        // spelling, author key, concept or window start
  int32_t insert_id = 0;
  UniText insert_name;
};

/// Statement `i` of stream `stream` (0 = load, 1 = replay sample): a pure
/// function of the seed, so any statement can be regenerated to check it.
Stmt MakeStmt(const World& world, Mix mix, uint64_t stream, uint64_t i) {
  mural::Rng rng(Mix64(Mix64(world.seed * 31 + stream) ^ i));
  Stmt st;
  switch (mix) {
    case Mix::kLexSearch: {
      const double u = rng.NextDouble();
      const size_t rank = static_cast<size_t>(
          std::lower_bound(world.zipf_cdf.begin(), world.zipf_cdf.end(), u) -
          world.zipf_cdf.begin());
      st.kind = Kind::kLexProbe;
      st.arg = std::min(rank, world.spellings.size() - 1);
      st.sql = world.spellings[st.arg].sql;
      break;
    }
    case Mix::kCatalogOltp: {
      if (i % 2 == 1) {
        st.kind = Kind::kInsert;
        st.insert_id = static_cast<int32_t>(
            (stream == 0 ? kLoadInsertIdBase : kReplayInsertIdBase) + i / 2);
        const LangId lang =
            NameLanguages()[rng.Uniform(NameLanguages().size())];
        st.insert_name = UniText(
            mural::RenderNameInLanguage(mural::RandomBaseName(&rng), lang,
                                        &rng, 0.2),
            lang);
        st.sql = "INSERT INTO Author VALUES (" +
                 std::to_string(st.insert_id) + ", '" +
                 st.insert_name.text() + "'@" + LangName(lang) + ")";
      } else {
        // Keys walk a permutation of the author ids, so no statement
        // text repeats before every author was looked up once.
        const uint64_t n = world.data.authors.size();
        st.kind = Kind::kPointLookup;
        st.arg = static_cast<size_t>(
            (7919 * (i / 2 + stream * 7) + world.seed * 104729) % n);
        st.sql = "SELECT BookID, Title FROM Book WHERE AuthorID = " +
                 std::to_string(st.arg);
      }
      break;
    }
    case Mix::kCrosslingReport: {
      if (i % 2 == 0) {
        st.kind = Kind::kSemCount;
        const size_t hot = std::min(kHotConcepts, world.concepts.size());
        st.arg = rng.Bernoulli(0.5) ? rng.Uniform(hot)
                                    : rng.Uniform(world.concepts.size());
        const UniText& c = world.concepts[st.arg];
        st.sql = "SELECT count(*) FROM Book WHERE Category SemEQUAL '" +
                 c.text() + "'@" + LangName(c.lang());
      } else {
        st.kind = Kind::kJoinWindow;
        st.arg = kJoinWindow *
                 rng.Uniform(world.publishers.size() / kJoinWindow);
        st.sql =
            "SELECT A.AuthorID, P.PublisherID FROM Author A, Publisher P "
            "WHERE A.AName LexEQUAL P.PName AND P.PublisherID >= " +
            std::to_string(st.arg) + " AND P.PublisherID < " +
            std::to_string(st.arg + kJoinWindow);
      }
      break;
    }
  }
  return st;
}

/// Expected data lines of every statement, memoized per statement text.
class Reference {
 public:
  explicit Reference(const World& world) : world_(world) {}

  /// The expected reply of a statement: row count and RowDigest.
  struct Expected {
    uint64_t rows = 0;
    uint64_t digest = 0;
  };

  /// Computes the references `stmts` still lack on all cores.
  void Prefill(const std::vector<Stmt>& stmts) {
    std::vector<const Stmt*> todo;
    std::unordered_set<std::string> queued;
    for (const Stmt& st : stmts) {
      if (memo_.count(st.sql) == 0 && queued.insert(st.sql).second) {
        todo.push_back(&st);
      }
    }
    std::vector<Expected> rows(todo.size());
    std::atomic<size_t> next{0};
    std::vector<std::thread> workers;
    const unsigned n = std::max(1u, std::thread::hardware_concurrency());
    for (unsigned w = 0; w < n; ++w) {
      workers.emplace_back([&] {
        for (size_t k = next.fetch_add(1); k < todo.size();
             k = next.fetch_add(1)) {
          rows[k] = Digest(Compute(*todo[k]));
        }
      });
    }
    for (std::thread& t : workers) t.join();
    for (size_t k = 0; k < todo.size(); ++k) {
      memo_.emplace(todo[k]->sql, rows[k]);
    }
  }

  const Expected& Of(const Stmt& st) {
    auto it = memo_.find(st.sql);
    if (it != memo_.end()) return it->second;
    return memo_.emplace(st.sql, Digest(Compute(st))).first->second;
  }

 private:
  static Expected Digest(const std::vector<std::string>& rows) {
    return Expected{rows.size(), RowDigest(rows)};
  }

  std::vector<std::string> Compute(const Stmt& st) const {
    switch (st.kind) {
      case Kind::kLexProbe: {
        const Spelling& sp = world_.spellings[st.arg];
        return LexProbeReference(sp.phonemes, kTheta, sp.langs,
                                 world_.authors);
      }
      case Kind::kPointLookup: {
        const auto found =
            world_.books_by_author.find(static_cast<int32_t>(st.arg));
        if (found == world_.books_by_author.end()) return {};
        return found->second;
      }
      case Kind::kInsert:
        return {"1"};
      case Kind::kSemCount:
        return {std::to_string(SemCountReference(*world_.taxonomy.taxonomy,
                                                 world_.concepts[st.arg],
                                                 world_.category_senses))};
      case Kind::kJoinWindow: {
        const std::vector<RefName> window(
            world_.publishers.begin() + static_cast<long>(st.arg),
            world_.publishers.begin() +
                static_cast<long>(st.arg + kJoinWindow));
        return LexJoinReference(world_.authors, window, kTheta);
      }
    }
    return {};
  }

  const World& world_;
  std::unordered_map<std::string, Expected> memo_;
};

// --------------------------------------------------------------- engine

struct Engine {
  std::unique_ptr<Database> db;
  // Declared after db, so it is destroyed first: the server stops and
  // joins every connection task while the database is still alive.
  std::unique_ptr<mural::Server> server;
  std::string socket_path;
};

Status SqlOk(mural::Session* session, const std::string& sql) {
  return session->Sql(sql).status();
}

/// Generate, load, ANALYZE, index and serve: everything setup_s times.
StatusOr<std::unique_ptr<Engine>> SetUp(const WorkloadSpec& spec,
                                        uint64_t seed,
                                        const std::string& socket_path) {
  mural::GeneratedTaxonomy taxonomy =
      mural::GenerateTaxonomy(TaxonomyOptions(seed));
  const mural::BooksDataset data =
      mural::GenerateBooks(BooksOptions(seed), taxonomy);

  mural::DatabaseOptions options;
  if (spec.pool_pages > 0) options.buffer_pool_pages = spec.pool_pages;
  auto engine = std::make_unique<Engine>();
  MURAL_ASSIGN_OR_RETURN(engine->db, Database::Open(options));
  Database* db = engine->db.get();
  {
    MURAL_ASSIGN_OR_RETURN(std::unique_ptr<mural::Session> admin,
                           db->Connect());
    MURAL_RETURN_IF_ERROR(SqlOk(admin.get(),
                                "CREATE TABLE Author (AuthorID INT, AName "
                                "UNITEXT MATERIALIZE PHONEMES)"));
    MURAL_RETURN_IF_ERROR(SqlOk(admin.get(),
                                "CREATE TABLE Publisher (PublisherID INT, "
                                "PName UNITEXT MATERIALIZE PHONEMES)"));
    MURAL_RETURN_IF_ERROR(
        SqlOk(admin.get(),
              "CREATE TABLE Book (BookID INT, AuthorID INT, PublisherID INT,"
              " Title UNITEXT, Category UNITEXT)"));
    for (const mural::AuthorRow& a : data.authors) {
      MURAL_RETURN_IF_ERROR(db->Insert(
          "Author", {mural::Value::Int32(a.author_id),
                     mural::Value::Uni(a.name)}));
    }
    for (const mural::PublisherRow& p : data.publishers) {
      MURAL_RETURN_IF_ERROR(db->Insert(
          "Publisher", {mural::Value::Int32(p.publisher_id),
                        mural::Value::Uni(p.name)}));
    }
    for (const mural::BookRow& b : data.books) {
      MURAL_RETURN_IF_ERROR(db->Insert(
          "Book",
          {mural::Value::Int32(b.book_id), mural::Value::Int32(b.author_id),
           mural::Value::Int32(b.publisher_id), mural::Value::Uni(b.title),
           mural::Value::Uni(b.category)}));
    }
    for (const char* table : {"Author", "Publisher", "Book"}) {
      MURAL_RETURN_IF_ERROR(SqlOk(admin.get(), std::string("ANALYZE ") +
                                                   table));
    }
    MURAL_RETURN_IF_ERROR(db->LoadTaxonomy(std::move(taxonomy.taxonomy)));
    MURAL_RETURN_IF_ERROR(SqlOk(
        admin.get(), "CREATE INDEX author_mtree ON Author(AName) USING MTREE"));
    MURAL_RETURN_IF_ERROR(SqlOk(
        admin.get(), "CREATE INDEX book_author ON Book(AuthorID) USING BTREE"));
  }
  mural::ServerOptions server_options;
  server_options.unix_path = socket_path;
  server_options.session_defaults = db->session_defaults();
  MURAL_ASSIGN_OR_RETURN(engine->server,
                         mural::Server::Start(db, server_options));
  engine->socket_path = socket_path;
  return engine;
}

// --------------------------------------------------------------- client

/// One line-protocol connection.
class Connection {
 public:
  Connection() = default;
  ~Connection() {
    if (fd_ >= 0) ::close(fd_);
  }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  bool Open(const std::string& path) {
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd_ < 0) return false;
    sockaddr_un addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sun_family = AF_UNIX;
    if (path.size() >= sizeof(addr.sun_path)) return false;
    std::memcpy(addr.sun_path, path.data(), path.size());
    return ::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                     sizeof(addr)) == 0;
  }

  /// Sends one statement and reads its whole reply.  False when the
  /// connection broke (the reply is then an error).
  bool RoundTrip(const std::string& sql, Reply* reply) {
    *reply = Reply();
    const std::string line = sql + "\n";
    size_t off = 0;
    while (off < line.size()) {
      const ssize_t w = ::send(fd_, line.data() + off, line.size() - off,
                               MSG_NOSIGNAL);
      if (w < 0 && errno == EINTR) continue;
      if (w <= 0) return Broken(reply);
      off += static_cast<size_t>(w);
    }
    std::string got;
    while (true) {
      if (!ReadLine(&got)) return Broken(reply);
      if (ConsumeLine(got, reply)) return true;
    }
  }

 private:
  bool ReadLine(std::string* line) {
    while (true) {
      const size_t nl = buf_.find('\n', scan_);
      if (nl != std::string::npos) {
        line->assign(buf_, scan_, nl - scan_);
        scan_ = nl + 1;
        if (scan_ == buf_.size()) {
          buf_.clear();
          scan_ = 0;
        }
        return true;
      }
      char chunk[16384];
      const ssize_t r = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (r < 0 && errno == EINTR) continue;
      if (r <= 0) return false;
      buf_.append(chunk, static_cast<size_t>(r));
    }
  }

  static bool Broken(Reply* reply) {
    reply->ok = false;
    reply->error = "connection lost";
    return false;
  }

  int fd_ = -1;
  std::string buf_;
  size_t scan_ = 0;
};

// --------------------------------------------------------------- tracing

/// One in-memory span; spans of one statement share `trace`.
struct Span {
  std::string name;
  uint64_t trace = 0;
  uint64_t id = 0;
  uint64_t parent = 0;  // 0 = root
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
};

class SpanLog {
 public:
  /// Records a finished span and returns its id.
  uint64_t Add(std::string name, uint64_t trace, uint64_t parent,
               uint64_t start_ns, uint64_t end_ns) {
    std::lock_guard<std::mutex> lock(mu_);
    const uint64_t id = spans_.size() + 1;
    spans_.push_back(Span{std::move(name), trace, id, parent, start_ns,
                          end_ns});
    return id;
  }

  /// Closes a span recorded with end 0 once its children are logged.
  void End(uint64_t id, uint64_t end_ns) {
    std::lock_guard<std::mutex> lock(mu_);
    spans_[id - 1].end_ns = end_ns;
  }

  bool WriteJsonLines(const std::string& path) const {
    std::ofstream out(path);
    if (!out) return false;
    std::lock_guard<std::mutex> lock(mu_);
    for (const Span& s : spans_) {
      out << "{\"name\":\"" << s.name << "\",\"trace\":" << s.trace
          << ",\"id\":" << s.id << ",\"parent\":" << s.parent
          << ",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
          << "}\n";
    }
    return static_cast<bool>(out);
  }

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// Engine counters read from MetricsRegistry, as deltas over a phase.
struct Counters {
  static constexpr const char* kNames[] = {
      "engine.plan_cache.hits",        "engine.plan_cache.misses",
      "exec.morsels_run",              "phonetic.phoneme_cache.hits",
      "phonetic.phoneme_cache.misses", "storage.buffer_pool.hits",
      "storage.buffer_pool.misses",    "storage.buffer_pool.fetch_nanos",
      "storage.buffer_pool.evictions", "storage.buffer_pool.dirty_writebacks",
      "index.btree.probes",            "index.mtree.probes",
      "taxonomy.closure_cache.hits",   "taxonomy.closure_cache.misses",
  };
  std::map<std::string, double> values;

  static Counters Read() {
    Counters c;
    for (const char* name : kNames) {
      c.values[name] = static_cast<double>(
          mural::MetricsRegistry::Global().GetCounter(name)->value());
    }
    return c;
  }
  Counters Minus(const Counters& before) const {
    Counters d = *this;
    for (auto& [name, v] : d.values) v -= before.values.at(name);
    return d;
  }
  double operator[](const std::string& name) const { return values.at(name); }
};

double Frac(double part, double whole) { return whole > 0 ? part / whole : 0; }

// ------------------------------------------------------------ load loop

/// One completed statement.
struct Sample {
  uint64_t index = 0;
  float latency_ms = 0;
  Outcome outcome;
};

struct PhaseResult {
  std::vector<Sample> samples;
  double elapsed_s = 0;
  Counters counters;  // deltas over the phase

  /// Pools another measured window into this one.
  void Append(PhaseResult other) {
    for (Sample& s : other.samples) samples.push_back(std::move(s));
    elapsed_s += other.elapsed_s;
    for (const auto& [name, v] : other.counters.values) {
      counters.values[name] += v;
    }
  }
};

/// Statement numbering, shared by every Load of a run so the streams
/// continue across engines.
struct Streams {
  std::atomic<uint64_t> shared{0};
  std::atomic<uint64_t> writes{0};
};

/// Shared state of the closed-loop clients across phases.
class Load {
 public:
  Load(const World& world, const WorkloadSpec& spec, Streams* streams)
      : world_(world), spec_(spec), streams_(streams) {}

  bool Connect(const std::string& path) {
    for (int c = 0; c < spec_.clients; ++c) {
      conns_.push_back(std::make_unique<Connection>());
      if (!conns_.back()->Open(path)) return false;
      Reply reply;
      if (!conns_.back()->RoundTrip(
              "SET LEXEQUAL_THRESHOLD = " + std::to_string(kTheta),
              &reply) ||
          !reply.ok) {
        return false;
      }
    }
    return true;
  }

  /// Runs every client in a closed loop for `seconds`: a client sends its
  /// next statement only after the reply to the previous one.
  PhaseResult Run(double seconds, SpanLog* spans) {
    const Counters before = Counters::Read();
    const Clock::time_point start = Clock::now();
    const Clock::time_point deadline =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(seconds));
    std::vector<std::vector<Sample>> per_client(conns_.size());
    // Round-trip spans as (statement, start, end), kept per client and
    // logged after the window so tracing adds no lock to the loop.
    std::vector<std::vector<std::array<uint64_t, 3>>> round_trips(
        conns_.size());
    std::vector<std::thread> threads;
    for (size_t c = 0; c < conns_.size(); ++c) {
      threads.emplace_back([&, c] {
        Connection* conn = conns_[c].get();
        while (Clock::now() < deadline) {
          const uint64_t i = NextIndex(c);
          const Stmt st = MakeStmt(world_, spec_.mix, 0, i);
          Reply reply;
          const uint64_t t0 = NowNs();
          conn->RoundTrip(st.sql, &reply);
          const uint64_t t1 = NowNs();
          if (!reply.ok && errors_logged_.fetch_add(1) < 5) {
            std::fprintf(stderr, "error: %s -> %s\n", st.sql.c_str(),
                         reply.error.c_str());
          }
          Sample sample;
          sample.index = i;
          sample.outcome = Summarize(reply);
          sample.latency_ms = static_cast<float>(t1 - t0) * 1e-6f;
          if (spans != nullptr) round_trips[c].push_back({i, t0, t1});
          per_client[c].push_back(std::move(sample));
        }
      });
    }
    for (std::thread& t : threads) t.join();
    PhaseResult result;
    result.elapsed_s = Since(start);
    result.counters = Counters::Read().Minus(before);
    for (const auto& client : round_trips) {
      for (const auto& [i, t0, t1] : client) {
        spans->Add("client.round_trip", i, 0, t0, t1);
      }
    }
    for (std::vector<Sample>& v : per_client) {
      for (Sample& s : v) result.samples.push_back(std::move(s));
    }
    return result;
  }

  Connection* first() { return conns_.front().get(); }

 private:
  /// The engine takes one writer per heap at a time (storage/heap_file.h)
  /// and the server does not serialize DML, so catalog_oltp_4c gives its
  /// first connection every insert (the odd statement numbers) and the
  /// others every lookup (the even ones).
  uint64_t NextIndex(size_t client) {
    if (spec_.mix != Mix::kCatalogOltp) return streams_->shared.fetch_add(1);
    if (client == 0) return 2 * streams_->writes.fetch_add(1) + 1;
    return 2 * streams_->shared.fetch_add(1);
  }

  const World& world_;
  const WorkloadSpec& spec_;
  Streams* const streams_;
  std::vector<std::unique_ptr<Connection>> conns_;
  std::atomic<int> errors_logged_{0};
};

// ------------------------------------------------------------- checking

struct Verdict {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t inserted = 0;  // successful inserts, for the final count check
  int reported = 0;

  void Record(bool ok, const std::string& what) {
    ++attempted;
    if (ok) return;
    ++failed;
    if (reported++ < 5) std::fprintf(stderr, "mismatch: %s\n", what.c_str());
  }
};

void CheckReply(const Stmt& st, const Outcome& got, Reference* reference,
                Verdict* verdict) {
  if (!got.ok) {
    verdict->Record(false, st.sql + " -> error reply");
    return;
  }
  const Reference::Expected& want = reference->Of(st);
  const bool ok = got.rows_reported == got.rows && got.rows == want.rows &&
                  got.digest == want.digest;
  if (ok && st.kind == Kind::kInsert) ++verdict->inserted;
  verdict->Record(ok, st.sql + " -> " + std::to_string(got.rows) +
                          " rows, expected " + std::to_string(want.rows) +
                          (got.rows == want.rows ? " (other rows)" : ""));
}

void CheckPhase(const World& world, Mix mix, const PhaseResult& phase,
                Reference* reference, Verdict* verdict) {
  // In chunks, so a fast workload's statements are never all in memory.
  constexpr size_t kChunk = 8192;
  for (size_t begin = 0; begin < phase.samples.size(); begin += kChunk) {
    const size_t end = std::min(phase.samples.size(), begin + kChunk);
    std::vector<Stmt> stmts;
    for (size_t k = begin; k < end; ++k) {
      stmts.push_back(MakeStmt(world, mix, 0, phase.samples[k].index));
    }
    reference->Prefill(stmts);
    for (size_t k = begin; k < end; ++k) {
      CheckReply(stmts[k - begin], phase.samples[k].outcome, reference,
                 verdict);
    }
  }
}

// ------------------------------------------------------ resource sampler

/// Samples the process thread count until stopped.
class ThreadSampler {
 public:
  ThreadSampler() : thread_([this] { Loop(); }) {}
  ~ThreadSampler() { Stop(); }
  ThreadSampler(const ThreadSampler&) = delete;
  ThreadSampler& operator=(const ThreadSampler&) = delete;

  void Stop() {
    stop_.store(true);
    if (thread_.joinable()) thread_.join();
  }
  int peak() const { return peak_.load(); }

  static int CountThreads() {
    DIR* dir = ::opendir("/proc/self/task");
    if (dir == nullptr) return 0;
    int n = 0;
    while (const dirent* e = ::readdir(dir)) {
      if (e->d_name[0] != '.') ++n;
    }
    ::closedir(dir);
    return n;
  }

 private:
  void Loop() {
    while (!stop_.load()) {
      const int n = CountThreads();
      int seen = peak_.load();
      while (n > seen && !peak_.compare_exchange_weak(seen, n)) {
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  }

  std::atomic<bool> stop_{false};
  std::atomic<int> peak_{0};
  std::thread thread_;  // last: starts after the members it reads
};

double PeakRssMb() {
  rusage usage;
  std::memset(&usage, 0, sizeof(usage));
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

// ---------------------------------------------------------------- report

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string FormatNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

void PrintResult(bool correct, const Verdict& verdict,
                 const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("%-40s %14s %s\n", m.name.c_str(),
                FormatNumber(m.value).c_str(), m.unit.c_str());
  }
  std::string json = std::string("{\"correct\": ") +
                     (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(verdict.attempted) +
                     ", \"failed\": " + std::to_string(verdict.failed) +
                     ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) json += ", ";
    json += "\"" + metrics[i].name + "\": {\"value\": " +
            FormatNumber(metrics[i].value) + ", \"unit\": \"" +
            metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

std::vector<double> Latencies(const PhaseResult& phase) {
  std::vector<double> out;
  out.reserve(phase.samples.size());
  for (const Sample& s : phase.samples) out.push_back(s.latency_ms);
  return out;
}

/// Share of the statements whose text was already sent earlier in the
/// run (warm-up included).
double RepeatTextFrac(const World& world, Mix mix,
                      const std::vector<const PhaseResult*>& phases,
                      size_t measured_from) {
  std::unordered_set<std::string> seen;
  size_t repeats = 0, total = 0;
  for (size_t p = 0; p < phases.size(); ++p) {
    std::vector<uint64_t> order;
    for (const Sample& s : phases[p]->samples) order.push_back(s.index);
    std::sort(order.begin(), order.end());
    for (const uint64_t i : order) {
      const bool fresh = seen.insert(MakeStmt(world, mix, 0, i).sql).second;
      if (p >= measured_from) {
        ++total;
        if (!fresh) ++repeats;
      }
    }
  }
  return Frac(static_cast<double>(repeats), static_cast<double>(total));
}

// --------------------------------------------------------- traced replay

/// Per-call timings of the in-process replay of a statement sample.  The
/// single-call costs are reported as medians, the per-query ones as means
/// over every replayed statement.
struct ReplayTotals {
  std::vector<double> parse_us, bind_us, plan_us, execute_ms, sql_overhead_us,
      wire_us, g2p_us, closure_us, insert_us, kernel_ms;
  double predicate_evals = 0, rows_out = 0, distance_calls = 0,
         distance_cells = 0;
  size_t statements = 0;
};

double UsSince(uint64_t t0) { return static_cast<double>(NowNs() - t0) * 1e-3; }

/// Times the matcher alone over the stored phonemes the statement scans.
double KernelMs(const World& world, const Stmt& st) {
  std::vector<std::string> patterns;
  if (st.kind == Kind::kLexProbe) {
    patterns.push_back(world.spellings[st.arg].phonemes);
  } else if (st.kind == Kind::kJoinWindow) {
    for (size_t p = st.arg; p < st.arg + kJoinWindow; ++p) {
      patterns.push_back(world.publishers[p].phonemes);
    }
  } else {
    return 0;
  }
  mural::DistanceStats stats;
  const uint64_t t0 = NowNs();
  for (const std::string& pattern : patterns) {
    mural::BoundedMyersMatcher matcher(pattern, kTheta);
    for (const RefName& a : world.authors) matcher.Distance(a.phonemes, &stats);
  }
  return static_cast<double>(NowNs() - t0) * 1e-6;
}

Status Replay(const World& world, const WorkloadSpec& spec, Engine* engine,
              Connection* wire, SpanLog* spans, Reference* reference,
              Verdict* verdict, ReplayTotals* totals) {
  Database* db = engine->db.get();
  MURAL_ASSIGN_OR_RETURN(std::unique_ptr<mural::Session> session,
                         db->Connect());
  MURAL_RETURN_IF_ERROR(session->Set("lexequal_threshold", kTheta));
  mural::Counter* cache_hits =
      mural::MetricsRegistry::Global().GetCounter("engine.plan_cache.hits");
  const mural::PhoneticTransformer& g2p =
      mural::PhoneticTransformer::Default();
  const uint64_t trace_base = uint64_t{1} << 40;
  for (size_t j = 0; j < spec.replay_sample; ++j) {
    const Stmt st = MakeStmt(world, spec.mix, 1, j);
    const uint64_t trace = trace_base + j;
    const uint64_t root =
        spans->Add("replay.statement", trace, 0, NowNs(), 0);
    ++totals->statements;

    // The wire round trip, then the same statement through Session::Sql,
    // both after one untimed run that fills the caches either would find
    // warm under load.  An INSERT is not repeated: it is sent once over
    // the wire, and Session::Sql inserts a second copy under another id.
    if (st.kind != Kind::kInsert) {
      MURAL_RETURN_IF_ERROR(session->Sql(st.sql).status());
    }
    Reply reply;
    uint64_t t0 = NowNs();
    wire->RoundTrip(st.sql, &reply);
    const double wire_rt_us = UsSince(t0);
    spans->Add("client.round_trip", trace, root, t0, NowNs());
    if (!reply.ok) {
      std::fprintf(stderr, "error: %s -> %s\n", st.sql.c_str(),
                   reply.error.c_str());
    }
    CheckReply(st, Summarize(reply), reference, verdict);

    Stmt local = st;
    if (st.kind == Kind::kInsert) {
      local.insert_id = st.insert_id + 50000;
      local.sql = "INSERT INTO Author VALUES (" +
                  std::to_string(local.insert_id) + ", '" +
                  st.insert_name.text() + "'@" +
                  LangName(st.insert_name.lang()) + ")";
    }
    const uint64_t hits_before = cache_hits->value();
    t0 = NowNs();
    StatusOr<mural::QueryResult> sql_result = session->Sql(local.sql);
    const double sql_us = UsSince(t0);
    spans->Add("Session::Sql", trace, root, t0, NowNs());
    const bool cache_hit = cache_hits->value() > hits_before;
    Reply local_reply;
    local_reply.ok = sql_result.ok();
    if (sql_result.ok()) {
      local_reply.rows_reported = sql_result->rows.size();
      for (const mural::Row& row : sql_result->rows) {
        std::string line;
        for (size_t c = 0; c < row.size(); ++c) {
          if (c > 0) line += " | ";
          line += row[c].ToString();
        }
        local_reply.rows.push_back(std::move(line));
      }
    } else {
      std::fprintf(stderr, "error: %s -> %s\n", local.sql.c_str(),
                   sql_result.status().ToString().c_str());
    }
    CheckReply(local, Summarize(local_reply), reference, verdict);
    totals->wire_us.push_back(wire_rt_us - sql_us);

    t0 = NowNs();
    StatusOr<mural::sql::Statement> parsed = mural::sql::Parse(local.sql);
    const double parse_us = UsSince(t0);
    spans->Add("sql::Parse", trace, root, t0, NowNs());
    MURAL_RETURN_IF_ERROR(parsed.status());
    totals->parse_us.push_back(parse_us);

    if (st.kind == Kind::kInsert) {
      UniText name = st.insert_name;
      t0 = NowNs();
      g2p.Materialize(&name);
      totals->g2p_us.push_back(UsSince(t0));
      spans->Add("PhoneticTransformer::Materialize", trace, root, t0,
                 NowNs());
      t0 = NowNs();
      MURAL_RETURN_IF_ERROR(db->Insert(
          "Author", {mural::Value::Int32(local.insert_id + 50000),
                     mural::Value::Uni(st.insert_name)}));
      const double insert_us = UsSince(t0);
      spans->Add("Database::Insert", trace, root, t0, NowNs());
      verdict->inserted += 1;
      totals->insert_us.push_back(insert_us);
      totals->sql_overhead_us.push_back(sql_us - parse_us - insert_us);
      spans->End(root, NowNs());
      continue;
    }

    t0 = NowNs();
    StatusOr<mural::LogicalPtr> bound =
        mural::sql::Bind(*parsed, db->catalog());
    const double bind_us = UsSince(t0);
    spans->Add("sql::Bind", trace, root, t0, NowNs());
    MURAL_RETURN_IF_ERROR(bound.status());
    totals->bind_us.push_back(bind_us);

    t0 = NowNs();
    StatusOr<mural::PhysicalPlan> planned = session->PlanQuery(*bound);
    const double plan_us = UsSince(t0);
    spans->Add("Session::PlanQuery", trace, root, t0, NowNs());
    MURAL_RETURN_IF_ERROR(planned.status());
    totals->plan_us.push_back(plan_us);

    t0 = NowNs();
    StatusOr<mural::QueryResult> queried = session->Query(*bound);
    const double query_us = UsSince(t0);
    spans->Add("Session::Query", trace, root, t0, NowNs());
    MURAL_RETURN_IF_ERROR(queried.status());
    totals->execute_ms.push_back((query_us - plan_us) * 1e-3);
    totals->sql_overhead_us.push_back(sql_us - parse_us -
                                      (cache_hit ? 0 : bind_us) - query_us);
    const mural::ExecStats& stats = queried->exec_stats;
    totals->predicate_evals += static_cast<double>(stats.predicate_evals);
    totals->rows_out += static_cast<double>(queried->rows.size());
    totals->distance_calls += static_cast<double>(stats.distance.calls);
    totals->distance_cells += static_cast<double>(stats.distance.cells);

    if (st.kind == Kind::kLexProbe) {
      UniText probe(world.spellings[st.arg].name.text(),
                    world.spellings[st.arg].name.lang());
      t0 = NowNs();
      g2p.Materialize(&probe);
      totals->g2p_us.push_back(UsSince(t0));
      spans->Add("PhoneticTransformer::Materialize", trace, root, t0,
                 NowNs());
    }
    if (st.kind == Kind::kLexProbe || st.kind == Kind::kJoinWindow) {
      t0 = NowNs();
      totals->kernel_ms.push_back(KernelMs(world, st));
      spans->Add("BoundedMyersMatcher::Distance", trace, root, t0,
                 NowNs());
    }
    if (st.kind == Kind::kSemCount) {
      const mural::Taxonomy& tax = *world.taxonomy.taxonomy;
      t0 = NowNs();
      size_t members = 0;
      for (const mural::SynsetId root :
           tax.Lookup(world.concepts[st.arg])) {
        members += tax.TransitiveClosure(root).size();
      }
      totals->closure_us.push_back(UsSince(t0));
      spans->Add("Taxonomy::TransitiveClosure", trace, root, t0,
                 NowNs());
      if (members == 0) std::fprintf(stderr, "empty closure: %s\n",
                                     st.sql.c_str());
    }
    spans->End(root, NowNs());
  }
  return Status::OK();
}

/// Mean over every replayed statement, statements without the call
/// counting as zero.
double PerStatement(const std::vector<double>& values, size_t statements) {
  double sum = 0;
  for (const double v : values) sum += v;
  return Frac(sum, static_cast<double>(statements));
}

// ------------------------------------------------------------------ main

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int a = 1; a + 1 < argc; a += 2) {
    const std::string key = argv[a];
    const std::string value = argv[a + 1];
    char* end = nullptr;
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return false;
    } else if (key == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(args->seconds > 0)) return false;
    } else if (key == "--trace") {
      if (value != "0" && value != "1") return false;
      args->trace = value == "1";
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty();
}

bool OptimizedBuild() {
#ifdef __OPTIMIZE__
  const std::string type = MURAL_E2E_BUILD_TYPE;
  return type == "Release" || type == "RelWithDebInfo";
#else
  return false;
#endif
}

int Run(const Args& args) {
  const WorkloadSpec* spec = FindWorkload(args.workload);
  if (spec == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  if (!OptimizedBuild()) {
    std::fprintf(stderr,
                 "refusing to measure: build type '%s' is not optimized\n",
                 MURAL_E2E_BUILD_TYPE);
    return 2;
  }
  std::filesystem::create_directories(kOutDir);
  const std::string socket_path =
      std::string(kOutDir) + "/e2e-" + std::to_string(::getpid()) + ".sock";
  const unsigned nproc = std::thread::hardware_concurrency();
  std::printf("workload %s: %d client(s), closed loop; seed %llu; "
              "%.0f s measured; trace %d; nproc %u; build %s\n",
              spec->name, spec->clients,
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0, nproc, MURAL_E2E_BUILD_TYPE);

  // The statement stream and its references come from the seed alone;
  // building them is not part of any set-up.
  const std::unique_ptr<World> world = BuildWorld(args.seed);
  Reference reference(*world);
  Verdict verdict;
  SpanLog spans;
  ReplayTotals replay;
  Streams streams;
  PhaseResult warmups, plain, traced;
  std::vector<double> setup_s;
  double data_pages = 0, pool_pages = 0;

  ThreadSampler sampler;
  const int engines = args.trace ? 1 : kSetupRepeats;
  for (int e = 0; e < engines; ++e) {
    const Clock::time_point t0 = Clock::now();
    StatusOr<std::unique_ptr<Engine>> made =
        SetUp(*spec, args.seed, socket_path);
    if (!made.ok()) {
      std::fprintf(stderr, "setup failed: %s\n",
                   made.status().ToString().c_str());
      return 1;
    }
    setup_s.push_back(Since(t0));
    const std::unique_ptr<Engine> engine = std::move(*made);
    data_pages = static_cast<double>(engine->db->disk()->NumPages());
    pool_pages = static_cast<double>(engine->db->buffer_pool()->capacity());
    const uint64_t inserted_before = verdict.inserted;

    Load load(*world, *spec, &streams);
    if (!load.Connect(engine->socket_path)) {
      std::fprintf(stderr, "cannot connect to %s\n",
                   engine->socket_path.c_str());
      return 1;
    }
    PhaseResult warmup = load.Run(kWarmupSeconds, nullptr);
    PhaseResult window =
        load.Run(args.trace ? args.seconds / 2 : args.seconds / engines,
                 nullptr);
    PhaseResult traced_window;
    if (args.trace) traced_window = load.Run(args.seconds / 2, &spans);
    CheckPhase(*world, spec->mix, warmup, &reference, &verdict);
    CheckPhase(*world, spec->mix, window, &reference, &verdict);
    CheckPhase(*world, spec->mix, traced_window, &reference, &verdict);
    if (args.trace) {
      const Status status = Replay(*world, *spec, engine.get(), load.first(),
                                   &spans, &reference, &verdict, &replay);
      if (!status.ok()) {
        std::fprintf(stderr, "replay failed: %s\n",
                     status.ToString().c_str());
        return 1;
      }
    }
    // Inserts: the table holds the loaded rows plus every insert this
    // engine acknowledged.
    Reply reply;
    load.first()->RoundTrip("SELECT count(*) FROM Author", &reply);
    const std::string expected = std::to_string(
        world->authors.size() + (verdict.inserted - inserted_before));
    verdict.Record(
        reply.ok && reply.rows.size() == 1 && reply.rows[0] == expected,
        "count(*) of Author, expected " + expected);
    warmups.Append(std::move(warmup));
    plain.Append(std::move(window));
    traced.Append(std::move(traced_window));
  }
  sampler.Stop();
  std::printf("setup runs:");
  for (const double t : setup_s) std::printf(" %.3f s", t);
  std::printf("\ndata pages %.0f, buffer_pool_pages %.0f\n", data_pages,
              pool_pages);
  std::vector<Metric> metrics;

  const std::vector<double> lat = Latencies(plain);
  const size_t n = lat.size();
  const double tail_q = spec->tail_quantile;
  std::printf("samples %zu, %zu beyond p%.0f; attempted %llu, failed %llu\n",
              n, SamplesBeyond(n, tail_q), tail_q * 100,
              static_cast<unsigned long long>(verdict.attempted),
              static_cast<unsigned long long>(verdict.failed));
  {
    // Latency per statement kind, for the reader; the JSON carries the mix.
    std::map<std::string, std::vector<double>> by_kind;
    static const char* kKindNames[] = {"lex_probe", "point_lookup", "insert",
                                       "sem_count", "join_window"};
    for (const Sample& s : plain.samples) {
      const Kind kind = MakeStmt(*world, spec->mix, 0, s.index).kind;
      by_kind[kKindNames[static_cast<int>(kind)]].push_back(s.latency_ms);
    }
    for (const auto& [kind, values] : by_kind) {
      std::printf("  %-14s n=%-7zu p50 %.3f ms  max %.3f ms\n", kind.c_str(),
                  values.size(), Quantile(values, 0.5),
                  Quantile(values, 1.0));
    }
  }
  // tail_ms is reported by the untraced run only; it must have at least
  // ten samples beyond it.
  if (!args.trace && !TailSupported(n, tail_q)) {
    std::fprintf(stderr, "too few samples (%zu) for p%.0f\n", n,
                 tail_q * 100);
    return 1;
  }
  const double qps = static_cast<double>(n) / plain.elapsed_s;
  const double p50 = Quantile(lat, 0.5);

  if (!args.trace) {
    metrics = {
        {"qps", qps, "1/s"},
        {"p50_ms", p50, "ms"},
        {"tail_ms", Quantile(lat, tail_q), "ms"},
        {"ok_frac",
         1.0 - Frac(static_cast<double>(verdict.failed),
                    static_cast<double>(verdict.attempted)),
         "fraction"},
        {"setup_s", Median(setup_s), "s"},
        {"peak_rss_mb", PeakRssMb(), "MiB"},
        {"threads_peak", static_cast<double>(sampler.peak()), "count"},
    };
  } else {
    const Counters& c = traced.counters;
    const double stmts = static_cast<double>(traced.samples.size());
    const std::vector<double> traced_lat = Latencies(traced);
    std::vector<double> queue_wait;
    for (const Sample& s : traced.samples) {
      queue_wait.push_back(s.outcome.queue_wait_ms);
    }
    const double fetches =
        c["storage.buffer_pool.hits"] + c["storage.buffer_pool.misses"];
    const double g2p_lookups =
        c["phonetic.phoneme_cache.hits"] + c["phonetic.phoneme_cache.misses"];
    const size_t rs = replay.statements;
    metrics = {
        {"server.wire_us", Quantile(replay.wire_us, 0.5), "us"},
        {"engine.sql_overhead_us", Quantile(replay.sql_overhead_us, 0.5), "us"},
        {"engine.plan_cache_hit_frac",
         Frac(c["engine.plan_cache.hits"],
              c["engine.plan_cache.hits"] + c["engine.plan_cache.misses"]),
         "fraction"},
        {"engine.queue_wait_ms", Mean(queue_wait), "ms"},
        {"sql.parse_us", Quantile(replay.parse_us, 0.5), "us"},
        {"sql.bind_us", Quantile(replay.bind_us, 0.5), "us"},
        {"optimizer.plan_us", Quantile(replay.plan_us, 0.5), "us"},
        {"exec.execute_ms", Quantile(replay.execute_ms, 0.5), "ms"},
        {"exec.rows_examined_per_row_out",
         Frac(replay.predicate_evals, replay.rows_out), "ratio"},
        {"exec.morsels_per_query", Frac(c["exec.morsels_run"], stmts),
         "count"},
        {"distance.calls_per_query",
         Frac(replay.distance_calls, static_cast<double>(rs)), "count"},
        {"distance.cells_per_query",
         Frac(replay.distance_cells, static_cast<double>(rs)), "count"},
        {"distance.kernel_ms_per_query", PerStatement(replay.kernel_ms, rs),
         "ms"},
        {"phonetic.g2p_us", Quantile(replay.g2p_us, 0.5), "us"},
        {"phonetic.cache_lookups_per_query", Frac(g2p_lookups, stmts),
         "count"},
        {"phonetic.cache_hit_frac",
         Frac(c["phonetic.phoneme_cache.hits"], g2p_lookups), "fraction"},
        {"storage.fetches_per_query", Frac(fetches, stmts), "count"},
        {"storage.fetch_ms_per_query",
         Frac(c["storage.buffer_pool.fetch_nanos"] * 1e-6, stmts), "ms"},
        {"storage.hit_frac", Frac(c["storage.buffer_pool.hits"], fetches),
         "fraction"},
        {"storage.evictions_per_query",
         Frac(c["storage.buffer_pool.evictions"], stmts), "count"},
        {"storage.writebacks_per_query",
         Frac(c["storage.buffer_pool.dirty_writebacks"], stmts), "count"},
        {"storage.data_pages", data_pages, "pages"},
        {"storage.pool_pages", pool_pages, "pages"},
        {"index.btree_probes_per_query", Frac(c["index.btree.probes"], stmts),
         "count"},
        {"index.mtree_probes_per_query", Frac(c["index.mtree.probes"], stmts),
         "count"},
        {"taxonomy.closure_us", Quantile(replay.closure_us, 0.5), "us"},
        {"taxonomy.closure_cache_hit_frac",
         Frac(c["taxonomy.closure_cache.hits"],
              c["taxonomy.closure_cache.hits"] +
                  c["taxonomy.closure_cache.misses"]),
         "fraction"},
        {"catalog.insert_us", Quantile(replay.insert_us, 0.5), "us"},
        {"trace.qps_ratio", Frac(stmts / traced.elapsed_s, qps), "ratio"},
        {"trace.p50_ratio", Frac(Quantile(traced_lat, 0.5), p50), "ratio"},
        {"workload.repeat_text_frac",
         RepeatTextFrac(*world, spec->mix, {&warmups, &plain, &traced}, 1),
         "fraction"},
        {"workload.clients", static_cast<double>(spec->clients), "count"},
        {"host.nproc", static_cast<double>(nproc), "count"},
    };
    const std::string path = std::string(kOutDir) + "/trace-" + spec->name +
                              "-seed" + std::to_string(args.seed) + ".jsonl";
    if (!spans.WriteJsonLines(path)) {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
      return 1;
    }
    std::printf("spans written to %s\n", path.c_str());
  }
  PrintResult(verdict.failed == 0, verdict, metrics);
  return 0;
}

}  // namespace
}  // namespace e2e

int main(int argc, char** argv) {
  e2e::Args args;
  if (!e2e::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: mural_e2e --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1>\n");
    return 2;
  }
  return e2e::Run(args);
}
