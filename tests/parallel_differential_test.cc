// Differential harness for morsel-parallel Psi execution (the PR's
// mandatory equivalence proof): every seeded scan/join workload runs under
// DOP in {1, 2, 4, 8} and must produce results bit-identical to the serial
// reference — same rows, and (for the operator-level cases) the same
// emission order, since the exchange-style gather concatenates morsel
// slots in morsel-index order.
//
// Two layers:
//   1. Operator-level: LexSelectOp with its Psi and Omega kernels over a
//      real table heap (workers claim page-range morsels and scan through
//      read guards — there is no serial drain phase to hide behind) and
//      LexJoinOp walking an outer heap, an inner heap or its outer child's
//      rows (seeded tables and ValuesOp inputs), with small morsels so
//      inputs span many morsels.
//   2. Planner-level: full Database queries under a degree_of_parallelism
//      hint sweep, with datasets sized so the cost model actually picks
//      the parallel plan at dop > 1.
//
// The join cases compare LexJoinOp against Filter(NestedLoop, LexEQUAL):
// same rows, same order, same predicate_evals and distance.calls.
// The Omega cases compare the fused select against Filter(SeqScan,
// SemEqualExpr): same rows, same order, same predicate_evals.  The
// closure counters legitimately differ — the fused select takes one
// closure per scan (one cache lookup per root of the constant), the
// filter one per evaluated row — so they are checked separately.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/metrics.h"
#include "common/thread_pool.h"
#include "datagen/name_generator.h"
#include "datagen/taxonomy_generator.h"
#include "distance/edit_distance.h"
#include "engine/database.h"
#include "exec/basic_ops.h"
#include "exec/join_ops.h"
#include "exec/mural_ops.h"
#include "exec/scan_ops.h"
#include "mural/algebra.h"
#include "phonetic/phoneme_cache.h"
#include "session/session.h"

namespace mural {
namespace {

constexpr uint64_t kSeeds[] = {42, 7, 1234};
constexpr int kDops[] = {1, 2, 4, 8};

std::string RenderRow(const Row& row) {
  std::string out;
  for (const Value& v : row) {
    out += v.ToString();
    out += '|';
  }
  return out;
}

std::vector<std::string> RenderAll(const std::vector<Row>& rows) {
  std::vector<std::string> out;
  out.reserve(rows.size());
  for (const Row& r : rows) out.push_back(RenderRow(r));
  return out;
}

std::vector<std::string> Sorted(std::vector<std::string> v) {
  std::sort(v.begin(), v.end());
  return v;
}

// Seeded names as rows; `materialize` controls whether phoneme strings
// are precomputed (false = workers must run G2P through the cache).
std::vector<Row> SeededNameRows(uint64_t seed, size_t bases, size_t variants,
                                bool materialize) {
  NameGenOptions options;
  options.seed = seed;
  options.num_bases = bases;
  options.variants_per_base = variants;
  std::vector<Row> rows;
  for (NameRecord& rec : GenerateNames(options)) {
    if (materialize) {
      PhoneticTransformer::Default().Materialize(&rec.name);
    }
    rows.push_back({Value::Int32(static_cast<int32_t>(rec.id)),
                    Value::Uni(std::move(rec.name))});
  }
  return rows;
}

Schema NamesSchema() {
  return Schema({{"id", TypeId::kInt32}, {"name", TypeId::kUniText}});
}

// Seeded names loaded into a fresh single-table database ("names"); the
// operator-level scan tests run against the table's heap pages directly.
// `materialize` maps to the column's MATERIALIZE PHONEMES flag.
StatusOr<std::unique_ptr<Database>> MakeNamesDatabase(size_t bases,
                                                      size_t variants,
                                                      uint64_t seed,
                                                      bool materialize) {
  MURAL_ASSIGN_OR_RETURN(std::unique_ptr<Database> db, Database::Open());
  Schema schema({{"id", TypeId::kInt32},
                 {"name", TypeId::kUniText, materialize}});
  MURAL_RETURN_IF_ERROR(db->CreateTable("names", schema));
  NameGenOptions options;
  options.seed = seed;
  options.num_bases = bases;
  options.variants_per_base = variants;
  for (const NameRecord& rec : GenerateNames(options)) {
    MURAL_RETURN_IF_ERROR(
        db->Insert("names", {Value::Int32(static_cast<int32_t>(rec.id)),
                             Value::Uni(rec.name)}));
  }
  MURAL_RETURN_IF_ERROR(db->Analyze("names"));
  return db;
}

// Two seeded name tables for the join cases: "big" (300 names, the walked
// side, padded to span several pages) and "small" (two of every four
// names, the probe side, so a record often matches several probe rows).
// Every 7th big key and every 10th small key is NULL, and both tables
// hold one identical key of over 64 phonemes, so the block form of the
// matcher runs and matches.
constexpr int32_t kLongKeyId = 9999;

UniText LongKey() {
  std::string text;
  for (int i = 0; i < 8; ++i) text += "abracadabra";
  return UniText(text, lang::kEnglish);
}

StatusOr<std::unique_ptr<Database>> MakeJoinDatabase(uint64_t seed,
                                                      bool materialize) {
  MURAL_ASSIGN_OR_RETURN(std::unique_ptr<Database> db, Database::Open());
  Schema schema({{"id", TypeId::kInt32},
                 {"name", TypeId::kUniText, materialize},
                 {"pad", TypeId::kText}});
  MURAL_RETURN_IF_ERROR(db->CreateTable("big", schema));
  MURAL_RETURN_IF_ERROR(db->CreateTable("small", schema));
  NameGenOptions options;
  options.seed = seed;
  options.num_bases = 100;
  options.variants_per_base = 3;
  const std::vector<NameRecord> names = GenerateNames(options);
  const Value pad = Value::Text(std::string(100, 'p'));
  for (size_t i = 0; i < names.size(); ++i) {
    const Value id = Value::Int32(static_cast<int32_t>(names[i].id));
    const Value key = Value::Uni(names[i].name);
    MURAL_RETURN_IF_ERROR(
        db->Insert("big", {id, i % 7 == 3 ? Value::Null() : key, pad}));
    if (i % 4 < 2) {  // neighbouring variants: multi-match records
      MURAL_RETURN_IF_ERROR(db->Insert(
          "small", {id, i % 10 == 5 ? Value::Null() : key, pad}));
    }
    if (i == names.size() / 2) {
      for (const char* table : {"big", "small"}) {
        MURAL_RETURN_IF_ERROR(db->Insert(
            table, {Value::Int32(kLongKeyId), Value::Uni(LongKey()), pad}));
      }
    }
  }
  MURAL_RETURN_IF_ERROR(db->Analyze("big"));
  MURAL_RETURN_IF_ERROR(db->Analyze("small"));
  return db;
}

// A seeded category table for the Omega cases, with its taxonomy pinned:
// a generated three-language taxonomy (English base, Hindi and Tamil
// replicas) plus one homonym, an English synset reusing a base lemma over
// an unrelated subtree, so that lemma resolves to two roots.  Categories
// cycle through the taxonomy's lemmas in every language; every 11th row
// is NULL, every 13th names no synset, and every 17th pairs a lemma with
// the wrong language.
struct CategoryWorld {
  std::unique_ptr<Database> db;
  UniText mid;       // a mid-level Hindi concept
  UniText homonym;   // an English lemma with two roots
  UniText absent;    // in no synset
};

StatusOr<CategoryWorld> MakeCategoryWorld(uint64_t seed, size_t rows) {
  TaxonomyGenOptions options;
  options.seed = seed;
  options.base_synsets = 300;
  options.languages = {lang::kEnglish, lang::kHindi, lang::kTamil};
  GeneratedTaxonomy gen = GenerateTaxonomy(options);
  Taxonomy& tax = *gen.taxonomy;
  const SynsetId homonym_base = gen.base_synsets[20 + seed % 20];
  const SynsetId twin =
      tax.AddSynset(lang::kEnglish, tax.Get(homonym_base).lemma);
  MURAL_RETURN_IF_ERROR(
      tax.AddIsA(gen.base_synsets[150 + seed % 100], twin));

  CategoryWorld world;
  world.mid = UniText(tax.Get(gen.replicas[5 + seed % 5][0]).lemma,
                      lang::kHindi);
  world.homonym = UniText(tax.Get(homonym_base).lemma, lang::kEnglish);
  world.absent = UniText("no_such_concept", lang::kEnglish);

  MURAL_ASSIGN_OR_RETURN(world.db, Database::Open());
  Database* db = world.db.get();
  MURAL_RETURN_IF_ERROR(db->CreateTable(
      "cats", Schema({{"id", TypeId::kInt32}, {"cat", TypeId::kUniText}})));
  for (size_t i = 0; i < rows; ++i) {
    Value cat;
    if (i % 11 == 0) {
      cat = Value::Null();
    } else if (i % 13 == 0) {
      cat = Value::Uni("nosuch" + std::to_string(i), lang::kEnglish);
    } else {
      const Synset& s = tax.Get(
          static_cast<SynsetId>((i * 7919 + seed * 31) % tax.size()));
      // Every 17th row pairs a lemma with a language it is not in.
      const LangId lang = i % 17 != 0           ? s.lang
                          : s.lang == lang::kHindi ? lang::kTamil
                                                   : lang::kHindi;
      cat = Value::Uni(s.lemma, lang);
    }
    MURAL_RETURN_IF_ERROR(db->Insert(
        "cats", {Value::Int32(static_cast<int32_t>(i)), std::move(cat)}));
  }
  MURAL_RETURN_IF_ERROR(db->Analyze("cats"));
  MURAL_RETURN_IF_ERROR(db->LoadTaxonomy(std::move(gen.taxonomy)));
  return world;
}

// ------------------------------------------------------------------
// Layer 1: operator-level equivalence.

class OperatorDifferentialTest : public ::testing::Test {
 protected:
  OperatorDifferentialTest() : pool_(8) {}

  ExecContext MakeCtx(int dop) {
    ExecContext ctx;
    ctx.lexequal_threshold = 2;
    ctx.phoneme_cache = &cache_;
    if (dop > 1) {
      ctx.thread_pool = &pool_;
      ctx.degree_of_parallelism = dop;
    }
    return ctx;
  }

  ThreadPool pool_;
  PhonemeCache cache_{1 << 14};
};

TEST_F(OperatorDifferentialTest, ParallelLexSelectMatchesSerialFilter) {
  for (const uint64_t seed : kSeeds) {
    for (const bool materialize : {true, false}) {
      auto db_or = MakeNamesDatabase(/*bases=*/300, /*variants=*/4, seed,
                                     materialize);
      ASSERT_TRUE(db_or.ok());
      std::unique_ptr<Database> db = std::move(*db_or);
      auto table_or = db->catalog()->GetTable("names");
      ASSERT_TRUE(table_or.ok());
      const TableInfo* table = *table_or;
      ASSERT_GT(table->heap->num_pages(), 1u);

      // Probe with the first generated name: guarantees non-empty output.
      NameGenOptions gen;
      gen.seed = seed;
      gen.num_bases = 300;
      gen.variants_per_base = 4;
      const UniText probe = GenerateNames(gen).front().name;
      const ExprPtr psi = LexEq(Col(1, "name"), Lit(Value::Uni(probe)), 2);
      const ExprPtr langs =
          LangIn(Col(1, "name"), {lang::kHindi, lang::kTamil});

      size_t bare_rows = 0;
      // nullptr: the bare Psi; else Psi AND <residual>.
      for (const ExprPtr& residual : {ExprPtr(), langs}) {
        const ExprPtr predicate =
            residual == nullptr ? psi : And(psi, residual);

        // Serial reference: FilterOp over a serial SeqScan of the heap.
        ExecContext serial_ctx = MakeCtx(1);
        FilterOp serial(&serial_ctx,
                        std::make_unique<SeqScanOp>(&serial_ctx, table),
                        predicate);
        StatusOr<std::vector<Row>> expected = CollectAll(&serial);
        ASSERT_TRUE(expected.ok());
        ASSERT_FALSE(expected->empty());
        if (residual == nullptr) {
          bare_rows = expected->size();
        } else {
          // The language filter must actually drop kernel matches.
          EXPECT_LT(expected->size(), bare_rows) << "seed=" << seed;
        }

        for (const int dop : kDops) {
          ExecContext ctx = MakeCtx(dop);
          // One page per morsel: the heap spans several pages, so every
          // dop > 1 run splits the scan across many page-range morsels.
          LexSelectOp scan(&ctx, table, /*key_col=*/1, Value::Uni(probe),
                           /*threshold_override=*/2, residual, dop,
                           /*morsel_pages=*/1);
          StatusOr<std::vector<Row>> actual = CollectAll(&scan);
          ASSERT_TRUE(actual.ok()) << "seed=" << seed << " dop=" << dop;
          // Bit-identical including order (morsel-order gather follows the
          // page chain order, which is the serial scan order).
          const std::string where =
              "seed=" + std::to_string(seed) + " dop=" + std::to_string(dop) +
              " materialize=" + std::to_string(materialize) +
              " residual=" + std::to_string(residual != nullptr);
          EXPECT_EQ(RenderAll(*actual), RenderAll(*expected)) << where;
          EXPECT_EQ(ctx.stats.predicate_evals,
                    serial_ctx.stats.predicate_evals)
              << where;
          EXPECT_EQ(ctx.stats.distance.calls, serial_ctx.stats.distance.calls)
              << where;
        }
      }
    }
  }
}

TEST_F(OperatorDifferentialTest, SemSelectMatchesSerialFilter) {
  for (const uint64_t seed : kSeeds) {
    auto world_or = MakeCategoryWorld(seed, /*rows=*/3000);
    ASSERT_TRUE(world_or.ok()) << world_or.status().ToString();
    CategoryWorld world = std::move(*world_or);
    auto table_or = world.db->catalog()->GetTable("cats");
    ASSERT_TRUE(table_or.ok());
    const TableInfo* table = *table_or;
    ASSERT_GT(table->heap->num_pages(), 1u);
    const Taxonomy* tax = world.db->taxonomy();
    ASSERT_EQ(tax->Lookup(world.homonym).size(), 2u);
    const ExprPtr langs = LangIn(Col(1, "cat"), {lang::kHindi, lang::kTamil});

    for (const UniText& constant :
         {world.mid, world.homonym, world.absent}) {
      const size_t roots = tax->Lookup(constant).size();
      const ExprPtr omega = SemEq(Col(1, "cat"), Lit(Value::Uni(constant)));
      for (const ExprPtr& residual : {ExprPtr(), langs}) {
        const ExprPtr predicate =
            residual == nullptr ? omega : And(omega, residual);
        for (const bool use_cache : {true, false}) {
          ClosureCache cache(tax);
          auto make_ctx = [&](int dop) {
            ExecContext ctx = MakeCtx(dop);
            ctx.taxonomy = tax;
            ctx.closure_cache = use_cache ? &cache : nullptr;
            return ctx;
          };
          ExecContext serial_ctx = make_ctx(1);
          FilterOp serial(&serial_ctx,
                          std::make_unique<SeqScanOp>(&serial_ctx, table),
                          predicate);
          StatusOr<std::vector<Row>> expected = CollectAll(&serial);
          ASSERT_TRUE(expected.ok());
          if (constant.text() == world.absent.text()) {
            EXPECT_TRUE(expected->empty());
          } else {
            EXPECT_FALSE(expected->empty()) << constant.text();
          }

          for (const int dop : kDops) {
            ExecContext ctx = make_ctx(dop);
            std::unique_ptr<LexSelectOp> scan = LexSelectOp::SemSelect(
                &ctx, table, /*key_col=*/1, Value::Uni(constant), residual,
                dop, /*morsel_pages=*/1);
            StatusOr<std::vector<Row>> actual = CollectAll(scan.get());
            const std::string where =
                "seed=" + std::to_string(seed) + " const=" +
                constant.text() + " dop=" + std::to_string(dop) +
                " residual=" + std::to_string(residual != nullptr) +
                " cache=" + std::to_string(use_cache);
            ASSERT_TRUE(actual.ok()) << where;
            EXPECT_EQ(RenderAll(*actual), RenderAll(*expected)) << where;
            EXPECT_EQ(ctx.stats.predicate_evals,
                      serial_ctx.stats.predicate_evals)
                << where;
            // One closure per scan: one cache lookup per root, or one
            // computation of the union without the cache.
            EXPECT_EQ(ctx.stats.closure_computations +
                          ctx.stats.closure_reuses,
                      roots == 0 ? 0u : use_cache ? roots : 1u)
                << where;
          }
        }
      }
    }
  }
}

TEST_F(OperatorDifferentialTest, ParallelLexJoinMatchesSerial) {
  for (const uint64_t seed : kSeeds) {
    for (const bool materialize : {true, false}) {
      // Overlapping sides cut from one seeded dataset: variants of a
      // shared base fall within the threshold, so the join is non-empty.
      std::vector<Row> all =
          SeededNameRows(seed, /*bases=*/80, /*variants=*/3, materialize);
      std::vector<Row> outer = all;
      std::vector<Row> inner(all.begin(),
                             all.begin() + (all.size() * 3) / 5);

      auto run = [&](int dop, bool tag) -> std::vector<std::string> {
        ExecContext ctx = MakeCtx(dop);
        LexJoinOp::Options options;
        options.threshold = 2;
        options.tag_distance = tag;
        options.dop = dop;
        options.morsel_pages = 1;  // several row morsels at this scale
        LexJoinOp join(&ctx,
                       std::make_unique<ValuesOp>(&ctx, NamesSchema(), outer),
                       std::make_unique<ValuesOp>(&ctx, NamesSchema(), inner),
                       1, 1, options);
        StatusOr<std::vector<Row>> rows = CollectAll(&join);
        EXPECT_TRUE(rows.ok()) << "seed=" << seed << " dop=" << dop;
        return RenderAll(*rows);
      };

      for (const bool tag : {false, true}) {
        const std::vector<std::string> expected = run(1, tag);
        ASSERT_FALSE(expected.empty());
        for (const int dop : kDops) {
          EXPECT_EQ(run(dop, tag), expected)
              << "seed=" << seed << " dop=" << dop << " tag=" << tag
              << " materialize=" << materialize;
        }
      }
    }
  }
}

TEST_F(OperatorDifferentialTest, LexJoinHeapBuildMatchesSerial) {
  // The table-backed inner side: with Options::inner_table set, the join
  // has no inner child — workers walk the heap through page-range read
  // guards.  Results (rows AND order) must be bit-identical to the
  // serial join that scans the same heap through a SeqScan child.
  for (const uint64_t seed : kSeeds) {
    // Sized so the heap reliably spans several pages (240 short rows can
    // fit in a single 8 KiB page, which would make the page-range build
    // morsels vacuous).
    auto db_or = MakeNamesDatabase(/*bases=*/250, /*variants=*/3, seed,
                                   /*materialize=*/false);
    ASSERT_TRUE(db_or.ok());
    std::unique_ptr<Database> db = std::move(*db_or);
    auto table_or = db->catalog()->GetTable("names");
    ASSERT_TRUE(table_or.ok());
    const TableInfo* table = *table_or;
    ASSERT_GT(table->heap->num_pages(), 1u);

    std::vector<Row> outer =
        SeededNameRows(seed, /*bases=*/60, /*variants=*/2, true);

    auto run = [&](int dop, bool heap_build) -> std::vector<std::string> {
      ExecContext ctx = MakeCtx(dop);
      LexJoinOp::Options options;
      options.threshold = 2;
      options.dop = dop;
      options.morsel_pages = 1;  // many page morsels
      OpPtr inner;
      if (heap_build) {
        options.inner_table = table;
      } else {
        inner = std::make_unique<SeqScanOp>(&ctx, table);
      }
      LexJoinOp join(&ctx,
                     std::make_unique<ValuesOp>(&ctx, NamesSchema(), outer),
                     std::move(inner), 1, 1, options);
      // Only operators that are opened and pulled are children.
      EXPECT_EQ(join.Children().size(), heap_build ? 1u : 2u);
      StatusOr<std::vector<Row>> rows = CollectAll(&join);
      EXPECT_TRUE(rows.ok()) << "seed=" << seed << " dop=" << dop;
      return RenderAll(*rows);
    };

    const std::vector<std::string> expected = run(1, false);
    ASSERT_FALSE(expected.empty());
    for (const int dop : kDops) {
      EXPECT_EQ(run(dop, true), expected) << "seed=" << seed
                                          << " dop=" << dop;
    }
  }
}

TEST_F(OperatorDifferentialTest, BatchedLexJoinMatchesTupleReference) {
  // Every LexJoinOp shape against Filter(NestedLoop, LexEQUAL) over the
  // same tables: rows, their order, predicate_evals and distance.calls
  // must be equal at every DOP, threshold and phoneme storage.  The
  // walked side is always the big table: the outer heap, the inner heap
  // (reordered outer-major by the gather), or the outer child's rows.
  enum class Walk { kOuterTable, kInnerTable, kOuterRows };
  for (const uint64_t seed : {uint64_t{42}, uint64_t{7}}) {
    for (const bool materialize : {true, false}) {
      auto db_or = MakeJoinDatabase(seed, materialize);
      ASSERT_TRUE(db_or.ok()) << db_or.status().ToString();
      std::unique_ptr<Database> db = std::move(*db_or);
      const TableInfo* big = *db->catalog()->GetTable("big");
      const TableInfo* small = *db->catalog()->GetTable("small");
      ASSERT_GT(big->heap->num_pages(), 1u);
      ExecContext probe_ctx = MakeCtx(1);
      ASSERT_GT(PhonemesOf(Value::Uni(LongKey()), &probe_ctx)->size(), 64u);
      for (const Walk walk :
           {Walk::kOuterTable, Walk::kInnerTable, Walk::kOuterRows}) {
        const TableInfo* outer_table =
            walk == Walk::kInnerTable ? small : big;
        const TableInfo* inner_table =
            walk == Walk::kInnerTable ? big : small;
        for (const int k : {0, 1, 2, 3}) {
          ExecContext ref_ctx = MakeCtx(1);
          FilterOp reference(
              &ref_ctx,
              std::make_unique<NestedLoopJoinOp>(
                  &ref_ctx, std::make_unique<SeqScanOp>(&ref_ctx, outer_table),
                  std::make_unique<SeqScanOp>(&ref_ctx, inner_table),
                  nullptr),
              LexEq(Col(1, "l"), Col(4, "r"), k));
          StatusOr<std::vector<Row>> expected = CollectAll(&reference);
          ASSERT_TRUE(expected.ok());
          // The over-64-phoneme key matches itself at every threshold.
          const auto long_pair = [](const Row& r) {
            return r[0].int32() == kLongKeyId && r[3].int32() == kLongKeyId;
          };
          ASSERT_EQ(std::count_if(expected->begin(), expected->end(),
                                  long_pair),
                    1);
          for (const bool tag : {false, true}) {
            for (const int dop : kDops) {
              ExecContext ctx = MakeCtx(dop);
              // Untagged runs take the batch path (7-row batches), tagged
              // runs the tuple path.
              ctx.batch_size = tag ? 0 : 7;
              LexJoinOp::Options options;
              options.threshold = k;
              options.tag_distance = tag;
              options.dop = dop;
              options.morsel_pages = 1;
              OpPtr outer = std::make_unique<SeqScanOp>(&ctx, outer_table);
              OpPtr inner = std::make_unique<SeqScanOp>(&ctx, inner_table);
              if (walk == Walk::kOuterTable) {
                options.outer_table = outer_table;
                outer.reset();
              } else if (walk == Walk::kInnerTable) {
                options.inner_table = inner_table;
                inner.reset();
              }
              LexJoinOp join(&ctx, std::move(outer), std::move(inner), 1, 1,
                             options);
              // Only operators that are opened and pulled are children.
              EXPECT_EQ(join.Children().size(),
                        walk == Walk::kOuterRows ? 2u : 1u);
              StatusOr<std::vector<Row>> actual = CollectAll(&join);
              const std::string where =
                  "seed=" + std::to_string(seed) +
                  " mat=" + std::to_string(materialize) +
                  " walk=" + std::to_string(static_cast<int>(walk)) +
                  " k=" + std::to_string(k) + " tag=" + std::to_string(tag) +
                  " dop=" + std::to_string(dop);
              ASSERT_TRUE(actual.ok()) << where;
              if (tag) {
                for (Row& row : *actual) {
                  ASSERT_EQ(row.size(), 7u) << where;
                  const PhonemeString l = *PhonemesOf(row[1], &ref_ctx);
                  const PhonemeString r = *PhonemesOf(row[4], &ref_ctx);
                  EXPECT_EQ(row[6].int32(),
                            BoundedDistanceCounted(l, r, k, nullptr))
                      << where;
                  row.pop_back();
                }
              }
              EXPECT_EQ(RenderAll(*actual), RenderAll(*expected)) << where;
              EXPECT_EQ(ctx.stats.predicate_evals,
                        ref_ctx.stats.predicate_evals)
                  << where;
              EXPECT_EQ(ctx.stats.distance.calls,
                        ref_ctx.stats.distance.calls)
                  << where;
            }
          }
        }
      }
    }
  }
}

TEST_F(OperatorDifferentialTest, NullKeysAreSkippedIdentically) {
  std::vector<Row> all = SeededNameRows(42, 40, 3, true);
  std::vector<Row> outer = all;
  std::vector<Row> inner(all.begin(), all.begin() + (all.size() * 3) / 4);
  // Null out every 5th key on both sides.
  for (size_t i = 0; i < outer.size(); i += 5) outer[i][1] = Value::Null();
  for (size_t i = 0; i < inner.size(); i += 5) inner[i][1] = Value::Null();

  auto run = [&](int dop) {
    ExecContext ctx = MakeCtx(dop);
    LexJoinOp::Options options;
    options.threshold = 2;
    options.dop = dop;
    options.morsel_pages = 1;
    LexJoinOp join(&ctx,
                   std::make_unique<ValuesOp>(&ctx, NamesSchema(), outer),
                   std::make_unique<ValuesOp>(&ctx, NamesSchema(), inner),
                   1, 1, options);
    StatusOr<std::vector<Row>> rows = CollectAll(&join);
    EXPECT_TRUE(rows.ok());
    return RenderAll(*rows);
  };

  const std::vector<std::string> expected = run(1);
  for (const int dop : kDops) EXPECT_EQ(run(dop), expected) << dop;
}

TEST_F(OperatorDifferentialTest, ParallelStatsMatchSerialCounts) {
  // Determinism extends to the effort counters: the per-morsel contexts
  // merge in morsel order, so predicate_evals and distance.calls are
  // DOP-invariant.
  std::vector<Row> outer = SeededNameRows(7, 50, 2, true);
  std::vector<Row> inner = SeededNameRows(8, 40, 2, true);
  uint64_t serial_evals = 0, serial_calls = 0;
  for (const int dop : kDops) {
    ExecContext ctx = MakeCtx(dop);
    LexJoinOp::Options options;
    options.threshold = 2;
    options.dop = dop;
    options.morsel_pages = 1;
    LexJoinOp join(&ctx,
                   std::make_unique<ValuesOp>(&ctx, NamesSchema(), outer),
                   std::make_unique<ValuesOp>(&ctx, NamesSchema(), inner),
                   1, 1, options);
    StatusOr<std::vector<Row>> rows = CollectAll(&join);
    ASSERT_TRUE(rows.ok());
    if (dop == 1) {
      serial_evals = ctx.stats.predicate_evals;
      serial_calls = ctx.stats.distance.calls;
      ASSERT_GT(serial_evals, 0u);
    } else {
      EXPECT_EQ(ctx.stats.predicate_evals, serial_evals) << dop;
      EXPECT_EQ(ctx.stats.distance.calls, serial_calls) << dop;
    }
  }
}

TEST_F(OperatorDifferentialTest, TraceTreeAndMergedMetricsAreDopInvariant) {
  // Observability determinism: the executed plan tree's per-node row counts
  // and the merged process metrics (phoneme cache hits+misses, morsels run)
  // must be identical across DOP {1, 2, 4, 8}.  Wall times and the
  // hit/miss *split* are excluded: times vary by machine, and two workers
  // can duplicate-compute the same key (each counting a miss) — only the
  // hits+misses sum equals the deterministic lookup count.
  auto db_or = MakeNamesDatabase(/*bases=*/300, /*variants=*/4, /*seed=*/42,
                                 /*materialize=*/false);
  ASSERT_TRUE(db_or.ok());
  std::unique_ptr<Database> db = std::move(*db_or);
  auto table_or = db->catalog()->GetTable("names");
  ASSERT_TRUE(table_or.ok());
  const TableInfo* table = *table_or;

  NameGenOptions gen;
  gen.seed = 42;
  gen.num_bases = 300;
  gen.variants_per_base = 4;
  const UniText probe = GenerateNames(gen).front().name;

  Counter* hits =
      MetricsRegistry::Global().GetCounter("phonetic.phoneme_cache.hits");
  Counter* misses =
      MetricsRegistry::Global().GetCounter("phonetic.phoneme_cache.misses");
  Counter* morsels = MetricsRegistry::Global().GetCounter("exec.morsels_run");

  // Normalizes one trace line per node: the operator name truncated at '('
  // (drops the dop= annotation in DisplayName) plus the actual-rows
  // annotation.
  auto normalize = [](const std::string& tree) {
    std::vector<std::string> out;
    size_t pos = 0;
    while (pos < tree.size()) {
      size_t eol = tree.find('\n', pos);
      if (eol == std::string::npos) eol = tree.size();
      const std::string line = tree.substr(pos, eol - pos);
      pos = eol + 1;
      if (line.empty()) continue;
      std::string norm = line.substr(0, line.find('('));
      const size_t rows = line.find("actual rows=");
      if (rows != std::string::npos) {
        const size_t end = line.find_first_of(" )", rows);
        norm += line.substr(rows, end - rows);
      }
      out.push_back(norm);
    }
    return out;
  };

  std::vector<std::string> reference_tree;
  uint64_t reference_lookups = 0;
  uint64_t reference_morsels = 0;
  for (const int dop : kDops) {
    const uint64_t lookups0 = hits->value() + misses->value();
    const uint64_t morsels0 = morsels->value();
    ExecContext ctx = MakeCtx(dop);
    LexSelectOp scan(&ctx, table, /*key_col=*/1, Value::Uni(probe),
                     /*threshold_override=*/2, /*residual=*/nullptr, dop,
                     /*morsel_pages=*/1);
    StatusOr<std::vector<Row>> rows = CollectAll(&scan);
    ASSERT_TRUE(rows.ok()) << "dop=" << dop;
    TraceOptions opts;
    opts.with_times = false;
    const std::vector<std::string> tree = normalize(TraceTree(scan, opts));
    const uint64_t lookups = hits->value() + misses->value() - lookups0;
    const uint64_t morsels_run = morsels->value() - morsels0;
    if (dop == 1) {
      reference_tree = tree;
      reference_lookups = lookups;
      reference_morsels = morsels_run;
      ASSERT_FALSE(reference_tree.empty());
      ASSERT_GT(reference_lookups, 0u);
      // One page per morsel: exactly the heap's page count, by
      // construction DOP-independent.
      EXPECT_EQ(reference_morsels, table->heap->num_pages());
    } else {
      EXPECT_EQ(tree, reference_tree) << "dop=" << dop;
      EXPECT_EQ(lookups, reference_lookups) << "dop=" << dop;
      EXPECT_EQ(morsels_run, reference_morsels) << "dop=" << dop;
    }
  }
}

// ------------------------------------------------------------------
// Batch/tuple differential: the vectorized path must be bit-identical to
// tuple-at-a-time execution — rows, order, and the complete ExecStats.

std::vector<std::pair<std::string, uint64_t>> StatsVector(
    const ExecStats& s) {
  std::vector<std::pair<std::string, uint64_t>> out;
  ExecStats::ForEachCounter(
      s, [&](const char* name, const uint64_t& v) { out.emplace_back(name, v); });
  return out;
}

TEST_F(OperatorDifferentialTest, LexSelectBatchMatchesTuplePathExactly) {
  for (const uint64_t seed : kSeeds) {
    for (const bool materialize : {true, false}) {
      auto db_or = MakeNamesDatabase(/*bases=*/300, /*variants=*/4, seed,
                                     materialize);
      ASSERT_TRUE(db_or.ok());
      std::unique_ptr<Database> db = std::move(*db_or);
      auto table_or = db->catalog()->GetTable("names");
      ASSERT_TRUE(table_or.ok());
      const TableInfo* table = *table_or;

      NameGenOptions gen;
      gen.seed = seed;
      gen.num_bases = 300;
      gen.variants_per_base = 4;
      const UniText probe = GenerateNames(gen).front().name;

      // Fresh phoneme cache per run so the hit/miss split is a function of
      // the execution path alone, not of what earlier runs warmed.
      auto run = [&](size_t batch) {
        PhonemeCache fresh(1 << 14);
        ExecContext ctx = MakeCtx(1);
        ctx.phoneme_cache = &fresh;
        ctx.batch_size = batch;
        LexSelectOp op(&ctx, table, /*key_col=*/1, Value::Uni(probe));
        StatusOr<std::vector<Row>> rows = CollectAll(&op);
        EXPECT_TRUE(rows.ok()) << "seed=" << seed << " batch=" << batch;
        const uint64_t batches = op.batches_produced();
        return std::make_tuple(RenderAll(*rows), StatsVector(ctx.stats),
                               batches);
      };

      // batch = 0: tuple-at-a-time reference through NextImpl.
      const auto [ref_rows, ref_stats, ref_batches] = run(0);
      ASSERT_FALSE(ref_rows.empty());
      EXPECT_EQ(ref_batches, 0u);  // Next() never emits batches
      for (const size_t batch : {size_t{1}, size_t{7}, size_t{1024}}) {
        const auto [rows, stats, batches] = run(batch);
        EXPECT_EQ(rows, ref_rows)
            << "seed=" << seed << " batch=" << batch
            << " materialize=" << materialize;
        // FULL counter equality: same operator, same kernel, both paths
        // route distance through BoundedDistanceCounted.
        EXPECT_EQ(stats, ref_stats)
            << "seed=" << seed << " batch=" << batch
            << " materialize=" << materialize;
        if (batch == 1) {
          // One match per batch: the count proves NextBatch actually drove
          // the execution (and didn't fall back to the tuple loop).
          EXPECT_EQ(batches, ref_rows.size());
        } else {
          EXPECT_GE(batches, 1u);
        }
      }
    }
  }
}

TEST_F(OperatorDifferentialTest, BatchBoundaryStraddlingMatches) {
  // Matches placed so runs of them cross every batch boundary: 120 rows,
  // every 3rd a match, swept against batch sizes that are <, =, and
  // coprime to the match period.  Any off-by-one at a batch seam (lost
  // carry row, double-emitted boundary row) changes the result set.
  auto db_or = Database::Open();
  ASSERT_TRUE(db_or.ok());
  std::unique_ptr<Database> db = std::move(*db_or);
  Schema schema({{"id", TypeId::kInt32}, {"name", TypeId::kUniText}});
  ASSERT_TRUE(db->CreateTable("t", schema).ok());
  for (int i = 0; i < 120; ++i) {
    const std::string name =
        (i % 3 == 0) ? "nira" : ("qx" + std::to_string(i) + "qzzz");
    ASSERT_TRUE(db->Insert("t", {Value::Int32(i),
                                 Value::Uni(UniText(name, lang::kEnglish))})
                    .ok());
  }
  auto table_or = db->catalog()->GetTable("t");
  ASSERT_TRUE(table_or.ok());

  auto run = [&](size_t batch) {
    ExecContext ctx = MakeCtx(1);
    ctx.batch_size = batch;
    LexSelectOp op(&ctx, *table_or, /*key_col=*/1,
                   Value::Uni(UniText("nira", lang::kEnglish)),
                   /*threshold_override=*/1);
    StatusOr<std::vector<Row>> rows = CollectAll(&op);
    EXPECT_TRUE(rows.ok()) << "batch=" << batch;
    return RenderAll(*rows);
  };

  const std::vector<std::string> expected = run(0);
  ASSERT_EQ(expected.size(), 40u);  // every 3rd of 120 rows
  for (const size_t batch : {size_t{1}, size_t{2}, size_t{3}, size_t{7},
                             size_t{40}, size_t{64}, size_t{1024}}) {
    EXPECT_EQ(run(batch), expected) << "batch=" << batch;
  }
}

// ------------------------------------------------------------------
// Layer 2: planner-level equivalence (the cost model must actually pick
// the parallel plan, and the full query results must match the serial
// reference).

TEST(PlannerDifferentialTest, ScanSweepProducesIdenticalResults) {
  for (const uint64_t seed : kSeeds) {
    auto db_or = MakeNamesDatabase(/*bases=*/1600, /*variants=*/3, seed,
                                   /*materialize=*/true);
    ASSERT_TRUE(db_or.ok());
    std::unique_ptr<Database> db = std::move(*db_or);
    auto session_or = db->Connect();
    ASSERT_TRUE(session_or.ok());
    std::unique_ptr<Session> session = std::move(*session_or);
    // Provision the worker pool regardless of this machine's core count;
    // the sweep below sets the per-query session DOP.
    ASSERT_TRUE(session->Set("degree_of_parallelism", 8).ok());

    NameGenOptions gen;
    gen.seed = seed;
    gen.num_bases = 1600;
    gen.variants_per_base = 3;
    const std::vector<NameRecord> records = GenerateNames(gen);
    const Schema schema({{"id", TypeId::kInt32},
                         {"name", TypeId::kUniText, /*mat=*/true}});

    const LogicalPtr plan =
        MuralBuilder::Scan("names", schema)
            .PsiSelect("name", records[1].name, {}, 3)
            .Build();

    std::vector<std::string> reference;
    for (const int dop : kDops) {
      PlannerHints hints;
      hints.enable_mtree = false;
      ASSERT_TRUE(session->Set("degree_of_parallelism", dop).ok());
      auto result = session->Query(plan, hints);
      ASSERT_TRUE(result.ok()) << "seed=" << seed << " dop=" << dop;
      // Serial or parallel, the scan is the one Psi-scan operator.
      EXPECT_NE(result->explain.find("LexSelect"), std::string::npos)
          << result->explain;
      if (dop == 1) {
        EXPECT_EQ(result->explain.find("dop="), std::string::npos)
            << result->explain;
        reference = Sorted(RenderAll(result->rows));
        ASSERT_FALSE(reference.empty());
      } else {
        // The CPU term dominates at this scale, so the parallel candidate
        // must win for every dop > 1.
        EXPECT_NE(result->explain.find("dop=" + std::to_string(dop)),
                  std::string::npos)
            << "seed=" << seed << " dop=" << dop << "\n" << result->explain;
        EXPECT_EQ(Sorted(RenderAll(result->rows)), reference)
            << "seed=" << seed << " dop=" << dop;
      }
    }
  }
}

TEST(PlannerDifferentialTest, JoinSweepProducesIdenticalResults) {
  for (const uint64_t seed : kSeeds) {
    auto db_or = MakeNamesDatabase(/*bases=*/120, /*variants=*/3, seed,
                                   /*materialize=*/true);
    ASSERT_TRUE(db_or.ok());
    std::unique_ptr<Database> db = std::move(*db_or);
    auto session_or = db->Connect();
    ASSERT_TRUE(session_or.ok());
    std::unique_ptr<Session> session = std::move(*session_or);
    ASSERT_TRUE(session->Set("degree_of_parallelism", 8).ok());

    // Second table for the join.
    const Schema schema({{"id", TypeId::kInt32},
                         {"name", TypeId::kUniText, /*mat=*/true}});
    ASSERT_TRUE(db->CreateTable("others", schema).ok());
    // Same seed as "names" so the two tables share bases: variants of a
    // shared base join within the threshold.
    NameGenOptions gen;
    gen.seed = seed;
    gen.num_bases = 120;
    gen.variants_per_base = 3;
    const std::vector<NameRecord> all = GenerateNames(gen);
    for (size_t i = 0; i < (all.size() * 3) / 4; ++i) {
      const NameRecord& rec = all[i];
      ASSERT_TRUE(
          db->Insert("others", {Value::Int32(static_cast<int32_t>(rec.id)),
                                Value::Uni(rec.name)})
              .ok());
    }
    ASSERT_TRUE(db->Analyze("others").ok());

    const LogicalPtr plan =
        MuralBuilder::Scan("names", schema)
            .PsiJoin(MuralBuilder::Scan("others", schema), "name", "name", 2)
            .Build();

    std::vector<std::string> reference;
    for (const int dop : kDops) {
      PlannerHints hints;
      hints.enable_mtree = false;
      ASSERT_TRUE(session->Set("degree_of_parallelism", dop).ok());
      auto result = session->Query(plan, hints);
      ASSERT_TRUE(result.ok()) << "seed=" << seed << " dop=" << dop;
      if (dop == 1) {
        EXPECT_EQ(result->explain.find("dop="), std::string::npos)
            << result->explain;
        reference = Sorted(RenderAll(result->rows));
        ASSERT_FALSE(reference.empty());
      } else {
        EXPECT_NE(result->explain.find("dop=" + std::to_string(dop)),
                  std::string::npos)
            << "seed=" << seed << " dop=" << dop << "\n" << result->explain;
        EXPECT_EQ(Sorted(RenderAll(result->rows)), reference)
            << "seed=" << seed << " dop=" << dop;
      }
    }
  }
}

TEST(PlannerDifferentialTest, BatchSweepProducesIdenticalResults) {
  // Full-query differential over SET batch_size x degree_of_parallelism:
  // every combination must return the same rows, and the distance-kernel
  // call count must be plan-shape-invariant (one bounded call per non-null
  // key on every path).
  for (const uint64_t seed : kSeeds) {
    auto db_or = MakeNamesDatabase(/*bases=*/1600, /*variants=*/3, seed,
                                   /*materialize=*/true);
    ASSERT_TRUE(db_or.ok());
    std::unique_ptr<Database> db = std::move(*db_or);
    auto session_or = db->Connect();
    ASSERT_TRUE(session_or.ok());
    std::unique_ptr<Session> session = std::move(*session_or);
    ASSERT_TRUE(session->Set("degree_of_parallelism", 8).ok());

    NameGenOptions gen;
    gen.seed = seed;
    gen.num_bases = 1600;
    gen.variants_per_base = 3;
    const std::vector<NameRecord> records = GenerateNames(gen);
    const Schema schema({{"id", TypeId::kInt32},
                         {"name", TypeId::kUniText, /*mat=*/true}});
    const LogicalPtr plan = MuralBuilder::Scan("names", schema)
                                .PsiSelect("name", records[1].name, {}, 3)
                                .Build();

    std::vector<std::string> reference;
    uint64_t reference_calls = 0;
    for (const size_t batch : {size_t{0}, size_t{1}, size_t{7},
                               size_t{1024}}) {
      ASSERT_TRUE(
          session->Sql("SET batch_size = " + std::to_string(batch)).ok());
      ASSERT_EQ(static_cast<size_t>(session->options().batch_size), batch);
      for (const int dop : kDops) {
        PlannerHints hints;
        hints.enable_mtree = false;
        ASSERT_TRUE(session->Set("degree_of_parallelism", dop).ok());
        auto result = session->Query(plan, hints);
        ASSERT_TRUE(result.ok())
            << "seed=" << seed << " batch=" << batch << " dop=" << dop;
        if (dop == 1) {
          // Serial plans: a real batch size swaps the Filter-over-SeqScan
          // pair for the fused batch leaf.  batch = 0 must keep the tuple
          // plan, and at batch = 1 the per-row batch bookkeeping amortizes
          // nothing, so the cost model correctly keeps the tuple plan too
          // (the operator-level differential covers batch = 1 execution).
          if (batch > 1) {
            EXPECT_NE(result->explain.find("LexSelect"), std::string::npos)
                << "batch=" << batch << "\n" << result->explain;
          } else {
            EXPECT_EQ(result->explain.find("LexSelect"), std::string::npos)
                << result->explain;
          }
        }
        if (reference.empty()) {
          reference = Sorted(RenderAll(result->rows));
          reference_calls = result->exec_stats.distance.calls;
          ASSERT_FALSE(reference.empty());
          ASSERT_GT(reference_calls, 0u);
        } else {
          EXPECT_EQ(Sorted(RenderAll(result->rows)), reference)
              << "seed=" << seed << " batch=" << batch << " dop=" << dop;
          EXPECT_EQ(result->exec_stats.distance.calls, reference_calls)
              << "seed=" << seed << " batch=" << batch << " dop=" << dop;
        }
      }
    }
  }
}

TEST(PlannerDifferentialTest, SemSelectSqlMatchesFilterPlan) {
  // Session::Sql: count(*) and a language-restricted projection must plan
  // the fused select (Omega kernel, no Filter or SeqScan), keep the batch
  // path under the aggregate and the projection, and return exactly the
  // rows of the opaque Filter(SeqScan) plan at every DOP.
  for (const uint64_t seed : kSeeds) {
    auto world_or = MakeCategoryWorld(seed, /*rows=*/6000);
    ASSERT_TRUE(world_or.ok()) << world_or.status().ToString();
    CategoryWorld world = std::move(*world_or);
    auto session = world.db->Connect();
    ASSERT_TRUE(session.ok());

    const auto literal = [](const UniText& c) {
      return "'" + c.text() + "'@" +
             LanguageRegistry::Default().NameOf(c.lang());
    };
    std::vector<std::string> queries;
    for (const UniText& c : {world.mid, world.homonym, world.absent}) {
      queries.push_back("SELECT count(*) FROM cats WHERE cat SemEQUAL " +
                        literal(c));
      queries.push_back("SELECT id, cat FROM cats WHERE cat SemEQUAL " +
                        literal(c) + " IN Hindi, Tamil");
    }
    PlannerHints opaque;
    opaque.opaque_multilingual = true;
    for (const std::string& query : queries) {
      auto reference = (*session)->Sql(query, opaque);
      ASSERT_TRUE(reference.ok()) << query;
      EXPECT_EQ(reference->explain.find("SemSelect"), std::string::npos)
          << reference->explain;
      for (const int dop : {1, 2, 4}) {
        ASSERT_TRUE((*session)
                        ->Sql("SET degree_of_parallelism = " +
                              std::to_string(dop))
                        .ok());
        auto result = (*session)->Sql(query);
        const std::string where =
            "seed=" + std::to_string(seed) + " dop=" + std::to_string(dop) +
            " " + query;
        ASSERT_TRUE(result.ok()) << where;
        const std::string& plan = result->explain_analyze;
        const size_t scan = plan.find("SemSelect(cats.cat SemEQUAL");
        ASSERT_NE(scan, std::string::npos) << where << "\n" << plan;
        EXPECT_EQ(plan.find("Filter("), std::string::npos) << plan;
        EXPECT_EQ(plan.find("SeqScan("), std::string::npos) << plan;
        const std::string scan_line =
            plan.substr(scan, plan.find('\n', scan) - scan);
        if (scan_line.find("actual rows=0 ") == std::string::npos) {
          EXPECT_NE(scan_line.find("batches="), std::string::npos) << plan;
        }
        // 6,000 rows: the probe term pays for the workers at every dop.
        EXPECT_EQ(scan_line.find("dop="),
                  dop > 1 ? scan_line.find("dop=" + std::to_string(dop))
                          : std::string::npos)
            << scan_line;
        EXPECT_EQ(RenderAll(result->rows), RenderAll(reference->rows))
            << where;
        EXPECT_EQ(result->exec_stats.predicate_evals,
                  reference->exec_stats.predicate_evals)
            << where;
      }
    }
  }
}

TEST(PlannerDifferentialTest, JoinWindowSqlWalksTheTableHeap) {
  // The benchmark's join window: a 20-publisher range against every
  // author.  The planner must walk the author heap inside LexJoin (table
  // named in its line, no SeqScan child) and return exactly the rows, in
  // order, of the opaque plan, which walks its children's rows instead.
  for (const uint64_t seed : kSeeds) {
    auto db_or = Database::Open();
    ASSERT_TRUE(db_or.ok());
    std::unique_ptr<Database> db = std::move(*db_or);
    auto session = db->Connect();
    ASSERT_TRUE(session.ok());
    for (const char* ddl :
         {"CREATE TABLE Author (AuthorID INT, AName UNITEXT MATERIALIZE "
          "PHONEMES)",
          "CREATE TABLE Publisher (PublisherID INT, PName UNITEXT "
          "MATERIALIZE PHONEMES)",
          "SET LEXEQUAL_THRESHOLD = 3"}) {
      ASSERT_TRUE((*session)->Sql(ddl).ok()) << ddl;
    }
    NameGenOptions gen;
    gen.seed = seed;
    gen.num_bases = 400;
    gen.variants_per_base = 3;
    const std::vector<NameRecord> names = GenerateNames(gen);
    for (size_t i = 0; i < names.size(); ++i) {
      ASSERT_TRUE(db->Insert("AUTHOR",
                             {Value::Int32(static_cast<int32_t>(i)),
                              Value::Uni(names[i].name)})
                      .ok());
      if (i % 6 == 0) {
        ASSERT_TRUE(db->Insert("PUBLISHER",
                               {Value::Int32(static_cast<int32_t>(i / 6)),
                                Value::Uni(names[i].name)})
                        .ok());
      }
    }
    ASSERT_TRUE(db->Analyze("AUTHOR").ok());
    ASSERT_TRUE(db->Analyze("PUBLISHER").ok());

    const std::string query =
        "SELECT A.AuthorID, P.PublisherID FROM Author A, Publisher P "
        "WHERE A.AName LexEQUAL P.PName AND P.PublisherID >= 40 "
        "AND P.PublisherID < 60";
    PlannerHints opaque;
    opaque.opaque_multilingual = true;
    auto reference = (*session)->Sql(query, opaque);
    ASSERT_TRUE(reference.ok()) << reference.status().ToString();
    ASSERT_FALSE(reference->rows.empty());
    for (const int dop : {1, 2, 4}) {
      ASSERT_TRUE(
          (*session)
              ->Sql("SET degree_of_parallelism = " + std::to_string(dop))
              .ok());
      auto result = (*session)->Sql(query);
      const std::string where =
          "seed=" + std::to_string(seed) + " dop=" + std::to_string(dop);
      ASSERT_TRUE(result.ok()) << where;
      const std::string& plan = result->explain_analyze;
      const size_t join = plan.find("LexJoin(AUTHOR.ANAME ~ PNAME");
      ASSERT_NE(join, std::string::npos) << where << "\n" << plan;
      const std::string join_line =
          plan.substr(join, plan.find('\n', join) - join);
      EXPECT_NE(join_line.find("matchers=20,"), std::string::npos)
          << join_line;
      EXPECT_NE(join_line.find("batch="), std::string::npos) << join_line;
      EXPECT_EQ(plan.find("SeqScan(AUTHOR)"), std::string::npos) << plan;
      EXPECT_EQ(RenderAll(result->rows), RenderAll(reference->rows))
          << where;
    }
  }
}

TEST(PlannerDifferentialTest, SessionDopViaSqlSetIsHonored) {
  auto db_or = MakeNamesDatabase(/*bases=*/1600, /*variants=*/3, 42,
                                 /*materialize=*/true);
  ASSERT_TRUE(db_or.ok());
  std::unique_ptr<Database> db = std::move(*db_or);
  auto session_or = db->Connect();
  ASSERT_TRUE(session_or.ok());
  std::unique_ptr<Session> session = std::move(*session_or);

  auto set4 = session->Sql("SET degree_of_parallelism = 4");
  ASSERT_TRUE(set4.ok());
  EXPECT_EQ(session->options().degree_of_parallelism, 4);
  ASSERT_NE(session->exec_context()->thread_pool, nullptr);

  NameGenOptions gen;
  gen.seed = 42;
  gen.num_bases = 1600;
  gen.variants_per_base = 3;
  const std::vector<NameRecord> records = GenerateNames(gen);
  const Schema schema({{"id", TypeId::kInt32},
                       {"name", TypeId::kUniText, /*mat=*/true}});
  const LogicalPtr plan = MuralBuilder::Scan("names", schema)
                              .PsiSelect("name", records[1].name, {}, 3)
                              .Build();
  PlannerHints hints;
  hints.enable_mtree = false;
  auto par = session->Query(plan, hints);
  ASSERT_TRUE(par.ok());
  EXPECT_NE(par->explain.find("dop=4"), std::string::npos) << par->explain;

  auto set1 = session->Sql("SET degree_of_parallelism = 1");
  ASSERT_TRUE(set1.ok());
  auto serial = session->Query(plan, hints);
  ASSERT_TRUE(serial.ok());
  EXPECT_EQ(serial->explain.find("dop="), std::string::npos)
      << serial->explain;
  EXPECT_EQ(Sorted(RenderAll(serial->rows)), Sorted(RenderAll(par->rows)));
}

}  // namespace
}  // namespace mural
