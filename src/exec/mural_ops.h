// Physical operators for the multilingual algebra (paper §3.2, §4):
//
//  - LexJoinOp (Psi join): phoneme-space approximate join.  The algebraic
//    Psi tags every pair of the Cartesian product with the phonemic edit
//    distance; this operator folds in the threshold selection (as every
//    query in the paper does) and optionally emits the distance as an
//    extra column for downstream operators.
//
//  - SemJoinOp (Omega join): taxonomy-subsumption join.  Implements the
//    optimizations of §4.3: the RHS operand drives the (outer) loop so one
//    materialized closure serves all LHS probes; closures are memoized in
//    the session's hash-table cache; optionally RHS values are sorted and
//    deduplicated so each distinct value's closure is computed exactly
//    once even without the cache.

#pragma once

#include <memory>
#include <optional>
#include <string_view>
#include <unordered_set>
#include <vector>

#include "catalog/catalog.h"
#include "distance/bounded_myers.h"
#include "exec/expression.h"
#include "exec/operator.h"

namespace mural {

/// The fused multilingual select: a heap-scan + predicate leaf, the form
/// every Psi(col, constant) and Omega(col, constant) selection runs in.
/// The scan is shared; only the per-record key test differs, one of two
/// kernels fixed at construction:
///
///  - Psi (LexSelect, the constructor): the probe constant's phonemes are
///    hoisted once at Open into a BoundedMyersMatcher whose Peq table is
///    built a single time; a record matches when the bounded bit-parallel
///    distance of its key is within the threshold.
///  - Omega (LexSelectOp::SemSelect): at Open the constant's roots are
///    resolved once and their closure taken once (from the session closure
///    cache, or computed), then flattened into the read-only set of the
///    closure's (lemma, lang) pairs; a record matches when its (text,
///    lang) key is in the set.  Taxonomy::Lookup(text, lang) returns
///    exactly the synsets with that lemma and language, so set membership
///    is Lookup(text, lang) ∩ TC ≠ ∅ — SemEqualExpr's test — with no
///    allocation, lock or deserialize per record.
///
/// Per record the operator peeks only the key column out of the serialized
/// tuple (TupleCodec::PeekUniText, zero-copy) and runs the kernel,
/// deserializing the full row only for kernel matches (late
/// materialization).  `residual`, when set, holds the predicate's other
/// conjuncts (a language filter, a comparison, ...) and is evaluated on
/// the deserialized matches only.
///
/// The heap is walked page-wise over its chain-order page directory, one
/// read guard per page, in page-range morsels on the ParallelMorsels
/// scheduler (serially one morsel at a time, or all at once on `dop`
/// workers), each with its own kernel state (the Psi matcher is not
/// thread-safe; the Omega key set is read-only and shared) and its own
/// ExecContext::WorkerClone(), gathered in morsel order.  Rows, their
/// order, and the effort counters are therefore the same at any DOP, and
/// the tuple and batch protocols replay the same gathered matches.
/// Against Filter(SeqScan) with the kernel conjunct first, rows and
/// predicate_evals agree (and distance_calls, for Psi); only the cache
/// counters can differ: Psi builds the constant's phonemes and Peq table
/// once, not per row, and Omega takes one closure per scan, not one per
/// row (closure_computations + closure_reuses count roots, not rows).
class LexSelectOp : public PhysicalOp {
 public:
  /// Heap pages per morsel: a page holds on the order of 10^2 name rows,
  /// so a morsel amortizes the worker hand-off over thousands of rows.
  static constexpr size_t kMorselPages = 16;

  /// The Psi kernel: `table.key_col LexEQUAL probe`.
  /// `threshold_override` < 0 means "use ctx->lexequal_threshold".
  /// `dop` > 1 runs the morsels on ctx->thread_pool (inline without one).
  LexSelectOp(ExecContext* ctx, const TableInfo* table, size_t key_col,
              Value probe, int threshold_override = -1,
              ExprPtr residual = nullptr, int dop = 1,
              size_t morsel_pages = kMorselPages);

  /// The Omega kernel: `table.key_col SemEQUAL probe` (the column is the
  /// LHS: Omega does not commute).  `key_col` must be a UNITEXT column.
  static std::unique_ptr<LexSelectOp> SemSelect(
      ExecContext* ctx, const TableInfo* table, size_t key_col, Value probe,
      ExprPtr residual = nullptr, int dop = 1,
      size_t morsel_pages = kMorselPages);

  [[nodiscard]] Status OpenImpl() override;
  [[nodiscard]] StatusOr<bool> NextImpl(Row* out) override;
  [[nodiscard]] StatusOr<bool> NextBatchImpl(RowBatch* out) override;
  [[nodiscard]] Status CloseImpl() override;
  const Schema& output_schema() const override { return table_->schema; }
  std::string DisplayName() const override;

 private:
  enum class Kernel { kPsi, kOmega };

  /// One closure member's name: the Omega kernel's key.
  struct LemmaKey {
    std::string_view lemma;  // points into the pinned taxonomy
    LangId lang;
    bool operator==(const LemmaKey& o) const {
      return lang == o.lang && lemma == o.lemma;
    }
  };
  struct LemmaKeyHash {
    size_t operator()(const LemmaKey& k) const {
      return std::hash<std::string_view>()(k.lemma) ^
             (static_cast<size_t>(k.lang) * 0x9E3779B97F4A7C15ull);
    }
  };

  /// Prepares the Omega kernel: the closure of the probe's roots,
  /// flattened into `sem_keys_`.
  [[nodiscard]] Status OpenOmega();
  /// Refills `matches_` from the next morsels; false once the heap is
  /// exhausted.
  [[nodiscard]] StatusOr<bool> ScanNextMorsels();
  /// Scans heap pages [begin, end) into `out` with one worker's context,
  /// dispatching on the kernel once for the whole morsel.
  [[nodiscard]] Status ScanMorsel(size_t begin, size_t end, ExecContext* wctx,
                                  std::vector<Row>* out) const;
  /// The page loop shared by both kernels; `matches(view, wctx)` is the
  /// per-record key test.
  template <typename KeyTest>
  [[nodiscard]] Status ScanPages(size_t begin, size_t end, ExecContext* wctx,
                                 std::vector<Row>* out,
                                 const KeyTest& matches) const;

  Kernel kernel_ = Kernel::kPsi;
  const TableInfo* table_;
  size_t key_col_;
  Value probe_;
  int threshold_override_;
  ExprPtr residual_;
  int dop_;
  size_t morsel_pages_;

  bool prepared_ = false;  // Open resolved the kernel (probe not NULL)
  std::optional<BoundedMyersMatcher> matcher_;  // Psi, prepared at Open
  int k_ = 0;              // Psi effective threshold, resolved at Open
  std::unordered_set<LemmaKey, LemmaKeyHash> sem_keys_;  // Omega, at Open
  std::optional<size_t> closure_size_;  // Omega |TC|, once Open resolved it
  size_t next_page_ = 0;   // first heap page not yet scanned
  std::vector<Row> matches_;  // gathered matches, replayed by Next*
  size_t match_pos_ = 0;
};

/// Psi join: matches outer.col_left with inner.col_right under the
/// phonemic edit-distance threshold.
struct LexJoinOptions {
  /// -1: use the session threshold (ctx->lexequal_threshold).
  int threshold = -1;
  /// Append an INT column "psi_distance" with the pair's distance.
  bool tag_distance = false;
  /// Degree of parallelism for the build/probe phases.  > 1 (with a
  /// thread pool in the context) switches to the morsel-parallel path:
  /// inner phoneme construction and outer probing run as morsels on the
  /// pool, gathered in morsel order so output order is identical to the
  /// serial path.
  int dop = 1;
  /// Rows per morsel in the parallel phases (tests shrink this to force
  /// multi-morsel execution on small inputs).
  size_t morsel_size = 2048;
  /// When the inner input is a bare table scan, the planner passes the
  /// table here instead of an inner child operator: build workers claim
  /// page-range morsels over the heap and drain it through read guards
  /// (deserialize + G2P per morsel), gathered in chain order so the build
  /// side is bit-identical to a serial drain.  nullptr: drain the inner
  /// child.
  const TableInfo* inner_table = nullptr;
  /// Heap pages per build morsel when `inner_table` drives the build.
  size_t build_morsel_pages = 4;
};

class LexJoinOp : public PhysicalOp {
 public:
  using Options = LexJoinOptions;

  /// `inner` is null exactly when `options.inner_table` drives the build.
  LexJoinOp(ExecContext* ctx, OpPtr outer, OpPtr inner, size_t outer_col,
            size_t inner_col, Options options = Options());

  [[nodiscard]] Status OpenImpl() override;
  [[nodiscard]] StatusOr<bool> NextImpl(Row* out) override;
  [[nodiscard]] Status CloseImpl() override;
  const Schema& output_schema() const override { return schema_; }
  std::string DisplayName() const override;
  std::vector<const PhysicalOp*> Children() const override {
    if (inner_ == nullptr) return {outer_.get()};
    return {outer_.get(), inner_.get()};
  }

 private:
  const Schema& inner_schema() const {
    return inner_ != nullptr ? inner_->output_schema()
                             : options_.inner_table->schema;
  }

  /// `build_done` skips the phoneme build phase (HeapBuild already
  /// produced inner_phonemes_ during its heap drain).
  [[nodiscard]] Status OpenParallel(int dop, bool build_done);
  [[nodiscard]] Status HeapBuild(int dop);

  OpPtr outer_, inner_;
  size_t outer_col_, inner_col_;
  Options options_;
  Schema schema_;

  // Materialized inner side with precomputed phoneme strings (§4.2: the
  // materialization avoids repeated conversions during join processing).
  std::vector<Row> inner_rows_;
  std::vector<PhonemeString> inner_phonemes_;
  std::vector<bool> inner_valid_;

  Row outer_row_;
  PhonemeString outer_phonemes_;
  bool outer_valid_ = false;
  bool outer_null_ = false;
  size_t inner_pos_ = 0;

  // Parallel (dop > 1) path: the join result is computed during Open and
  // replayed by Next in deterministic (serial-identical) order.
  bool parallel_mode_ = false;
  std::vector<Row> results_;
  size_t result_pos_ = 0;
  uint64_t cache_hits_ = 0;    // phoneme-cache lookups by this operator
  uint64_t cache_misses_ = 0;
};

/// Omega join: emits outer x inner pairs where the LHS value is subsumed
/// by the RHS value in the pinned taxonomy.
///
/// Column roles: `lhs_col` indexes the *probe* side (set-membership tested
/// against the closure), `rhs_col` the closure side, matching the paper's
/// Omega(LHS, RHS) semantics.  Physically the RHS child is the outer loop.
/// The output schema is Concat(lhs_child, rhs_child) regardless.
struct SemJoinOptions {
  /// Use the session closure cache (§4.3).  Off = recompute per RHS row
  /// (the ablation baseline).
  bool use_closure_cache = true;
  /// Sort RHS rows by value and skip duplicates' recomputation even
  /// without the cache (§4.3 "sorting the RHS values and computing the
  /// closure only for unique values").
  bool sort_unique_rhs = false;
};

class SemJoinOp : public PhysicalOp {
 public:
  using Options = SemJoinOptions;

  SemJoinOp(ExecContext* ctx, OpPtr lhs_child, OpPtr rhs_child,
            size_t lhs_col, size_t rhs_col, Options options = Options());

  [[nodiscard]] Status OpenImpl() override;
  [[nodiscard]] StatusOr<bool> NextImpl(Row* out) override;
  [[nodiscard]] Status CloseImpl() override;
  const Schema& output_schema() const override { return schema_; }
  std::string DisplayName() const override;
  std::vector<const PhysicalOp*> Children() const override {
    return {lhs_.get(), rhs_.get()};
  }

 private:
  [[nodiscard]] Status ComputeClosureFor(const Value& rhs_value);

  OpPtr lhs_, rhs_;
  size_t lhs_col_, rhs_col_;
  Options options_;
  Schema schema_;

  std::vector<Row> lhs_rows_;           // materialized probe side
  std::vector<Row> rhs_rows_;           // outer loop (sorted if requested)
  size_t rhs_pos_ = 0;
  size_t lhs_pos_ = 0;
  bool rhs_open_ = false;

  // Closure of the current RHS value (points into the cache, or local).
  const Closure* current_closure_ = nullptr;
  Closure local_closure_;
  std::optional<std::string> last_rhs_key_;  // for sort_unique_rhs reuse
};

/// Index nested-loop Psi join: for each outer row, probes the inner
/// table's M-Tree with the outer value's phonemes at the threshold radius
/// and fetches matching heap tuples (Table 3's join-with-approx-index
/// case).  Output schema: Concat(outer, inner_table).
class LexIndexJoinOp : public PhysicalOp {
 public:
  LexIndexJoinOp(ExecContext* ctx, OpPtr outer, const TableInfo* inner_table,
                 const IndexInfo* inner_index, size_t outer_col,
                 int threshold = -1);

  [[nodiscard]] Status OpenImpl() override;
  [[nodiscard]] StatusOr<bool> NextImpl(Row* out) override;
  [[nodiscard]] Status CloseImpl() override;
  const Schema& output_schema() const override { return schema_; }
  std::string DisplayName() const override;
  std::vector<const PhysicalOp*> Children() const override {
    return {outer_.get()};
  }

 private:
  OpPtr outer_;
  const TableInfo* inner_table_;
  const IndexInfo* inner_index_;
  size_t outer_col_;
  int threshold_;
  Schema schema_;

  Row outer_row_;
  bool outer_valid_ = false;
  std::vector<Rid> matches_;
  size_t match_pos_ = 0;
};

}  // namespace mural
