// Physical operators for the multilingual algebra (paper §3.2, §4):
//
//  - LexSelectOp: the fused multilingual select (Psi or Omega against a
//    constant), a page-wise, morsel-parallel heap walk with late
//    materialization.
//
//  - LexJoinOp (Psi join): phoneme-space approximate join.  The algebraic
//    Psi tags every pair of the Cartesian product with the phonemic edit
//    distance; this operator folds in the threshold selection (as every
//    query in the paper does) and optionally emits the distance as an
//    extra column for downstream operators.  It shares LexSelectOp's page
//    loop, morsels and gather: one side is drained into one prepared
//    matcher per phoneme string, the other walked page-wise (row-wise
//    when it is not a bare table), with rows and order equal to the
//    tuple-wise nested loop at any DOP.
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
/// workers), sharing the read-only kernel state (the prepared Psi
/// matcher, the Omega key set), each with its own
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
  /// > 1 runs every morsel in one phase on ctx->thread_pool (inline
  /// without one); 1 streams one morsel at a time.
  int dop = 1;
  /// Heap pages per morsel of a walked table (mirrors
  /// LexSelectOp::kMorselPages); a walked child is cut into morsels of
  /// morsel_pages * LexJoinOp::kRowsPerPage rows.  Tests shrink it to
  /// force multi-morsel runs at unit scale.
  size_t morsel_pages = LexSelectOp::kMorselPages;
  /// At most one side may be a bare table instead of a child operator
  /// (planner-provided): its heap is walked page-wise through read
  /// guards, and the table is a leaf attribute named in EXPLAIN.
  const TableInfo* outer_table = nullptr;
  const TableInfo* inner_table = nullptr;
};

/// The batched Psi join.  One side is the probe side: it is drained once
/// into its rows plus one prepared BoundedMyersMatcher per non-NULL
/// phoneme string (the Peq table is built once per probe value, not once
/// per pair), kept in length order.  The other side is walked in morsels
/// on the ParallelMorsels scheduler, each with its own context clone,
/// sharing the read-only matchers:
///
///  - the inner side is walked when it is a table (`inner_table`);
///  - otherwise the outer side is: its heap through read guards when it
///    is a table (`outer_table`), else the rows pulled from its child.
///
/// Per walked record the key is peeked zero-copy (materialized phonemes,
/// or G2P through the phoneme cache), only the matchers whose length is
/// within k of the key's run, and the record is deserialized on its first
/// match only.  The gather is in morsel order and pairs are kept in
/// outer-major, inner-minor order (a walked inner side is reordered), so
/// rows and their order equal the tuple-wise nested loop at any DOP.
/// predicate_evals and distance.calls count every non-NULL pair, as
/// Filter(NestedLoop, LexEQUAL) does: length-skipped pairs are counted in
/// bulk, the way BoundedMyersMatcher counts a length-rejected call.
/// Serial runs that walk the outer side stream one morsel at a time, so a
/// LIMIT above stops early; a walked inner side completes in one phase.
class LexJoinOp : public PhysicalOp {
 public:
  using Options = LexJoinOptions;

  /// Rows per morsel page when the walked side is a child operator: about
  /// one heap page of name rows.
  static constexpr size_t kRowsPerPage = 128;

  /// `outer` (`inner`) is null exactly when options.outer_table
  /// (options.inner_table) stands for that side.
  LexJoinOp(ExecContext* ctx, OpPtr outer, OpPtr inner, size_t outer_col,
            size_t inner_col, Options options = Options());

  [[nodiscard]] Status OpenImpl() override;
  [[nodiscard]] StatusOr<bool> NextImpl(Row* out) override;
  [[nodiscard]] StatusOr<bool> NextBatchImpl(RowBatch* out) override;
  [[nodiscard]] Status CloseImpl() override;
  const Schema& output_schema() const override { return schema_; }
  std::string DisplayName() const override;
  std::vector<const PhysicalOp*> Children() const override {
    std::vector<const PhysicalOp*> children;
    if (outer_ != nullptr) children.push_back(outer_.get());
    if (inner_ != nullptr) children.push_back(inner_.get());
    return children;
  }

 private:
  /// A result pair, before its row is assembled.
  struct Pair {
    size_t walked;  // index into MorselOut::walked
    size_t probe;   // index into ProbeSide::rows
    int distance;
  };
  /// One morsel's output (and the gather of the current morsels): the
  /// walked rows with at least one match, and their pairs in walked order,
  /// probe order within a walked row.
  struct MorselOut {
    std::vector<Row> walked;
    std::vector<Pair> pairs;
  };
  /// The drained probe side: its rows, and the matchers of its non-NULL
  /// keys sorted by (length, row); lengths[i] and row_of[i] describe
  /// matchers[i].
  struct ProbeSide {
    std::vector<Row> rows;
    std::vector<BoundedMyersMatcher> matchers;
    std::vector<size_t> lengths;
    std::vector<size_t> row_of;
  };

  bool walks_outer() const { return options_.inner_table == nullptr; }
  const TableInfo* walked_table() const {
    return walks_outer() ? options_.outer_table : options_.inner_table;
  }
  size_t walked_col() const { return walks_outer() ? outer_col_ : inner_col_; }

  [[nodiscard]] Status DrainProbeSide();
  /// Appends to `out` the pairs of `key` (the walked row about to be
  /// `out->walked.size()`), in probe order; true when there are any.
  bool Probe(std::string_view key, ExecContext* wctx, MorselOut* out) const;
  /// Walks heap pages [begin, end) of the walked table.
  [[nodiscard]] Status WalkPages(size_t begin, size_t end, ExecContext* wctx,
                                 MorselOut* out) const;
  /// Walks pulled_[begin, end), moving matched rows out.
  [[nodiscard]] Status WalkRows(size_t begin, size_t end, ExecContext* wctx,
                                MorselOut* out);
  /// Refills gathered_ from the next morsels; false once the walked side
  /// is exhausted.
  [[nodiscard]] StatusOr<bool> WalkNextMorsels();
  /// Assembles the output row of the next gathered pair.
  void EmitNextPair(Row* out);

  OpPtr outer_, inner_;
  size_t outer_col_, inner_col_;
  Options options_;
  Schema schema_;

  int k_ = 0;  // effective threshold, resolved at Open
  ProbeSide probe_;
  std::optional<size_t> num_matchers_;  // once Open drained the probe side
  size_t next_page_ = 0;     // first heap page not yet walked
  std::vector<Row> pulled_;  // walked child rows of the current morsels
  MorselOut gathered_;       // replayed by Next*
  size_t pair_pos_ = 0;
  ExecStats own_stats_;      // this operator's share, for the cache counters
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
