#include "exec/mural_ops.h"

#include <algorithm>

#include "common/string_util.h"
#include "common/thread_pool.h"
#include "catalog/tuple_codec.h"

namespace mural {

namespace {

/// The page loop of the fused operators: walks heap pages [begin, end) of
/// `table` through read guards and calls `visit(view, record)` for every
/// live record whose `key_col` is not NULL, `view` peeked zero-copy from
/// the page bytes (no per-record fetch, latch round-trip or copy).
template <typename Visit>
Status WalkHeapPages(const TableInfo& table, size_t key_col, size_t begin,
                     size_t end, const Visit& visit) {
  const std::vector<PageId>& pages = table.heap->pages();
  BufferPool* pool = table.heap->pool();
  for (size_t p = begin; p < end; ++p) {
    MURAL_ASSIGN_OR_RETURN(const ReadPageGuard guard, pool->Fetch(pages[p]));
    const Page* page = guard.get();
    for (SlotId s = 0; s < page->NumSlots(); ++s) {
      StatusOr<Slice> record = page->Get(s);
      if (!record.ok()) continue;  // tombstone
      UniTextColumnView view;
      MURAL_RETURN_IF_ERROR(TupleCodec::PeekUniText(
          table.schema, record->ToStringView(), key_col, &view));
      if (view.is_null) continue;  // NULL never matches (SQL WHERE)
      MURAL_RETURN_IF_ERROR(visit(view, record->ToStringView()));
    }
  }
  return Status::OK();
}

/// The phonemes of a peeked key: materialized ones in place, else G2P
/// counted through the phoneme cache into `*scratch` (TEXT columns take
/// the English rules).
std::string_view KeyPhonemes(const UniTextColumnView& view, bool text_col,
                             ExecContext* wctx, PhonemeString* scratch) {
  if (view.has_phonemes) return view.phonemes;
  *scratch = TransformPhonemesCounted(
      view.text, text_col ? lang::kEnglish : view.lang, wctx);
  return *scratch;
}

/// Runs `walk(begin, end, wctx, slot)` over [0, count) in morsels of
/// `morsel_size` on up to `dop` strips of ctx->thread_pool.  Each morsel
/// gets its own output slot and ExecContext::WorkerClone(); the clones'
/// stats are merged into ctx (and `own`, when given) in morsel order, so
/// slots and counters are the same at any DOP.
template <typename Slot, typename Walk>
StatusOr<std::vector<Slot>> RunMorsels(ExecContext* ctx, size_t count,
                                       size_t morsel_size, int dop,
                                       const Walk& walk,
                                       ExecStats* own = nullptr) {
  const size_t num_morsels = (count + morsel_size - 1) / morsel_size;
  std::vector<Slot> slots(num_morsels);
  std::vector<ExecContext> worker_ctxs(num_morsels, ctx->WorkerClone());
  MURAL_RETURN_IF_ERROR(ParallelMorsels(
      ctx->thread_pool, count, morsel_size, dop,
      [&](size_t m, size_t begin, size_t end) {
        return walk(begin, end, &worker_ctxs[m], &slots[m]);
      }));
  for (const ExecContext& wctx : worker_ctxs) {
    ctx->stats.Merge(wctx.stats);
    if (own != nullptr) own->Merge(wctx.stats);
  }
  return slots;
}

}  // namespace

LexSelectOp::LexSelectOp(ExecContext* ctx, const TableInfo* table,
                         size_t key_col, Value probe, int threshold_override,
                         ExprPtr residual, int dop, size_t morsel_pages)
    : PhysicalOp(ctx),
      table_(table),
      key_col_(key_col),
      probe_(std::move(probe)),
      threshold_override_(threshold_override),
      residual_(std::move(residual)),
      dop_(std::max(1, dop)),
      morsel_pages_(std::max<size_t>(1, morsel_pages)) {}

std::unique_ptr<LexSelectOp> LexSelectOp::SemSelect(
    ExecContext* ctx, const TableInfo* table, size_t key_col, Value probe,
    ExprPtr residual, int dop, size_t morsel_pages) {
  auto op = std::make_unique<LexSelectOp>(ctx, table, key_col,
                                          std::move(probe), -1,
                                          std::move(residual), dop,
                                          morsel_pages);
  op->kernel_ = Kernel::kOmega;
  return op;
}

Status LexSelectOp::OpenImpl() {
  matcher_.reset();
  sem_keys_.clear();
  closure_size_.reset();
  prepared_ = false;
  next_page_ = 0;
  matches_.clear();
  match_pos_ = 0;
  if (kernel_ == Kernel::kOmega) return OpenOmega();
  k_ = threshold_override_ >= 0 ? threshold_override_
                                : ctx_->lexequal_threshold;
  if (!probe_.is_null()) {
    // Hoisted once per scan, whatever the DOP; the Filter path re-resolves
    // the constant's phonemes per row (a cache hit each time).
    MURAL_ASSIGN_OR_RETURN(const PhonemeString probe_phonemes,
                           PhonemesOf(probe_, ctx_));
    matcher_.emplace(probe_phonemes, k_);
    prepared_ = true;
  }
  return Status::OK();
}

Status LexSelectOp::OpenOmega() {
  const Taxonomy* tax = ctx_->taxonomy;
  if (tax == nullptr) {
    // SemEqualExpr fails on the first row it evaluates, so the filter scan
    // fails on any non-empty table; this scan fails the same way.
    if (table_->heap->num_records() == 0) return Status::OK();
    return Status::InvalidArgument(
        "SemEQUAL requires a taxonomy pinned in the session");
  }
  if (probe_.is_null()) return Status::OK();  // NULL never matches
  if (probe_.type() != TypeId::kUniText) {
    return Status::InvalidArgument("SemEQUAL requires UNITEXT operands");
  }
  prepared_ = true;
  closure_size_ = 0;
  // The closure is resolved once per scan, as SemEqualExpr resolves it
  // per row: the union of the roots' closures, each taken from the
  // session cache when there is one.  A constant outside the taxonomy
  // leaves the key set empty; the scan still runs, so predicate_evals
  // counts every non-NULL key exactly as the Filter path does.
  const std::vector<SynsetId> roots = tax->Lookup(probe_.unitext());
  if (roots.empty()) return Status::OK();
  Closure computed;
  std::vector<const Closure*> parts;
  if (ctx_->closure_cache != nullptr) {
    for (const SynsetId root : roots) {
      const uint64_t misses_before = ctx_->closure_cache->misses();
      parts.push_back(&ctx_->closure_cache->Get(root));
      if (ctx_->closure_cache->misses() > misses_before) {
        ++ctx_->stats.closure_computations;
      } else {
        ++ctx_->stats.closure_reuses;
      }
    }
  } else {
    ++ctx_->stats.closure_computations;
    computed = tax->TransitiveClosureOfAll(roots);
    parts.push_back(&computed);
  }
  for (const Closure* part : parts) {
    for (const SynsetId id : *part) {
      const Synset& synset = tax->Get(id);
      sem_keys_.insert(LemmaKey{synset.lemma, synset.lang});
    }
  }
  if (parts.size() == 1) {
    closure_size_ = parts.front()->size();
  } else {
    Closure all;
    for (const Closure* part : parts) all.insert(part->begin(), part->end());
    closure_size_ = all.size();
  }
  return Status::OK();
}

template <typename KeyTest>
Status LexSelectOp::ScanPages(size_t begin, size_t end, ExecContext* wctx,
                              std::vector<Row>* out,
                              const KeyTest& matches) const {
  return WalkHeapPages(
      *table_, key_col_, begin, end,
      [&](const UniTextColumnView& view, std::string_view record) -> Status {
        ++wctx->stats.predicate_evals;
        if (!matches(view, wctx)) return Status::OK();
        Row row;
        MURAL_RETURN_IF_ERROR(
            TupleCodec::Deserialize(table_->schema, record, &row));
        if (residual_ != nullptr) {
          MURAL_ASSIGN_OR_RETURN(const bool pass,
                                 EvalPredicate(*residual_, row, wctx));
          if (!pass) return Status::OK();
        }
        out->push_back(std::move(row));
        return Status::OK();
      });
}

Status LexSelectOp::ScanMorsel(size_t begin, size_t end, ExecContext* wctx,
                               std::vector<Row>* out) const {
  // One kernel branch per morsel; each ScanPages instantiation inlines its
  // key test into the record loop.
  if (kernel_ == Kernel::kOmega) {
    return ScanPages(begin, end, wctx, out,
                     [this](const UniTextColumnView& view, ExecContext*) {
                       return sem_keys_.count(LemmaKey{view.text, view.lang}) >
                              0;
                     });
  }
  const bool text_col =
      table_->schema.column(key_col_).type == TypeId::kText;
  PhonemeString scratch;
  return ScanPages(
      begin, end, wctx, out,
      [&](const UniTextColumnView& view, ExecContext* w) {
        return matcher_->Distance(KeyPhonemes(view, text_col, w, &scratch),
                                  &w->stats.distance) <= k_;
      });
}

StatusOr<bool> LexSelectOp::ScanNextMorsels() {
  matches_.clear();
  match_pos_ = 0;
  const size_t num_pages = table_->heap->pages().size();
  while (matches_.empty()) {
    if (!prepared_ || next_page_ >= num_pages) return false;
    // Serial scans stream one morsel at a time, so a LIMIT above stops
    // the scan early.  Parallel scans run every remaining morsel in one
    // phase: one barrier per query instead of one per `dop_` morsels
    // (~8% faster at DOP 4 over 30k names on a 4-vCPU host).  Slots and
    // stats are gathered in morsel order (= page chain order = SeqScan
    // order).
    const size_t begin = next_page_;
    const size_t count =
        dop_ > 1 ? num_pages - begin
                 : std::min(num_pages - begin, morsel_pages_);
    next_page_ += count;
    const auto scan = [&](size_t m_begin, size_t m_end, ExecContext* wctx,
                          std::vector<Row>* slot) {
      return ScanMorsel(begin + m_begin, begin + m_end, wctx, slot);
    };
    MURAL_ASSIGN_OR_RETURN(
        std::vector<std::vector<Row>> slots,
        RunMorsels<std::vector<Row>>(ctx_, count, morsel_pages_, dop_, scan));
    for (std::vector<Row>& slot : slots) {
      for (Row& r : slot) matches_.push_back(std::move(r));
    }
  }
  return true;
}

StatusOr<bool> LexSelectOp::NextImpl(Row* out) {
  if (match_pos_ == matches_.size()) {
    MURAL_ASSIGN_OR_RETURN(const bool more, ScanNextMorsels());
    if (!more) return false;
  }
  *out = std::move(matches_[match_pos_++]);
  CountRow();
  return true;
}

StatusOr<bool> LexSelectOp::NextBatchImpl(RowBatch* out) {
  while (!out->full()) {
    if (match_pos_ == matches_.size()) {
      MURAL_ASSIGN_OR_RETURN(const bool more, ScanNextMorsels());
      if (!more) break;
    }
    *out->PushRow() = std::move(matches_[match_pos_++]);
  }
  CountRows(out->num_selected());
  return !out->empty();
}

Status LexSelectOp::CloseImpl() {
  matcher_.reset();
  sem_keys_.clear();
  prepared_ = false;
  matches_.clear();
  match_pos_ = 0;
  return Status::OK();
}

std::string LexSelectOp::DisplayName() const {
  const std::string column =
      table_->name + "." + table_->schema.column(key_col_).name;
  std::string out;
  if (kernel_ == Kernel::kOmega) {
    // The closure is resolved at Open: EXPLAIN ANALYZE re-renders this
    // name after execution and shows its size; a plain EXPLAIN shows '?'.
    out = "SemSelect(" + column + " SemEQUAL " + probe_.ToString() +
          ", closure=" +
          (closure_size_.has_value() ? std::to_string(*closure_size_) : "?");
  } else {
    out = "LexSelect(" + column + " LexEQUAL " + probe_.ToString();
    if (threshold_override_ >= 0) {
      out += StringFormat(" {t=%d}", threshold_override_);
    }
  }
  if (residual_ != nullptr) out += ", residual " + residual_->ToString();
  if (dop_ > 1) out += StringFormat(", dop=%d", dop_);
  out += StringFormat(", batch=%zu)", ctx_->batch_size);
  return out;
}

LexJoinOp::LexJoinOp(ExecContext* ctx, OpPtr outer, OpPtr inner,
                     size_t outer_col, size_t inner_col, Options options)
    : PhysicalOp(ctx),
      outer_(std::move(outer)),
      inner_(std::move(inner)),
      outer_col_(outer_col),
      inner_col_(inner_col),
      options_(options) {
  options_.morsel_pages = std::max<size_t>(1, options_.morsel_pages);
  Schema concat = Schema::Concat(
      outer_ != nullptr ? outer_->output_schema()
                        : options_.outer_table->schema,
      inner_ != nullptr ? inner_->output_schema()
                        : options_.inner_table->schema);
  if (options_.tag_distance) {
    std::vector<Column> cols = concat.columns();
    cols.emplace_back("psi_distance", TypeId::kInt32);
    schema_ = Schema(std::move(cols));
  } else {
    schema_ = std::move(concat);
  }
}

Status LexJoinOp::OpenImpl() {
  probe_ = ProbeSide();
  next_page_ = 0;
  gathered_ = MorselOut();
  pair_pos_ = 0;
  own_stats_.Reset();
  k_ = options_.threshold >= 0 ? options_.threshold
                               : ctx_->lexequal_threshold;
  if (outer_ != nullptr) MURAL_RETURN_IF_ERROR(outer_->Open());
  return DrainProbeSide();
}

Status LexJoinOp::DrainProbeSide() {
  PhysicalOp* child = walks_outer() ? inner_.get() : outer_.get();
  const size_t col = walks_outer() ? inner_col_ : outer_col_;
  if (child != outer_.get()) MURAL_RETURN_IF_ERROR(child->Open());
  // Phonemes are converted once per probe row (§4.2: the materialization
  // avoids repeated conversions during join processing).
  ExecContext dctx = ctx_->WorkerClone();
  std::vector<std::pair<PhonemeString, size_t>> keys;  // (phonemes, row)
  Row row;
  while (true) {
    MURAL_ASSIGN_OR_RETURN(const bool more, child->Next(&row));
    if (!more) break;
    if (!row[col].is_null()) {
      MURAL_ASSIGN_OR_RETURN(PhonemeString ph, PhonemesOf(row[col], &dctx));
      keys.emplace_back(std::move(ph), probe_.rows.size());
    }
    probe_.rows.push_back(std::move(row));
  }
  MURAL_RETURN_IF_ERROR(child->Close());
  ctx_->stats.Merge(dctx.stats);
  own_stats_.Merge(dctx.stats);
  std::stable_sort(keys.begin(), keys.end(), [](const auto& a, const auto& b) {
    return a.first.size() < b.first.size();
  });
  for (const auto& [phonemes, probe_row] : keys) {
    probe_.matchers.emplace_back(phonemes, k_);
    probe_.lengths.push_back(phonemes.size());
    probe_.row_of.push_back(probe_row);
  }
  num_matchers_ = probe_.matchers.size();
  return Status::OK();
}

bool LexJoinOp::Probe(std::string_view key, ExecContext* wctx,
                      MorselOut* out) const {
  const size_t total = probe_.matchers.size();
  wctx->stats.predicate_evals += total;
  // A negative threshold admits no pair and counts no kernel call
  // (BoundedDistanceCounted's convention).
  if (k_ < 0) return false;
  const size_t k = static_cast<size_t>(k_), n = key.size();
  const std::vector<size_t>& lengths = probe_.lengths;
  const size_t first = static_cast<size_t>(
      std::lower_bound(lengths.begin(), lengths.end(), n > k ? n - k : 0) -
      lengths.begin());
  const size_t last = static_cast<size_t>(
      std::upper_bound(lengths.begin(), lengths.end(), n + k) -
      lengths.begin());
  // Pairs outside the length window skip the kernel and are counted the
  // way the matcher counts a length-rejected call.
  wctx->stats.distance.calls += total - (last - first);
  const size_t first_pair = out->pairs.size();
  for (size_t i = first; i < last; ++i) {
    const int d = probe_.matchers[i].Distance(key, &wctx->stats.distance);
    if (d <= k_) {
      out->pairs.push_back(Pair{out->walked.size(), probe_.row_of[i], d});
    }
  }
  std::sort(out->pairs.begin() + first_pair, out->pairs.end(),
            [](const Pair& a, const Pair& b) { return a.probe < b.probe; });
  return out->pairs.size() > first_pair;
}

Status LexJoinOp::WalkPages(size_t begin, size_t end, ExecContext* wctx,
                            MorselOut* out) const {
  const TableInfo& table = *walked_table();
  const bool text_col =
      table.schema.column(walked_col()).type == TypeId::kText;
  PhonemeString scratch;
  return WalkHeapPages(
      table, walked_col(), begin, end,
      [&](const UniTextColumnView& view, std::string_view record) -> Status {
        if (!Probe(KeyPhonemes(view, text_col, wctx, &scratch), wctx, out)) {
          return Status::OK();
        }
        return TupleCodec::Deserialize(table.schema, record,
                                       &out->walked.emplace_back());
      });
}

Status LexJoinOp::WalkRows(size_t begin, size_t end, ExecContext* wctx,
                           MorselOut* out) {
  for (size_t i = begin; i < end; ++i) {
    const Value& v = pulled_[i][outer_col_];
    if (v.is_null()) continue;
    MURAL_ASSIGN_OR_RETURN(const PhonemeString ph, PhonemesOf(v, wctx));
    if (Probe(ph, wctx, out)) out->walked.push_back(std::move(pulled_[i]));
  }
  return Status::OK();
}

StatusOr<bool> LexJoinOp::WalkNextMorsels() {
  gathered_ = MorselOut();
  pair_pos_ = 0;
  const TableInfo* table = walked_table();
  // Parallel runs walk every remaining morsel in one phase, serial runs
  // one morsel at a time.  A walked inner side is reordered outer-major,
  // which needs all of it.
  const bool one_phase = options_.dop > 1 || !walks_outer();
  while (gathered_.pairs.empty()) {
    if (probe_.matchers.empty()) return false;  // no non-NULL probe key
    size_t begin = 0, count = 0, morsel = options_.morsel_pages;
    if (table != nullptr) {
      const size_t num_pages = table->heap->pages().size();
      if (next_page_ >= num_pages) return false;
      begin = next_page_;
      count = one_phase ? num_pages - begin
                        : std::min(num_pages - begin, morsel);
      next_page_ += count;
    } else {
      // Children are not thread-safe: rows are pulled here, then walked.
      morsel *= kRowsPerPage;
      pulled_.clear();
      Row row;
      while (one_phase || pulled_.size() < morsel) {
        MURAL_ASSIGN_OR_RETURN(const bool more, outer_->Next(&row));
        if (!more) break;
        pulled_.push_back(std::move(row));
      }
      if (pulled_.empty()) return false;
      count = pulled_.size();
    }
    const auto walk = [&](size_t m_begin, size_t m_end, ExecContext* wctx,
                          MorselOut* out) {
      return table != nullptr
                 ? WalkPages(begin + m_begin, begin + m_end, wctx, out)
                 : WalkRows(m_begin, m_end, wctx, out);
    };
    MURAL_ASSIGN_OR_RETURN(
        std::vector<MorselOut> slots,
        RunMorsels<MorselOut>(ctx_, count, morsel, options_.dop, walk,
                              &own_stats_));
    for (MorselOut& slot : slots) {
      for (Pair& pair : slot.pairs) pair.walked += gathered_.walked.size();
      gathered_.pairs.insert(gathered_.pairs.end(), slot.pairs.begin(),
                             slot.pairs.end());
      for (Row& r : slot.walked) gathered_.walked.push_back(std::move(r));
    }
  }
  if (!walks_outer()) {
    std::stable_sort(gathered_.pairs.begin(), gathered_.pairs.end(),
                     [](const Pair& a, const Pair& b) {
                       return a.probe < b.probe;
                     });
  }
  return true;
}

void LexJoinOp::EmitNextPair(Row* out) {
  const Pair& pair = gathered_.pairs[pair_pos_++];
  const Row& walked = gathered_.walked[pair.walked];
  const Row& probe = probe_.rows[pair.probe];
  out->clear();
  out->reserve(schema_.NumColumns());
  for (const Row* side : {walks_outer() ? &walked : &probe,
                          walks_outer() ? &probe : &walked}) {
    out->insert(out->end(), side->begin(), side->end());
  }
  if (options_.tag_distance) out->push_back(Value::Int32(pair.distance));
}

StatusOr<bool> LexJoinOp::NextImpl(Row* out) {
  if (pair_pos_ == gathered_.pairs.size()) {
    MURAL_ASSIGN_OR_RETURN(const bool more, WalkNextMorsels());
    if (!more) return false;
  }
  EmitNextPair(out);
  CountRow();
  return true;
}

StatusOr<bool> LexJoinOp::NextBatchImpl(RowBatch* out) {
  while (!out->full()) {
    if (pair_pos_ == gathered_.pairs.size()) {
      MURAL_ASSIGN_OR_RETURN(const bool more, WalkNextMorsels());
      if (!more) break;
    }
    EmitNextPair(out->PushRow());
  }
  CountRows(out->num_selected());
  return !out->empty();
}

Status LexJoinOp::CloseImpl() {
  probe_ = ProbeSide();
  pulled_.clear();
  gathered_ = MorselOut();
  // The probe child is closed by Open; closing it again is a no-op unless
  // Open failed mid-drain.
  const Status outer_st = outer_ != nullptr ? outer_->Close() : Status::OK();
  const Status inner_st = inner_ != nullptr ? inner_->Close() : Status::OK();
  MURAL_RETURN_IF_ERROR(outer_st);
  return inner_st;
}

std::string LexJoinOp::DisplayName() const {
  // A walked table is a leaf attribute of the join, not a child: its key
  // is named table.column.  The matcher count and cache counters are set
  // by Open; EXPLAIN ANALYZE re-renders this name after execution.
  const auto key = [](const PhysicalOp* child, const TableInfo* table,
                      size_t col) {
    return child != nullptr
               ? child->output_schema().column(col).name
               : table->name + "." + table->schema.column(col).name;
  };
  std::string name = StringFormat(
      "LexJoin(%s ~ %s, t=%d%s, matchers=%s, cache h=%llu m=%llu",
      key(outer_.get(), options_.outer_table, outer_col_).c_str(),
      key(inner_.get(), options_.inner_table, inner_col_).c_str(),
      options_.threshold >= 0 ? options_.threshold : ctx_->lexequal_threshold,
      options_.tag_distance ? ", tagged" : "",
      num_matchers_ ? std::to_string(*num_matchers_).c_str() : "?",
      static_cast<unsigned long long>(own_stats_.phoneme_cache_hits),
      static_cast<unsigned long long>(own_stats_.phoneme_cache_misses));
  if (options_.dop > 1) name += StringFormat(", dop=%d", options_.dop);
  return name + StringFormat(", batch=%zu)", ctx_->batch_size);
}

SemJoinOp::SemJoinOp(ExecContext* ctx, OpPtr lhs_child, OpPtr rhs_child,
                     size_t lhs_col, size_t rhs_col, Options options)
    : PhysicalOp(ctx),
      lhs_(std::move(lhs_child)),
      rhs_(std::move(rhs_child)),
      lhs_col_(lhs_col),
      rhs_col_(rhs_col),
      options_(options),
      schema_(Schema::Concat(lhs_->output_schema(),
                             rhs_->output_schema())) {}

Status SemJoinOp::ComputeClosureFor(const Value& rhs_value) {
  const Taxonomy& tax = *ctx_->taxonomy;
  const std::vector<SynsetId> roots = tax.Lookup(rhs_value.unitext());
  if (roots.empty()) {
    local_closure_.clear();
    current_closure_ = &local_closure_;
    return Status::OK();
  }
  if (options_.use_closure_cache && ctx_->closure_cache != nullptr &&
      roots.size() == 1) {
    const uint64_t misses_before = ctx_->closure_cache->misses();
    current_closure_ = &ctx_->closure_cache->Get(roots[0]);
    if (ctx_->closure_cache->misses() > misses_before) {
      ++ctx_->stats.closure_computations;
    } else {
      ++ctx_->stats.closure_reuses;
    }
    return Status::OK();
  }
  ++ctx_->stats.closure_computations;
  local_closure_ = tax.TransitiveClosureOfAll(roots);
  current_closure_ = &local_closure_;
  return Status::OK();
}

Status SemJoinOp::OpenImpl() {
  if (ctx_->taxonomy == nullptr) {
    return Status::InvalidArgument(
        "SemJoin requires a taxonomy pinned in the session");
  }
  // Materialize the probe (LHS) side.
  MURAL_RETURN_IF_ERROR(lhs_->Open());
  lhs_rows_.clear();
  Row row;
  while (true) {
    MURAL_ASSIGN_OR_RETURN(const bool more, lhs_->Next(&row));
    if (!more) break;
    lhs_rows_.push_back(row);
  }
  MURAL_RETURN_IF_ERROR(lhs_->Close());

  // Materialize the RHS (outer) side; sort for unique-closure processing
  // when requested.
  MURAL_RETURN_IF_ERROR(rhs_->Open());
  rhs_rows_.clear();
  while (true) {
    MURAL_ASSIGN_OR_RETURN(const bool more, rhs_->Next(&row));
    if (!more) break;
    rhs_rows_.push_back(row);
  }
  MURAL_RETURN_IF_ERROR(rhs_->Close());
  if (options_.sort_unique_rhs) {
    std::stable_sort(rhs_rows_.begin(), rhs_rows_.end(),
                     [this](const Row& a, const Row& b) {
                       return a[rhs_col_].Compare(b[rhs_col_]) < 0;
                     });
  }
  rhs_pos_ = 0;
  lhs_pos_ = 0;
  rhs_open_ = false;
  current_closure_ = nullptr;
  last_rhs_key_.reset();
  return Status::OK();
}

StatusOr<bool> SemJoinOp::NextImpl(Row* out) {
  while (true) {
    if (!rhs_open_) {
      if (rhs_pos_ >= rhs_rows_.size()) return false;
      const Value& rhs_value = rhs_rows_[rhs_pos_][rhs_col_];
      if (rhs_value.is_null() ||
          rhs_value.type() != TypeId::kUniText) {
        ++rhs_pos_;
        continue;
      }
      // With sorted RHS, equal consecutive values reuse the closure even
      // without the cache.
      const std::string key = rhs_value.unitext().text() + "\x1f" +
                              std::to_string(rhs_value.unitext().lang());
      if (!options_.sort_unique_rhs || !last_rhs_key_.has_value() ||
          *last_rhs_key_ != key) {
        MURAL_RETURN_IF_ERROR(ComputeClosureFor(rhs_value));
        last_rhs_key_ = key;
      } else {
        ++ctx_->stats.closure_reuses;
      }
      rhs_open_ = true;
      lhs_pos_ = 0;
    }
    const Row& rhs_row = rhs_rows_[rhs_pos_];
    while (lhs_pos_ < lhs_rows_.size()) {
      const Row& lhs_row = lhs_rows_[lhs_pos_++];
      const Value& lhs_value = lhs_row[lhs_col_];
      if (lhs_value.is_null() || lhs_value.type() != TypeId::kUniText) {
        continue;
      }
      ++ctx_->stats.predicate_evals;
      const std::vector<SynsetId> ids =
          ctx_->taxonomy->Lookup(lhs_value.unitext());
      bool match = false;
      for (SynsetId id : ids) {
        if (current_closure_->count(id) > 0) {
          match = true;
          break;
        }
      }
      if (!match) continue;
      out->clear();
      out->reserve(schema_.NumColumns());
      out->insert(out->end(), lhs_row.begin(), lhs_row.end());
      out->insert(out->end(), rhs_row.begin(), rhs_row.end());
      CountRow();
      return true;
    }
    rhs_open_ = false;
    ++rhs_pos_;
  }
}

Status SemJoinOp::CloseImpl() {
  lhs_rows_.clear();
  rhs_rows_.clear();
  current_closure_ = nullptr;
  // Both sides are normally drained and closed in Open; these are no-ops
  // unless a failed Open left one mid-drain.
  const Status lhs_st = lhs_->Close();
  const Status rhs_st = rhs_->Close();
  MURAL_RETURN_IF_ERROR(lhs_st);
  return rhs_st;
}

std::string SemJoinOp::DisplayName() const {
  return StringFormat(
      "SemJoin(%s under %s%s%s)",
      lhs_->output_schema().column(lhs_col_).name.c_str(),
      rhs_->output_schema().column(rhs_col_).name.c_str(),
      options_.use_closure_cache ? "" : ", no-cache",
      options_.sort_unique_rhs ? ", sorted-unique" : "");
}

}  // namespace mural

namespace mural {

LexIndexJoinOp::LexIndexJoinOp(ExecContext* ctx, OpPtr outer,
                               const TableInfo* inner_table,
                               const IndexInfo* inner_index,
                               size_t outer_col, int threshold)
    : PhysicalOp(ctx),
      outer_(std::move(outer)),
      inner_table_(inner_table),
      inner_index_(inner_index),
      outer_col_(outer_col),
      threshold_(threshold),
      schema_(Schema::Concat(outer_->output_schema(),
                             inner_table->schema)) {}

Status LexIndexJoinOp::OpenImpl() {
  outer_valid_ = false;
  matches_.clear();
  match_pos_ = 0;
  return outer_->Open();
}

StatusOr<bool> LexIndexJoinOp::NextImpl(Row* out) {
  const int k = threshold_ >= 0 ? threshold_ : ctx_->lexequal_threshold;
  std::string record;
  while (true) {
    if (!outer_valid_) {
      MURAL_ASSIGN_OR_RETURN(const bool more, outer_->Next(&outer_row_));
      if (!more) return false;
      const Value& v = outer_row_[outer_col_];
      matches_.clear();
      match_pos_ = 0;
      if (!v.is_null()) {
        MURAL_ASSIGN_OR_RETURN(const PhonemeString ph, PhonemesOf(v, ctx_));
        ++ctx_->stats.index_probes;
        MURAL_RETURN_IF_ERROR(inner_index_->index->SearchWithin(
            Value::Text(ph), k, &matches_));
      }
      outer_valid_ = true;
    }
    while (match_pos_ < matches_.size()) {
      const Rid rid = matches_[match_pos_++];
      MURAL_RETURN_IF_ERROR(inner_table_->heap->Get(rid, &record));
      Row inner_row;
      MURAL_RETURN_IF_ERROR(TupleCodec::Deserialize(inner_table_->schema,
                                                    record, &inner_row));
      out->clear();
      out->reserve(schema_.NumColumns());
      out->insert(out->end(), outer_row_.begin(), outer_row_.end());
      out->insert(out->end(), inner_row.begin(), inner_row.end());
      CountRow();
      return true;
    }
    outer_valid_ = false;
  }
}

Status LexIndexJoinOp::CloseImpl() {
  matches_.clear();
  return outer_->Close();
}

std::string LexIndexJoinOp::DisplayName() const {
  return StringFormat("LexIndexJoin(%s ~ %s.%s via %s, t=%d)",
                      outer_->output_schema().column(outer_col_).name.c_str(),
                      inner_table_->name.c_str(),
                      inner_index_->column.c_str(),
                      inner_index_->name.c_str(),
                      threshold_ >= 0 ? threshold_
                                      : ctx_->lexequal_threshold);
}

}  // namespace mural
