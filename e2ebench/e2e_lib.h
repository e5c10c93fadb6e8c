// The parts of the end-to-end benchmark that decide whether a number or an
// answer is right: latency percentiles and their sample-count rule, the
// line-protocol reply parser, and the reference checkers the benchmark
// compares every server answer against.  Kept apart from mural_e2e.cc so
// e2e_selftest.cc can test them without starting a server.

#pragma once

#include <cstddef>
#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "taxonomy/taxonomy.h"
#include "text/language.h"
#include "text/unitext.h"

namespace e2e {

// ------------------------------------------------------------ statistics

/// Nearest-rank quantile of `values` (q in (0, 1]): the smallest value
/// with at least q*n values at or below it.  0 when `values` is empty.
double Quantile(std::vector<double> values, double q);

/// The median of `values`: the mean of the two middle values when their
/// number is even.  0 when `values` is empty.
double Median(std::vector<double> values);

/// How many of n samples lie strictly beyond the nearest-rank q-quantile:
/// n - ceil(q*n).
size_t SamplesBeyond(size_t n, double q);

/// A q-quantile is reported only when at least `min_beyond` samples lie
/// beyond it; fewer would make the tail a handful of outliers.
bool TailSupported(size_t n, double q, size_t min_beyond = 10);

/// Mean of `values`; 0 when empty.
double Mean(const std::vector<double>& values);

// -------------------------------------------------------- line protocol

/// One server reply: the data lines and what the terminator said.
struct Reply {
  bool ok = false;
  std::vector<std::string> rows;
  uint64_t rows_reported = 0;  // rows=<n> from the terminator
  double runtime_ms = 0;
  double queue_wait_ms = 0;
  std::string error;  // "<Code>: <message>" when !ok
};

/// What the checker keeps of a reply: its status and an order-independent
/// digest of its rows.  Small, so a run can hold every reply it checks
/// without the benchmark's own memory showing in peak_rss_mb.
struct Outcome {
  bool ok = false;
  uint32_t rows_reported = 0;
  uint32_t rows = 0;
  float queue_wait_ms = 0;
  uint64_t digest = 0;
};

Outcome Summarize(const Reply& reply);

/// Digest of a multiset of rows: equal for any order of the same rows.
uint64_t RowDigest(const std::vector<std::string>& rows);

/// Feeds one received line into `reply`.  Returns true when the line was
/// the reply's terminator ("-- ok ..." or "-- error ..."); data lines are
/// appended to reply->rows.  A malformed "-- ok" terminator turns the
/// reply into an error.
bool ConsumeLine(const std::string& line, Reply* reply);

// ------------------------------------------------------ reference checks

/// One stored name as the reference checkers see it.
struct RefName {
  int32_t id = 0;
  std::string phonemes;  // the benchmark's own G2P of the generated name
  mural::LangId lang = 0;
  std::string rendered;  // the value as the server prints it: 'text'@Lang
};

/// Rows "<id> | <rendered>" of every name within Levenshtein distance
/// `theta` of `probe_phonemes` whose language is in `langs` (empty = all
/// languages), computed with the textbook O(m*n) Levenshtein of
/// distance/edit_distance.h behind an exact length filter.  Sorted.
std::vector<std::string> LexProbeReference(const std::string& probe_phonemes,
                                           int theta,
                                           const std::set<mural::LangId>& langs,
                                           const std::vector<RefName>& names);

/// Rows "<author id> | <publisher id>" of every (author, publisher) pair
/// within distance `theta`, for the given publishers.  Sorted.
std::vector<std::string> LexJoinReference(
    const std::vector<RefName>& authors,
    const std::vector<RefName>& publishers, int theta);

/// Number of `categories` entries with a sense inside the transitive
/// closure (equivalence links followed) of some sense of `concept_value`
/// — SemEQUAL's definition, evaluated with Taxonomy::TransitiveClosure.
/// `category_senses[i]` is Taxonomy::Lookup of the i-th category.
int64_t SemCountReference(
    const mural::Taxonomy& taxonomy, const mural::UniText& concept_value,
    const std::vector<std::vector<mural::SynsetId>>& category_senses);

}  // namespace e2e
