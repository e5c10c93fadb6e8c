// Self-tests of the benchmark's own logic: percentiles and the tail
// sample-count rule, the reply parser and digest, and the reference
// checkers.  Runs
// every check and exits non-zero if any failed; run.py runs it before
// every measurement.

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "distance/edit_distance.h"
#include "e2e_lib.h"

namespace {

int failures = 0;

void Check(bool ok, const char* what, int line) {
  if (ok) return;
  ++failures;
  std::fprintf(stderr, "e2e_selftest:%d: FAILED %s\n", line, what);
}

#define CHECK(cond) Check((cond), #cond, __LINE__)

void TestQuantiles() {
  using e2e::Quantile;
  CHECK(Quantile({}, 0.5) == 0);
  CHECK(Quantile({7}, 0.5) == 7);
  CHECK(Quantile({7}, 0.95) == 7);
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);  // unsorted input
  CHECK(Quantile(v, 0.5) == 50);
  CHECK(Quantile(v, 0.95) == 95);
  CHECK(Quantile(v, 1.0) == 100);
  CHECK(Quantile({1, 2, 3, 4}, 0.5) == 2);
  CHECK(Quantile({1, 2, 3}, 0.5) == 2);
  CHECK(e2e::Median({}) == 0);
  CHECK(e2e::Median({7.5, 6.5}) == 7);
  CHECK(e2e::Median({3, 1, 2}) == 2);
  CHECK(e2e::Median({4, 1, 3, 2}) == 2.5);
  CHECK(e2e::Mean({}) == 0);
  CHECK(e2e::Mean({1, 2, 3, 6}) == 3);
}

void TestTailRule() {
  using e2e::SamplesBeyond;
  using e2e::TailSupported;
  CHECK(SamplesBeyond(0, 0.95) == 0);
  CHECK(SamplesBeyond(100, 0.95) == 5);
  CHECK(SamplesBeyond(199, 0.95) == 9);   // rank ceil(189.05) = 190
  CHECK(SamplesBeyond(200, 0.95) == 10);
  CHECK(SamplesBeyond(1000, 0.95) == 50);
  CHECK(!TailSupported(199, 0.95));
  CHECK(TailSupported(200, 0.95));
  CHECK(!TailSupported(999, 0.99));
  CHECK(TailSupported(1000, 0.99));
  // The reported tail value really has that many samples above it.
  std::vector<double> v;
  for (int i = 1; i <= 200; ++i) v.push_back(i);
  const double p95 = e2e::Quantile(v, 0.95);
  size_t above = 0;
  for (const double x : v) above += x > p95;
  CHECK(above == SamplesBeyond(v.size(), 0.95));
}

void TestReplyParser() {
  e2e::Reply r;
  CHECK(!e2e::ConsumeLine("1 | 'nehru'@English", &r));
  CHECK(!e2e::ConsumeLine("2 | 'neru'@Hindi", &r));
  CHECK(e2e::ConsumeLine(
      "-- ok rows=2 runtime_ms=3.25 queue_wait_ms=0.50 session=7", &r));
  CHECK(r.ok);
  CHECK(r.rows.size() == 2 && r.rows_reported == 2);
  CHECK(r.rows[1] == "2 | 'neru'@Hindi");
  CHECK(r.runtime_ms == 3.25 && r.queue_wait_ms == 0.5);

  e2e::Reply e;
  CHECK(e2e::ConsumeLine("-- error Overloaded: queue full", &e));
  CHECK(!e.ok && e.error == "Overloaded: queue full");

  e2e::Reply bad;
  CHECK(e2e::ConsumeLine("-- ok rows=x", &bad));
  CHECK(!bad.ok);
}

e2e::RefName Name(int32_t id, const std::string& phonemes, mural::LangId lang) {
  e2e::RefName n;
  n.id = id;
  n.phonemes = phonemes;
  n.lang = lang;
  n.rendered = "'" + phonemes + "'@L" + std::to_string(lang);
  return n;
}

void TestLexReference() {
  const std::vector<e2e::RefName> names = {
      Name(1, "nehru", 1),    // d = 0
      Name(2, "neru", 2),     // d = 1
      Name(3, "nahro", 1),    // d = 2
      Name(4, "gandhi", 1),   // d = 6
      Name(5, "nehruji", 3),  // d = 2 (two insertions)
      Name(6, "", 1),         // d = 5: length filter rejects
      Name(7, "xehrux", 2),   // d = 2
  };
  std::vector<std::string> rows = e2e::LexProbeReference("nehru", 1, {}, names);
  CHECK(rows == (std::vector<std::string>{"1 | 'nehru'@L1", "2 | 'neru'@L2"}));
  rows = e2e::LexProbeReference("nehru", 2, {}, names);
  CHECK(rows.size() == 5);
  rows = e2e::LexProbeReference("nehru", 2, {2}, names);
  CHECK(rows == (std::vector<std::string>{"2 | 'neru'@L2", "7 | 'xehrux'@L2"}));
  rows = e2e::LexProbeReference("nehru", 0, {1, 3}, names);
  CHECK(rows == (std::vector<std::string>{"1 | 'nehru'@L1"}));

  // The length filter never drops a true match: brute force agrees on
  // every pair of short strings over a small alphabet.
  std::vector<std::string> strings = {""};
  for (size_t len = 1; len <= 4; ++len) {
    std::vector<std::string> next;
    for (const std::string& s : strings) {
      if (s.size() + 1 != len) continue;
      for (const char c : std::string("ab")) next.push_back(s + c);
    }
    strings.insert(strings.end(), next.begin(), next.end());
  }
  std::vector<e2e::RefName> all;
  for (size_t i = 0; i < strings.size(); ++i) {
    all.push_back(Name(static_cast<int32_t>(i), strings[i], 1));
  }
  for (int theta = 0; theta <= 3; ++theta) {
    for (const std::string& probe : strings) {
      size_t brute = 0;
      for (const std::string& s : strings) {
        brute += mural::Levenshtein(probe, s) <= theta;
      }
      CHECK(e2e::LexProbeReference(probe, theta, {}, all).size() == brute);
    }
  }

  const std::vector<e2e::RefName> publishers = {Name(10, "neru", 1),
                                                Name(11, "zzzzzz", 1)};
  rows = e2e::LexJoinReference(names, publishers, 1);
  CHECK(rows == (std::vector<std::string>{"1 | 10", "2 | 10"}));
}

void TestSemReference() {
  using mural::SynsetId;
  using mural::UniText;
  namespace lang = mural::lang;
  mural::Taxonomy tax;
  const SynsetId history = tax.AddSynset(lang::kEnglish, "history");
  const SynsetId war = tax.AddSynset(lang::kEnglish, "war");
  tax.AddSynset(lang::kEnglish, "art");
  const SynsetId itihas = tax.AddSynset(lang::kHindi, "itihas");
  const SynsetId yuddh = tax.AddSynset(lang::kHindi, "yuddh");
  CHECK(tax.AddIsA(war, history).ok());
  CHECK(tax.AddIsA(yuddh, itihas).ok());
  CHECK(tax.AddEquivalence(history, itihas).ok());

  const std::vector<UniText> categories = {
      UniText("war", lang::kEnglish),    UniText("art", lang::kEnglish),
      UniText("yuddh", lang::kHindi),    UniText("history", lang::kEnglish),
      UniText("unknown", lang::kEnglish)};
  std::vector<std::vector<SynsetId>> senses;
  for (const UniText& c : categories) senses.push_back(tax.Lookup(c));

  CHECK(e2e::SemCountReference(tax, UniText("history", lang::kEnglish),
                               senses) == 3);
  CHECK(e2e::SemCountReference(tax, UniText("itihas", lang::kHindi),
                               senses) == 3);
  CHECK(e2e::SemCountReference(tax, UniText("war", lang::kEnglish),
                               senses) == 1);
  CHECK(e2e::SemCountReference(tax, UniText("art", lang::kEnglish),
                               senses) == 1);
  CHECK(e2e::SemCountReference(tax, UniText("missing", lang::kEnglish),
                               senses) == 0);
}

void TestRowDigest() {
  using e2e::RowDigest;
  CHECK(RowDigest({"a", "b", "b"}) == RowDigest({"b", "a", "b"}));
  CHECK(RowDigest({"a", "b"}) != RowDigest({"a", "b", "b"}));
  CHECK(RowDigest({"a"}) != RowDigest({"b"}));
  CHECK(RowDigest({"1 | 2"}) != RowDigest({"2 | 1"}));
  CHECK(RowDigest({"ab", "c"}) != RowDigest({"a", "bc"}));
  CHECK(RowDigest({}) == 0);

  e2e::Reply reply;
  e2e::ConsumeLine("7 | x", &reply);
  e2e::ConsumeLine("-- ok rows=1 runtime_ms=0.1 queue_wait_ms=0.2 session=1",
                   &reply);
  const e2e::Outcome out = e2e::Summarize(reply);
  CHECK(out.ok && out.rows == 1 && out.rows_reported == 1);
  CHECK(out.digest == RowDigest({"7 | x"}) && out.queue_wait_ms == 0.2f);
}

}  // namespace

int main() {
  TestQuantiles();
  TestTailRule();
  TestReplyParser();
  TestLexReference();
  TestSemReference();
  TestRowDigest();
  if (failures > 0) {
    std::fprintf(stderr, "e2e_selftest: %d check(s) failed\n", failures);
    return 1;
  }
  std::printf("e2e_selftest: all checks passed\n");
  return 0;
}
