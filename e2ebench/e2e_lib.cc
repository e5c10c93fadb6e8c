#include "e2e_lib.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>

#include "distance/edit_distance.h"

namespace e2e {

namespace {

size_t RankOf(size_t n, double q) {
  const double rank = std::ceil(q * static_cast<double>(n));
  if (rank < 1) return 1;
  return std::min(n, static_cast<size_t>(rank));
}

bool StartsWith(const std::string& s, const char* prefix) {
  return s.rfind(prefix, 0) == 0;
}

/// Reads "<key>=<number>" out of a terminator line.
bool ReadField(const std::string& line, const char* key, double* out) {
  const std::string needle = std::string(" ") + key + "=";
  const size_t at = line.find(needle);
  if (at == std::string::npos) return false;
  const char* begin = line.c_str() + at + needle.size();
  char* end = nullptr;
  *out = std::strtod(begin, &end);
  return end != begin;
}

bool WithinTheta(const std::string& a, const std::string& b, int theta) {
  const long gap = static_cast<long>(a.size()) - static_cast<long>(b.size());
  if (std::labs(gap) > theta) return false;  // distance >= length gap
  return mural::Levenshtein(a, b) <= theta;
}

}  // namespace

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  const size_t rank = RankOf(values.size(), q);
  std::nth_element(values.begin(), values.begin() + (rank - 1),
                   values.end());
  return values[rank - 1];
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  const size_t mid = values.size() / 2;
  std::nth_element(values.begin(), values.begin() + mid, values.end());
  const double upper = values[mid];
  if (values.size() % 2 == 1) return upper;
  return (*std::max_element(values.begin(), values.begin() + mid) + upper) /
         2;
}

size_t SamplesBeyond(size_t n, double q) {
  if (n == 0) return 0;
  return n - RankOf(n, q);
}

bool TailSupported(size_t n, double q, size_t min_beyond) {
  return SamplesBeyond(n, q) >= min_beyond;
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0;
  double sum = 0;
  for (const double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

bool ConsumeLine(const std::string& line, Reply* reply) {
  if (StartsWith(line, "-- ok")) {
    double rows = 0;
    const bool parsed = ReadField(line, "rows", &rows) &&
                        ReadField(line, "runtime_ms", &reply->runtime_ms) &&
                        ReadField(line, "queue_wait_ms",
                                  &reply->queue_wait_ms);
    reply->ok = parsed;
    reply->rows_reported = static_cast<uint64_t>(rows);
    if (!parsed) reply->error = "malformed terminator: " + line;
    return true;
  }
  if (StartsWith(line, "-- error")) {
    reply->ok = false;
    reply->error = line.size() > 9 ? line.substr(9) : line;
    return true;
  }
  reply->rows.push_back(line);
  return false;
}

std::vector<std::string> LexProbeReference(
    const std::string& probe_phonemes, int theta,
    const std::set<mural::LangId>& langs, const std::vector<RefName>& names) {
  std::vector<std::string> rows;
  for (const RefName& name : names) {
    if (!langs.empty() && langs.count(name.lang) == 0) continue;
    if (WithinTheta(probe_phonemes, name.phonemes, theta)) {
      rows.push_back(std::to_string(name.id) + " | " + name.rendered);
    }
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

std::vector<std::string> LexJoinReference(
    const std::vector<RefName>& authors,
    const std::vector<RefName>& publishers, int theta) {
  std::vector<std::string> rows;
  for (const RefName& p : publishers) {
    for (const RefName& a : authors) {
      if (WithinTheta(a.phonemes, p.phonemes, theta)) {
        rows.push_back(std::to_string(a.id) + " | " + std::to_string(p.id));
      }
    }
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

int64_t SemCountReference(
    const mural::Taxonomy& taxonomy, const mural::UniText& concept_value,
    const std::vector<std::vector<mural::SynsetId>>& category_senses) {
  mural::Closure closure;
  for (const mural::SynsetId root : taxonomy.Lookup(concept_value)) {
    const mural::Closure part = taxonomy.TransitiveClosure(root);
    closure.insert(part.begin(), part.end());
  }
  int64_t count = 0;
  for (const std::vector<mural::SynsetId>& senses : category_senses) {
    for (const mural::SynsetId id : senses) {
      if (closure.count(id) > 0) {
        ++count;
        break;
      }
    }
  }
  return count;
}

uint64_t RowDigest(const std::vector<std::string>& rows) {
  uint64_t digest = 0;
  for (const std::string& row : rows) {
    uint64_t h = 0xcbf29ce484222325ULL;  // FNV-1a, then a 64-bit mixer
    for (const char ch : row) {
      h = (h ^ static_cast<unsigned char>(ch)) * 0x100000001b3ULL;
    }
    h = (h ^ (h >> 33)) * 0xff51afd7ed558ccdULL;
    h = (h ^ (h >> 33)) * 0xc4ceb9fe1a85ec53ULL;
    digest += h ^ (h >> 33);  // a sum, so row order does not matter
  }
  return digest;
}

Outcome Summarize(const Reply& reply) {
  Outcome out;
  out.ok = reply.ok;
  out.rows_reported = static_cast<uint32_t>(reply.rows_reported);
  out.rows = static_cast<uint32_t>(reply.rows.size());
  out.queue_wait_ms = static_cast<float>(reply.queue_wait_ms);
  out.digest = RowDigest(reply.rows);
  return out;
}

}  // namespace e2e
