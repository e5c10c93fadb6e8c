#include "distance/bounded_myers.h"

#include <algorithm>
#include <cstring>
#include <vector>

namespace mural {

namespace {

/// Column loop of single-word Myers with the Ukkonen cut-off; requires
/// 1 <= m <= 64 and a prebuilt 256-entry Peq table for the pattern.
/// Returns the exact distance if <= k, else k+1; *words counts column
/// advances.
int OneWordColumns(const uint64_t* peq, size_t m, std::string_view b, int k,
                   uint64_t* words) {
  const size_t n = b.size();
  uint64_t pv = ~0ULL;
  uint64_t mv = 0;
  int score = static_cast<int>(m);
  const uint64_t high_bit = 1ULL << (m - 1);

  for (size_t j = 0; j < n; ++j) {
    const uint64_t eq = peq[static_cast<unsigned char>(b[j])];
    const uint64_t xv = eq | mv;
    const uint64_t xh = (((eq & pv) + pv) ^ pv) | eq;
    uint64_t ph = mv | ~(xh | pv);
    uint64_t mh = pv & xh;
    if (ph & high_bit) ++score;
    if (mh & high_bit) --score;
    ph = (ph << 1) | 1;
    mh = (mh << 1);
    pv = mh | ~(xv | ph);
    mv = ph & xv;
    ++*words;
    // Cut-off: score == D[m][j+1]; the remaining n-1-j columns can lower
    // the final distance by at most one each.
    if (score - static_cast<int>(n - 1 - j) > k) return k + 1;
  }
  return score;
}

/// Column loop of block-based Myers (Hyyro's extension) with the same
/// cut-off; requires m > 64, a prebuilt Peq table (peq[c * blocks + blk]),
/// and caller-provided pv/mv scratch of `blocks` words each (reset here).
int BlockColumns(const uint64_t* peq, size_t blocks, size_t m,
                 std::string_view b, int k, uint64_t* pv, uint64_t* mv,
                 uint64_t* words) {
  const size_t n = b.size();
  for (size_t blk = 0; blk < blocks; ++blk) {
    pv[blk] = ~0ULL;
    mv[blk] = 0;
  }
  int score = static_cast<int>(m);
  const size_t last = blocks - 1;
  const uint64_t last_bit = 1ULL << ((m - 1) % 64);

  for (size_t j = 0; j < n; ++j) {
    const uint64_t* eq_row =
        &peq[static_cast<size_t>(static_cast<unsigned char>(b[j])) * blocks];
    // hin: the horizontal delta D[blk*64][j+1] - D[blk*64][j] carried into
    // the block; +1 at the top boundary (row 0 holds j+1 vs j).
    int hin = 1;
    for (size_t blk = 0; blk < blocks; ++blk) {
      uint64_t eq = eq_row[blk];
      const uint64_t pvb = pv[blk];
      const uint64_t mvb = mv[blk];
      const uint64_t xv = eq | mvb;
      if (hin < 0) eq |= 1;
      const uint64_t xh = (((eq & pvb) + pvb) ^ pvb) | eq;
      uint64_t ph = mvb | ~(xh | pvb);
      uint64_t mh = pvb & xh;
      if (blk == last) {
        if (ph & last_bit) ++score;
        if (mh & last_bit) --score;
      }
      int hout = 0;
      if (ph >> 63) hout = 1;
      else if (mh >> 63) hout = -1;
      ph <<= 1;
      mh <<= 1;
      if (hin > 0) ph |= 1;
      else if (hin < 0) mh |= 1;
      pv[blk] = mh | ~(xv | ph);
      mv[blk] = ph & xv;
      hin = hout;
    }
    *words += blocks;
    if (score - static_cast<int>(n - 1 - j) > k) return k + 1;
  }
  return score;
}

void BuildOneWordPeq(std::string_view pattern, uint64_t* peq) {
  std::memset(peq, 0, 256 * sizeof(uint64_t));
  for (size_t i = 0; i < pattern.size(); ++i) {
    peq[static_cast<unsigned char>(pattern[i])] |= (1ULL << i);
  }
}

void BuildBlockPeq(std::string_view pattern, size_t blocks, uint64_t* peq) {
  std::memset(peq, 0, 256 * blocks * sizeof(uint64_t));
  for (size_t i = 0; i < pattern.size(); ++i) {
    peq[static_cast<size_t>(static_cast<unsigned char>(pattern[i])) * blocks +
        i / 64] |= (1ULL << (i % 64));
  }
}

}  // namespace

int BoundedMyersLevenshtein(std::string_view a, std::string_view b, int k) {
  return BoundedMyersLevenshteinCounted(a, b, k, nullptr);
}

int BoundedMyersLevenshteinCounted(std::string_view a, std::string_view b,
                                   int k, DistanceStats* stats) {
  if (k < 0) return 1;  // any distance exceeds a negative threshold
  if (a.size() > b.size()) std::swap(a, b);  // a is the pattern
  const size_t m = a.size(), n = b.size();
  if (stats != nullptr) ++stats->calls;
  // Length difference is a lower bound on the distance.
  if (n - m > static_cast<size_t>(k)) return k + 1;
  if (m == 0) return static_cast<int>(n);  // n <= k here

  uint64_t words = 0;
  int d;
  if (m <= 64) {
    uint64_t peq[256];
    BuildOneWordPeq(a, peq);
    d = OneWordColumns(peq, m, b, k, &words);
  } else {
    // One heap allocation per call for the per-block Peq table and carry
    // vectors — fine off the phoneme hot path, where patterns fit one
    // word (the hot path preps the table once via BoundedMyersMatcher).
    const size_t blocks = (m + 63) / 64;
    std::vector<uint64_t> peq(256 * blocks);
    BuildBlockPeq(a, blocks, peq.data());
    std::vector<uint64_t> pv(blocks), mv(blocks);
    d = BlockColumns(peq.data(), blocks, m, b, k, pv.data(), mv.data(),
                     &words);
  }
  if (stats != nullptr) {
    stats->cells += words;
    stats->word_ops += words;
  }
  return d <= k ? d : k + 1;
}

int MyersBlockLevenshtein(std::string_view a, std::string_view b) {
  // With k = max(m, n) the bound can never trip, so the result is exact.
  const int k = static_cast<int>(std::max(a.size(), b.size()));
  return BoundedMyersLevenshtein(a, b, k);
}

BoundedMyersMatcher::BoundedMyersMatcher(std::string_view pattern, int k)
    : pattern_(pattern), k_(k) {
  const size_t m = pattern_.size();
  if (m <= 64) {
    blocks_ = 0;
    BuildOneWordPeq(pattern_, peq_);
  } else {
    blocks_ = (m + 63) / 64;
    peq_blocks_.resize(256 * blocks_);
    BuildBlockPeq(pattern_, blocks_, peq_blocks_.data());
  }
}

int BoundedMyersMatcher::Distance(std::string_view text,
                                  DistanceStats* stats) const {
  // Mirrors BoundedDistanceCounted(pattern, text, k, stats) exactly —
  // same results, same counting rules — minus the per-call table build.
  if (k_ < 0) return 1;
  if (stats != nullptr) ++stats->calls;
  if (k_ == 0) return text == pattern_ ? 0 : 1;
  const size_t m = pattern_.size(), n = text.size();
  const size_t diff = m > n ? m - n : n - m;
  if (diff > static_cast<size_t>(k_)) return k_ + 1;
  if (m == 0) return static_cast<int>(n);  // n <= k_ here
  if (n == 0) return static_cast<int>(m);  // m <= k_ here

  uint64_t words = 0;
  int d;
  if (blocks_ == 0) {
    d = OneWordColumns(peq_, m, text, k_, &words);
  } else {
    std::vector<uint64_t> pv(blocks_), mv(blocks_);
    d = BlockColumns(peq_blocks_.data(), blocks_, m, text, k_, pv.data(),
                     mv.data(), &words);
  }
  if (stats != nullptr) {
    stats->cells += words;
    stats->word_ops += words;
  }
  return d <= k_ ? d : k_ + 1;
}

}  // namespace mural
