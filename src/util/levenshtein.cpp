#include "util/levenshtein.h"

#include <cstdint>
#include <utility>
#include <vector>

namespace patchdb::util {

namespace {

constexpr std::size_t kWordBits = 64;

/// Per-thread kernel state. `peq[c * words + w]` has bit i set when
/// pattern byte 64·w + i equals c; it is all zero between calls, so a
/// call sets and clears only the m bits its pattern needs.
struct Kernel {
  std::vector<std::uint64_t> peq;
  std::vector<std::uint64_t> vp;  // vertical +1 deltas of the current column
  std::vector<std::uint64_t> vn;  // vertical -1 deltas
};

Kernel& local_kernel() {
  thread_local Kernel kernel;
  return kernel;
}

std::size_t byte(char c) { return static_cast<unsigned char>(c); }

}  // namespace

std::size_t levenshtein(std::string_view a, std::string_view b) {
  // A common prefix or suffix never changes the distance.
  while (!a.empty() && !b.empty() && a.front() == b.front()) {
    a.remove_prefix(1);
    b.remove_prefix(1);
  }
  while (!a.empty() && !b.empty() && a.back() == b.back()) {
    a.remove_suffix(1);
    b.remove_suffix(1);
  }
  if (a.size() < b.size()) std::swap(a, b);  // b is the pattern, the shorter
  const std::size_t m = b.size();
  if (m == 0) return a.size();

  const std::size_t words = (m + kWordBits - 1) / kWordBits;
  Kernel& k = local_kernel();
  if (k.peq.size() < 256 * words) k.peq.resize(256 * words, 0);
  for (std::size_t i = 0; i < m; ++i) {
    k.peq[byte(b[i]) * words + i / kWordBits] |= std::uint64_t{1} << (i % kWordBits);
  }
  k.vp.assign(words, ~std::uint64_t{0});
  k.vn.assign(words, 0);
  std::uint64_t* const vp = k.vp.data();
  std::uint64_t* const vn = k.vn.data();
  const std::uint64_t last = std::uint64_t{1} << ((m - 1) % kWordBits);

  // One DP column per text byte. Word w holds rows 64·w+1 .. 64·w+64;
  // it takes the horizontal delta leaving the word above it as the
  // delta of the row just above its first (+1 into word 0, since row 0
  // of the DP is 0, 1, 2, ...). The last word's delta at row m moves
  // the distance.
  std::size_t distance = m;
  for (const char c : a) {
    const std::uint64_t* const eq = &k.peq[byte(c) * words];
    std::uint64_t hp_in = 1;
    std::uint64_t hn_in = 0;
    for (std::size_t w = 0; w < words; ++w) {
      const std::uint64_t x = eq[w] | hn_in;
      const std::uint64_t d0 = (((x & vp[w]) + vp[w]) ^ vp[w]) | x | vn[w];
      std::uint64_t hp = vn[w] | ~(d0 | vp[w]);
      std::uint64_t hn = vp[w] & d0;
      if (w + 1 == words) {
        distance += (hp & last) != 0;
        distance -= (hn & last) != 0;
      }
      const std::uint64_t hp_out = hp >> (kWordBits - 1);
      const std::uint64_t hn_out = hn >> (kWordBits - 1);
      hp = (hp << 1) | hp_in;
      hn = (hn << 1) | hn_in;
      hp_in = hp_out;
      hn_in = hn_out;
      vp[w] = hn | ~(d0 | hp);
      vn[w] = hp & d0;
    }
  }

  for (std::size_t i = 0; i < m; ++i) k.peq[byte(b[i]) * words + i / kWordBits] = 0;
  return distance;
}

}  // namespace patchdb::util
