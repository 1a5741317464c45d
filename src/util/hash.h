// Hashing helpers: FNV-1a for content hashing and deterministic
// generation of git-style 40-hex commit identifiers for the simulated
// repositories.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace patchdb::util {

constexpr std::uint64_t fnv1a64(std::string_view data,
                                std::uint64_t seed = 0xcbf29ce484222325ULL) noexcept {
  std::uint64_t h = seed;
  for (char c : data) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// Write the top `digits` hex digits of `value`, lowercase, to `out`.
inline void write_hex(std::uint64_t value, char* out, int digits = 16) noexcept {
  static constexpr char kDigits[] = "0123456789abcdef";
  value >>= 4 * (16 - digits);
  for (int i = digits - 1; i >= 0; --i) {
    out[i] = kDigits[value & 0xF];
    value >>= 4;
  }
}

/// Render a 64-bit value as fixed-width lowercase hex.
inline std::string to_hex(std::uint64_t value) {
  std::string out(16, '0');
  write_hex(value, out.data());
  return out;
}

/// The three FNV-1a lanes behind a commit id, updated together in one
/// pass over the content. Feeding the content in pieces gives the same
/// lanes as feeding it whole.
class CommitIdHasher {
 public:
  CommitIdHasher& update(std::string_view data) noexcept {
    std::uint64_t a = a_;
    std::uint64_t b = b_;
    std::uint64_t c = c_;
    for (char ch : data) {
      const auto byte = static_cast<std::uint8_t>(ch);
      a = (a ^ byte) * kFnvPrime;
      b = (b ^ byte) * kFnvPrime;
      c = (c ^ byte) * kFnvPrime;
    }
    a_ = a;
    b_ = b;
    c_ = c;
    return *this;
  }

  /// 40 hex chars: lanes a and b in full, then the top half of lane c.
  std::string id() const {
    std::string out(40, '0');
    write_hex(a_, out.data());
    write_hex(b_, out.data() + 16);
    write_hex(c_, out.data() + 32, 8);
    return out;
  }

 private:
  static constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;
  std::uint64_t a_ = 0xcbf29ce484222325ULL;
  std::uint64_t b_ = 0x84222325cbf29ce4ULL;
  std::uint64_t c_ = 0x9e3779b97f4a7c15ULL;
};

/// Deterministic git-style commit id (40 hex chars) derived from content.
inline std::string commit_id(std::string_view content) {
  return CommitIdHasher().update(content).id();
}

}  // namespace patchdb::util
