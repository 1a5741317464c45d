// Levenshtein (edit) distance between strings. Used by the Table I
// feature extractor (features 49-54: mean/min/max edit distance between
// the removed and added text of each hunk, before and after token
// abstraction).
#pragma once

#include <cstddef>
#include <string_view>

namespace patchdb::util {

/// Exact unit-cost edit distance over bytes. Myers' bit-vector algorithm
/// in Hyyrö's multi-word form: the shorter string is the pattern, and
/// each byte of the longer one advances ⌈m/64⌉ machine words. The
/// pattern table is a per-thread buffer reused across calls.
std::size_t levenshtein(std::string_view a, std::string_view b);

}  // namespace patchdb::util
