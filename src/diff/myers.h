// Myers O(ND) diff between two line sequences, emitted as unified-diff
// hunks with configurable context. The corpus simulator generates
// commits by mutating source files and diffing old vs new — exactly how
// git produces the patches the paper downloads.
#pragma once

#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "diff/patch.h"

namespace patchdb::diff {

struct DiffOptions {
  std::size_t context = 3;  // context lines around each change, like git
};

/// Compute hunks turning `old_lines` into `new_lines`. Empty result means
/// the files are identical. The views are only read during the call;
/// hunk lines own copies of the texts they show.
std::vector<Hunk> diff_lines(std::span<const std::string_view> old_lines,
                             std::span<const std::string_view> new_lines,
                             const DiffOptions& options = {});

/// Same hunks for owned lines (views over them, then the call above).
std::vector<Hunk> diff_lines(const std::vector<std::string>& old_lines,
                             const std::vector<std::string>& new_lines,
                             const DiffOptions& options = {});

/// Convenience: build a whole FileDiff (kModify, or kCreate/kDelete when
/// one side is empty) for a path.
FileDiff diff_file(const std::string& path, std::span<const std::string_view> old_lines,
                   std::span<const std::string_view> new_lines,
                   const DiffOptions& options = {});
FileDiff diff_file(const std::string& path, const std::vector<std::string>& old_lines,
                   const std::vector<std::string>& new_lines,
                   const DiffOptions& options = {});

}  // namespace patchdb::diff
