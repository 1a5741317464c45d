#include "diff/myers.h"

#include <algorithm>
#include <cstdint>

namespace patchdb::diff {

namespace {

enum class EditKind { kKeep, kRemove, kAdd };

struct Edit {
  EditKind kind;
  std::size_t index;  // index into old (kKeep/kRemove) or new (kAdd)
};

using Lines = std::span<const std::string_view>;

/// Offset of step d's block in the trace: block d holds the furthest x
/// on diagonals k = -d, -d+2, ..., d (slot j = (k + d) / 2), the only
/// diagonals step d writes and step d + 1 reads.
constexpr std::size_t block_start(std::size_t d) noexcept { return d * (d + 1) / 2; }

/// Myers greedy O((N+M)D) edit script, written into `script`. The trace
/// keeps (D+1)(D+2)/2 entries instead of a copy of the whole
/// 2(N+M)+1-entry diagonal array per step; every comparison reads the
/// same values, so the script is the same.
void edit_script(Lines a, Lines b, std::vector<Edit>& script) {
  script.clear();
  const std::size_t n = a.size();
  const std::size_t m = b.size();
  const std::size_t max_d = n + m;
  if (max_d == 0) return;

  thread_local std::vector<std::size_t> trace;
  trace.clear();
  std::size_t final_d = 0;
  bool found = false;
  for (std::size_t d = 0; d <= max_d && !found; ++d) {
    const std::size_t prev = d == 0 ? 0 : block_start(d - 1);
    const std::size_t cur = block_start(d);
    trace.resize(block_start(d + 1));
    for (std::size_t j = 0; j <= d; ++j) {
      const std::int64_t k = 2 * static_cast<std::int64_t>(j) - static_cast<std::int64_t>(d);
      std::size_t x;
      if (d == 0) {
        x = 0;
      } else if (j == 0 || (j != d && trace[prev + j - 1] < trace[prev + j])) {
        x = trace[prev + j];  // move down (insert from b)
      } else {
        x = trace[prev + j - 1] + 1;  // move right (delete from a)
      }
      std::size_t y = static_cast<std::size_t>(static_cast<std::int64_t>(x) - k);
      while (x < n && y < m && a[x] == b[y]) {
        ++x;
        ++y;
      }
      trace[cur + j] = x;
      if (x >= n && y >= m) {
        final_d = d;
        found = true;
        break;
      }
    }
  }

  // Backtrack through the trace to recover the script.
  std::int64_t x = static_cast<std::int64_t>(n);
  std::int64_t y = static_cast<std::int64_t>(m);
  for (std::size_t d = final_d; d > 0; --d) {
    const std::size_t prev = block_start(d - 1);
    const std::int64_t k = x - y;
    const std::size_t j = static_cast<std::size_t>((k + static_cast<std::int64_t>(d)) / 2);
    std::int64_t prev_k;
    std::int64_t prev_x;
    if (j == 0 || (j != d && trace[prev + j - 1] < trace[prev + j])) {
      prev_k = k + 1;
      prev_x = static_cast<std::int64_t>(trace[prev + j]);
    } else {
      prev_k = k - 1;
      prev_x = static_cast<std::int64_t>(trace[prev + j - 1]);
    }
    const std::int64_t prev_y = prev_x - prev_k;

    // Snake (diagonal keeps) back to the branch point.
    while (x > prev_x && y > prev_y) {
      script.push_back(Edit{EditKind::kKeep, static_cast<std::size_t>(x - 1)});
      --x;
      --y;
    }
    if (x == prev_x) {
      script.push_back(Edit{EditKind::kAdd, static_cast<std::size_t>(y - 1)});
      --y;
    } else {
      script.push_back(Edit{EditKind::kRemove, static_cast<std::size_t>(x - 1)});
      --x;
    }
  }
  while (x > 0 && y > 0) {
    script.push_back(Edit{EditKind::kKeep, static_cast<std::size_t>(x - 1)});
    --x;
    --y;
  }
  while (x > 0) {
    script.push_back(Edit{EditKind::kRemove, static_cast<std::size_t>(x - 1)});
    --x;
  }
  while (y > 0) {
    script.push_back(Edit{EditKind::kAdd, static_cast<std::size_t>(y - 1)});
    --y;
  }
  std::reverse(script.begin(), script.end());
}

std::vector<std::string_view> views_of(const std::vector<std::string>& lines) {
  return std::vector<std::string_view>(lines.begin(), lines.end());
}

}  // namespace

std::vector<Hunk> diff_lines(Lines old_lines, Lines new_lines,
                             const DiffOptions& options) {
  thread_local std::vector<Edit> script;
  edit_script(old_lines, new_lines, script);

  // Group the script into hunks: runs of changes separated by more than
  // 2*context keep-lines. Walk the script tracking both line counters.
  std::vector<Hunk> hunks;
  std::size_t i = 0;
  std::size_t old_line = 0;  // 0-based, lines consumed from old
  std::size_t new_line = 0;

  while (i < script.size()) {
    // Skip keeps to the next change.
    while (i < script.size() && script[i].kind == EditKind::kKeep) {
      ++old_line;
      ++new_line;
      ++i;
    }
    if (i >= script.size()) break;

    // Begin a hunk `context` lines before the change.
    Hunk hunk;
    const std::size_t lead = std::min(options.context, old_line);
    std::size_t h_old = old_line - lead;
    std::size_t h_new = new_line - lead;
    hunk.old_start = h_old + 1;
    hunk.new_start = h_new + 1;
    for (std::size_t c = 0; c < lead; ++c) {
      hunk.lines.push_back(Line{LineKind::kContext, std::string(old_lines[h_old + c])});
    }

    while (i < script.size()) {
      const Edit& e = script[i];
      if (e.kind == EditKind::kKeep) {
        // Look ahead: if the run of keeps reaches the end or exceeds
        // 2*context, close the hunk with `context` of them.
        std::size_t run = 0;
        while (i + run < script.size() && script[i + run].kind == EditKind::kKeep) {
          ++run;
        }
        const bool at_end = (i + run >= script.size());
        const bool closes = at_end || run > 2 * options.context;
        // A closing run contributes `context` lines; a short gap is
        // absorbed whole and the hunk continues.
        const std::size_t keep = closes ? std::min(options.context, run) : run;
        for (std::size_t c = 0; c < keep; ++c) {
          hunk.lines.push_back(Line{LineKind::kContext, std::string(old_lines[old_line])});
          ++old_line;
          ++new_line;
          ++i;
        }
        if (closes) break;
      } else if (e.kind == EditKind::kRemove) {
        hunk.lines.push_back(Line{LineKind::kRemoved, std::string(old_lines[e.index])});
        ++old_line;
        ++i;
      } else {
        hunk.lines.push_back(Line{LineKind::kAdded, std::string(new_lines[e.index])});
        ++new_line;
        ++i;
      }
    }

    hunk.old_count = 0;
    hunk.new_count = 0;
    for (const Line& l : hunk.lines) {
      if (l.kind != LineKind::kAdded) ++hunk.old_count;
      if (l.kind != LineKind::kRemoved) ++hunk.new_count;
    }
    // git's convention: a hunk with zero old lines anchors at the previous
    // line number (old_start is "insert after").
    if (hunk.old_count == 0) hunk.old_start = h_old;
    if (hunk.new_count == 0) hunk.new_start = h_new;
    hunks.push_back(std::move(hunk));
  }
  return hunks;
}

std::vector<Hunk> diff_lines(const std::vector<std::string>& old_lines,
                             const std::vector<std::string>& new_lines,
                             const DiffOptions& options) {
  return diff_lines(views_of(old_lines), views_of(new_lines), options);
}

FileDiff diff_file(const std::string& path, Lines old_lines, Lines new_lines,
                   const DiffOptions& options) {
  FileDiff fd;
  fd.old_path = path;
  fd.new_path = path;
  if (old_lines.empty() && !new_lines.empty()) fd.change = ChangeKind::kCreate;
  if (!old_lines.empty() && new_lines.empty()) fd.change = ChangeKind::kDelete;
  fd.hunks = diff_lines(old_lines, new_lines, options);
  return fd;
}

FileDiff diff_file(const std::string& path, const std::vector<std::string>& old_lines,
                   const std::vector<std::string>& new_lines,
                   const DiffOptions& options) {
  return diff_file(path, views_of(old_lines), views_of(new_lines), options);
}

}  // namespace patchdb::diff
