#include "feature/features.h"

#include <algorithm>
#include <limits>
#include <span>
#include <string>
#include <unordered_set>
#include <vector>

#include "analysis/analyze.h"
#include "lang/abstract.h"
#include "lang/lexer.h"
#include "lang/taxonomy.h"
#include "obs/metrics.h"
#include "util/levenshtein.h"
#include "util/thread_pool.h"

namespace patchdb::feature {

namespace {

constexpr std::array<std::string_view, kFeatureCount> kNames = {
    "changed_lines",
    "hunks",
    "added_lines", "removed_lines", "total_lines", "net_lines",
    "added_chars", "removed_chars", "total_chars", "net_chars",
    "added_ifs", "removed_ifs", "total_ifs", "net_ifs",
    "added_loops", "removed_loops", "total_loops", "net_loops",
    "added_calls", "removed_calls", "total_calls", "net_calls",
    "added_arith_ops", "removed_arith_ops", "total_arith_ops", "net_arith_ops",
    "added_rel_ops", "removed_rel_ops", "total_rel_ops", "net_rel_ops",
    "added_logic_ops", "removed_logic_ops", "total_logic_ops", "net_logic_ops",
    "added_bit_ops", "removed_bit_ops", "total_bit_ops", "net_bit_ops",
    "added_mem_ops", "removed_mem_ops", "total_mem_ops", "net_mem_ops",
    "added_vars", "removed_vars", "total_vars", "net_vars",
    "total_modified_funcs", "net_modified_funcs",
    "lev_mean_raw", "lev_min_raw", "lev_max_raw",
    "lev_mean_abs", "lev_min_abs", "lev_max_abs",
    "same_hunks_raw", "same_hunks_abs",
    "affected_files", "affected_files_pct",
    "affected_funcs", "affected_funcs_pct",
};

constexpr std::array<std::string_view, kSemanticFeatureCount> kSemanticNames = {
    "sem_resolved_diags",
    "sem_introduced_diags",
    "sem_net_unchecked_alloc",
    "sem_net_missing_bounds",
    "sem_net_use_after_free",
    "sem_net_int_overflow",
    "sem_net_null_guard",
    "sem_net_uninit_use",
    "sem_net_format_string",
    "sem_cfg_net_blocks",
    "sem_cfg_net_edges",
    "sem_cfg_net_cyclomatic",
};

constexpr std::array<std::string_view, kInterprocFeatureCount> kInterprocNames = {
    "ip_resolved_diags",
    "ip_introduced_diags",
    "ip_resolved_delta",
    "ip_introduced_delta",
    "ip_net_call_edges",
    "ip_changed_fan_in",
    "ip_changed_fan_out",
    "ip_summary_changes",
};

/// Write the added/removed/total/net quad for one syntactic category.
void write_quad(FeatureVector& v, std::size_t base, double added, double removed) {
  v[base] = added;
  v[base + 1] = removed;
  v[base + 2] = added + removed;
  v[base + 3] = added - removed;
}

/// One side (the removed or the added lines) of a patch, built hunk by
/// hunk. `joined` is each hunk's text followed by '\n', the text the
/// syntax counts read; `tokens` is its lex, built one hunk at a time so
/// the same tokens also feed that hunk's abstraction.
struct Side {
  std::string joined;
  std::vector<lang::Token> tokens;
  std::size_t next_line = 1;
  bool last_open = false;  // the latest hunk ended inside a token
  bool exact = true;       // tokens == lex(joined) so far

  void clear() {
    joined.clear();
    tokens.clear();
    next_line = 1;
    last_open = false;
    exact = true;
  }

  /// Append the hunk's `kind` lines. Returns their text, a view into
  /// `joined` valid until the next append; their tokens start at
  /// tokens[first].
  std::string_view append(const diff::Hunk& hunk, diff::LineKind kind,
                          std::size_t& first) {
    // A hunk that ended inside a token (an open block comment, a
    // continued directive, a literal ending in a backslash) would have
    // run into this one in a lex of the joined text.
    if (last_open) exact = false;
    const std::size_t start = joined.size();
    bool any = false;
    for (const diff::Line& line : hunk.lines) {
      if (line.kind != kind) continue;
      if (any) joined += '\n';
      joined += line.text;
      any = true;
    }
    const std::size_t length = joined.size() - start;
    joined += '\n';
    const std::string_view piece = std::string_view(joined).substr(start);
    first = tokens.size();
    last_open = !lang::lex_append(piece, tokens, next_line);
    next_line += static_cast<std::size_t>(std::count(piece.begin(), piece.end(), '\n'));
    return piece.substr(0, length);
  }

  lang::SyntaxCounts counts() const {
    if (exact) return lang::count_syntax(tokens);
    PATCHDB_COUNTER_ADD("feature.side_relexes", 1);
    return lang::count_syntax(joined);
  }
};

/// Per-thread buffers reused across extract() calls.
struct Buffers {
  Side removed;
  Side added;
  std::string removed_abs;
  std::string added_abs;
};

Buffers& local_buffers() {
  thread_local Buffers buffers;
  return buffers;
}

}  // namespace

std::span<const std::string_view> feature_names() { return kNames; }

std::span<const std::string_view> feature_names(FeatureSpace space) {
  if (space == FeatureSpace::kSyntactic) return kNames;
  static const std::array<std::string_view, kInterprocExtendedFeatureCount> kAll =
      [] {
        std::array<std::string_view, kInterprocExtendedFeatureCount> all{};
        std::copy(kNames.begin(), kNames.end(), all.begin());
        std::copy(kSemanticNames.begin(), kSemanticNames.end(),
                  all.begin() + kFeatureCount);
        std::copy(kInterprocNames.begin(), kInterprocNames.end(),
                  all.begin() + kExtendedFeatureCount);
        return all;
      }();
  if (space == FeatureSpace::kSemantic) {
    return {kAll.data(), kExtendedFeatureCount};
  }
  return kAll;
}

FeatureVector extract(const diff::Patch& patch, const RepoContext& repo) {
  FeatureVector v{};

  Buffers& buffers = local_buffers();
  Side& removed_side = buffers.removed;
  Side& added_side = buffers.added;
  removed_side.clear();
  added_side.clear();
  std::size_t added_chars = 0;
  std::size_t removed_chars = 0;

  std::vector<double> lev_raw;
  std::vector<double> lev_abs;
  std::size_t same_raw = 0;
  std::size_t same_abs = 0;

  std::unordered_set<std::string> touched_functions;
  std::size_t sectionless_hunks = 0;

  for (const diff::FileDiff& fd : patch.files) {
    for (const diff::Hunk& hunk : fd.hunks) {
      std::size_t removed_first = 0;
      std::size_t added_first = 0;
      const std::string_view removed =
          removed_side.append(hunk, diff::LineKind::kRemoved, removed_first);
      const std::string_view added =
          added_side.append(hunk, diff::LineKind::kAdded, added_first);
      added_chars += added.size();
      removed_chars += removed.size();

      if (!(removed.empty() && added.empty())) {
        lev_raw.push_back(static_cast<double>(util::levenshtein(removed, added)));
        lang::abstract_tokens(std::span(removed_side.tokens).subspan(removed_first),
                              buffers.removed_abs);
        lang::abstract_tokens(std::span(added_side.tokens).subspan(added_first),
                              buffers.added_abs);
        lev_abs.push_back(static_cast<double>(
            util::levenshtein(buffers.removed_abs, buffers.added_abs)));
        if (removed == added) ++same_raw;
        if (buffers.removed_abs == buffers.added_abs) ++same_abs;
      }

      if (!hunk.section.empty()) {
        // The section line is the enclosing function signature; dedupe on
        // its text to count distinct touched functions.
        touched_functions.insert(fd.new_path + "::" + hunk.section);
      } else {
        ++sectionless_hunks;
      }
    }
  }

  const lang::SyntaxCounts added = added_side.counts();
  const lang::SyntaxCounts removed = removed_side.counts();

  const double added_lines = static_cast<double>(patch.added_lines());
  const double removed_lines = static_cast<double>(patch.removed_lines());

  v[0] = added_lines + removed_lines;
  v[1] = static_cast<double>(patch.hunk_count());
  write_quad(v, 2, added_lines, removed_lines);
  write_quad(v, 6, static_cast<double>(added_chars), static_cast<double>(removed_chars));
  write_quad(v, 10, static_cast<double>(added.if_statements),
             static_cast<double>(removed.if_statements));
  write_quad(v, 14, static_cast<double>(added.loops), static_cast<double>(removed.loops));
  write_quad(v, 18, static_cast<double>(added.function_calls),
             static_cast<double>(removed.function_calls));
  write_quad(v, 22, static_cast<double>(added.arithmetic_ops),
             static_cast<double>(removed.arithmetic_ops));
  write_quad(v, 26, static_cast<double>(added.relational_ops),
             static_cast<double>(removed.relational_ops));
  write_quad(v, 30, static_cast<double>(added.logical_ops),
             static_cast<double>(removed.logical_ops));
  write_quad(v, 34, static_cast<double>(added.bitwise_ops),
             static_cast<double>(removed.bitwise_ops));
  write_quad(v, 38, static_cast<double>(added.memory_ops),
             static_cast<double>(removed.memory_ops));
  write_quad(v, 42, static_cast<double>(added.variables),
             static_cast<double>(removed.variables));

  const double total_funcs =
      static_cast<double>(touched_functions.size() + sectionless_hunks);
  v[46] = total_funcs;
  v[47] = static_cast<double>(added.function_defs) -
          static_cast<double>(removed.function_defs);

  auto write_lev = [&v](std::size_t base, const std::vector<double>& values) {
    if (values.empty()) return;  // stays 0
    double total = 0.0;
    double lo = std::numeric_limits<double>::max();
    double hi = 0.0;
    for (double d : values) {
      total += d;
      lo = std::min(lo, d);
      hi = std::max(hi, d);
    }
    v[base] = total / static_cast<double>(values.size());
    v[base + 1] = lo;
    v[base + 2] = hi;
  };
  write_lev(48, lev_raw);
  write_lev(51, lev_abs);
  v[54] = static_cast<double>(same_raw);
  v[55] = static_cast<double>(same_abs);

  const double files = static_cast<double>(patch.files.size());
  v[56] = files;
  if (repo.total_files > 0) {
    v[57] = files / static_cast<double>(repo.total_files);
  } else {
    // Fallback: fraction of listed files that actually carry hunks.
    double with_hunks = 0.0;
    for (const diff::FileDiff& fd : patch.files) with_hunks += !fd.hunks.empty();
    v[57] = files > 0.0 ? with_hunks / files : 0.0;
  }
  v[58] = total_funcs;
  if (repo.total_functions > 0) {
    v[59] = total_funcs / static_cast<double>(repo.total_functions);
  } else {
    const double hunks = v[1];
    v[59] = hunks > 0.0 ? total_funcs / hunks : 0.0;
  }
  return v;
}

FeatureVector extract(const diff::Patch& patch) { return extract(patch, RepoContext{}); }

ExtendedFeatureVector extract_extended(const diff::Patch& patch,
                                       const RepoContext& repo) {
  ExtendedFeatureVector e{};
  const FeatureVector base = extract(patch, repo);
  std::copy(base.begin(), base.end(), e.begin());

  const analysis::PatchAnalysis pa = analysis::analyze_patch(patch);
  e[60] = static_cast<double>(pa.resolved.size());
  e[61] = static_cast<double>(pa.introduced.size());
  for (std::size_t c = 0; c < analysis::kCheckerCount; ++c) {
    e[62 + c] = static_cast<double>(pa.resolved_by_checker[c]) -
                static_cast<double>(pa.introduced_by_checker[c]);
  }
  e[69] = static_cast<double>(pa.net_blocks);
  e[70] = static_cast<double>(pa.net_edges);
  e[71] = static_cast<double>(pa.net_cyclomatic);
  return e;
}

ExtendedFeatureVector extract_extended(const diff::Patch& patch) {
  return extract_extended(patch, RepoContext{});
}

InterprocFeatureVector extract_interproc(const diff::Patch& patch,
                                         const RepoContext& repo) {
  InterprocFeatureVector v{};
  const ExtendedFeatureVector base = extract_extended(patch, repo);
  std::copy(base.begin(), base.end(), v.begin());

  const analysis::PatchAnalysis ip =
      analysis::analyze_patch(patch, analysis::AnalyzeOptions{.interproc = true});
  v[72] = static_cast<double>(ip.resolved.size());
  v[73] = static_cast<double>(ip.introduced.size());
  // What only the cross-function view can see: interprocedural counts
  // minus the intraprocedural ones already sitting at dims 60/61.
  v[74] = v[72] - base[60];
  v[75] = v[73] - base[61];
  v[76] = static_cast<double>(ip.net_call_edges);
  v[77] = static_cast<double>(ip.changed_fan_in);
  v[78] = static_cast<double>(ip.changed_fan_out);
  v[79] = static_cast<double>(ip.summary_changes);
  return v;
}

InterprocFeatureVector extract_interproc(const diff::Patch& patch) {
  return extract_interproc(patch, RepoContext{});
}

FeatureMatrix extract_all(std::span<const diff::Patch* const> patches,
                          FeatureSpace space) {
  FeatureMatrix matrix(patches.size(), feature_dims(space));
  util::default_pool().parallel_for(
      patches.size(), [&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
          const diff::Patch& patch = *patches[i];
          if (space == FeatureSpace::kSyntactic) {
            matrix.set_row(i, extract(patch));
          } else if (space == FeatureSpace::kSemantic) {
            matrix.set_row(i, extract_extended(patch));
          } else {
            matrix.set_row(i, extract_interproc(patch));
          }
        }
      });
  return matrix;
}

FeatureMatrix extract_all(std::span<const diff::Patch> patches, FeatureSpace space) {
  std::vector<const diff::Patch*> pointers;
  pointers.reserve(patches.size());
  for (const diff::Patch& patch : patches) pointers.push_back(&patch);
  return extract_all(std::span<const diff::Patch* const>(pointers), space);
}

}  // namespace patchdb::feature
