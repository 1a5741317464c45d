#include "corpus/repo.h"

#include <array>
#include <iterator>

#include "diff/myers.h"
#include "diff/render.h"
#include "util/hash.h"

namespace patchdb::corpus {

namespace {

constexpr std::array<std::string_view, 10> kAuthors = {
    "Alex Chen <alex@example.org>",      "Priya Natarajan <priya@example.org>",
    "Sam Okafor <sam@example.org>",      "Lena Fischer <lena@example.org>",
    "Marco Rossi <marco@example.org>",   "Yuki Tanaka <yuki@example.org>",
    "Dana Whitfield <dana@example.org>", "Omar Haddad <omar@example.org>",
    "Ingrid Sol <ingrid@example.org>",   "Pavel Novak <pavel@example.org>",
};

constexpr std::array<std::string_view, 12> kMonths = {
    "Jan", "Feb", "Mar", "Apr", "May", "Jun",
    "Jul", "Aug", "Sep", "Oct", "Nov", "Dec",
};

std::string draw_date(util::Rng& rng) {
  const int year = 1999 + static_cast<int>(rng.index(21));  // 1999..2019
  const auto month = kMonths[rng.index(kMonths.size())];
  const int day = 1 + static_cast<int>(rng.index(28));
  const int hour = static_cast<int>(rng.index(24));
  const int minute = static_cast<int>(rng.index(60));
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*s %d %02d:%02d:00 %d +0000",
                static_cast<int>(month.size()), month.data(), day, hour, minute,
                year);
  return buf;
}

/// The commit id over the patch's diffs, message and a hex salt drawn
/// from `rng`.
std::string commit_id(const diff::Patch& patch, util::Rng& rng) {
  char salt[16];
  util::write_hex(rng(), salt);
  return diff::commit_id_of(patch.files, patch.message, std::string_view(salt, sizeof(salt)));
}

/// One touched C file: neighbors + the mutated target function. Each
/// function is built once into `functions`; both versions of the file
/// are views over them, sharing every slot but the target's and a
/// bundled cleanup's.
struct BuiltFile {
  BuiltFile() = default;
  BuiltFile(BuiltFile&&) = default;
  BuiltFile& operator=(BuiltFile&&) = default;
  // A copy's views would still point into the original's functions.
  BuiltFile(const BuiltFile&) = delete;
  BuiltFile& operator=(const BuiltFile&) = delete;

  std::string path;
  std::vector<std::vector<std::string>> functions;
  FileVersions lines;
};

BuiltFile build_target_file(util::Rng& rng, PatchType type,
                            const CommitOptions& options, std::string* message) {
  const FunctionContext ctx = draw_context(rng);
  MutationResult mutation = make_mutation(rng, ctx, type);
  if (message != nullptr && message->empty()) *message = std::move(mutation.message);

  const std::size_t span = options.max_neighbor_functions + 1 -
                           options.min_neighbor_functions;
  const std::size_t neighbors =
      options.min_neighbor_functions + (span > 0 ? rng.index(span) : 0);

  BuiltFile file;
  // Room for the target's two versions, every neighbor and one bundled
  // cleanup: `slots` points into this storage, so it must not reallocate.
  std::vector<std::vector<std::string>>& functions = file.functions;
  functions.reserve(neighbors + 3);
  std::vector<FunctionVersions> slots;
  slots.reserve(neighbors + 1);
  auto store = [&functions](std::vector<std::string> fn) {
    functions.push_back(std::move(fn));
    return &functions.back();
  };

  const std::size_t target_slot = neighbors == 0 ? 0 : rng.index(neighbors + 1);
  const bool bundle = is_security_type(type) && neighbors > 0 &&
                      rng.chance(options.bundle_cleanup_prob);
  bool bundled = false;
  for (std::size_t slot = 0; slot <= neighbors; ++slot) {
    if (slot == target_slot) {
      const auto* before = store(std::move(mutation.before));
      slots.push_back({before, store(std::move(mutation.after))});
      continue;
    }
    const FunctionContext other = draw_context(rng);
    std::vector<std::string> body = filler_statements(rng, other, 3 + rng.index(5));
    if (bundle && !bundled) {
      // Unrelated drive-by cleanup riding along with the fix.
      std::vector<std::string> touched = body;
      std::vector<std::string> extra = filler_statements(rng, other, 1 + rng.index(2));
      touched.insert(touched.begin() + static_cast<std::ptrdiff_t>(
                                           rng.index(touched.size() + 1)),
                     std::make_move_iterator(extra.begin()),
                     std::make_move_iterator(extra.end()));
      const auto* before = store(make_function(other, std::move(body)));
      slots.push_back({before, store(make_function(other, std::move(touched)))});
      bundled = true;
    } else {
      const auto* fn = store(make_function(other, std::move(body)));
      slots.push_back({fn, fn});
    }
  }

  file.path = draw_file_name(rng);
  // The file wrapper draws from its own rng, seeded here, once for both
  // versions.
  util::Rng wrapper_rng(rng());
  file.lines = make_file(wrapper_rng, slots);
  return file;
}

}  // namespace

PatchType draw_patch_type(util::Rng& rng, const TypeDistribution& dist,
                          double security_prob) {
  if (rng.chance(security_prob)) {
    const std::size_t idx = rng.weighted(std::span(dist.data(), dist.size()));
    return security_types()[idx];
  }
  // Non-security mix modeled on what GitHub histories actually contain:
  // features/refactors dominate, but a substantial share of commits are
  // defensive hardening that reads exactly like a security fix. The 18%
  // defensive share calibrates the nearest-link candidate precision into
  // the paper's 22-30% band (Table II) at an 8% security base rate.
  static constexpr double kNonSecWeights[] = {
      0.16,  // kNewFeature
      0.15,  // kRefactor
      0.11,  // kPerfFix
      0.14,  // kLogicBugFix
      0.10,  // kStyle
      0.12,  // kDocs
      0.22,  // kDefensive
  };
  const auto kinds = nonsecurity_types();
  static_assert(std::size(kNonSecWeights) == 7);
  return kinds[rng.weighted(kNonSecWeights)];
}

CommitRecord make_commit(util::Rng& rng, const std::string& repo_name,
                         PatchType type, const CommitOptions& options) {
  CommitRecord record;
  record.repo = repo_name;
  record.truth.is_security = is_security_type(type);
  record.truth.type = type;

  std::string message;
  std::vector<BuiltFile> files;
  files.reserve(2);
  files.push_back(build_target_file(rng, type, options, &message));
  if (rng.chance(options.multi_file_prob)) {
    files.push_back(build_target_file(rng, type, options, nullptr));
  }

  diff::Patch& patch = record.patch;
  patch.message = message;
  patch.author = std::string(kAuthors[rng.index(kAuthors.size())]);
  patch.date = draw_date(rng);

  for (const BuiltFile& file : files) {
    const std::vector<std::string_view>& before = file.lines.before;
    const std::vector<std::string_view>& after = file.lines.after;
    diff::FileDiff fd = diff::diff_file(file.path, before, after);
    // Stamp hunk sections with the enclosing function name like git does;
    // cheap approximation: use the first function signature above the hunk.
    for (diff::Hunk& hunk : fd.hunks) {
      for (std::size_t line = std::min(hunk.old_start, before.size()); line-- > 0;) {
        if (before[line].starts_with("static ")) {
          hunk.section = before[line];
          break;
        }
      }
    }
    patch.files.push_back(std::move(fd));
    if (options.keep_snapshots) {
      record.snapshots.push_back(FileSnapshot{
          file.path, std::vector<std::string>(before.begin(), before.end()),
          std::vector<std::string>(after.begin(), after.end())});
    }
  }

  if (rng.chance(options.noise_file_prob)) {
    // Companion documentation change the C/C++ filter must strip.
    diff::FileDiff doc;
    doc.old_path = "ChangeLog";
    doc.new_path = "ChangeLog";
    diff::Hunk hunk;
    hunk.old_start = 1;
    hunk.old_count = 1;
    hunk.new_start = 1;
    hunk.new_count = 2;
    hunk.lines.push_back(diff::Line{diff::LineKind::kAdded, "* " + message});
    hunk.lines.push_back(
        diff::Line{diff::LineKind::kContext, "* previous release notes"});
    doc.hunks.push_back(std::move(hunk));
    patch.files.push_back(std::move(doc));
  }

  if (record.truth.is_security && rng.chance(options.euphemize_prob)) {
    // Euphemisms deliberately reuse the vocabulary of ordinary
    // maintenance commits, as real silent fixes do — a text miner must
    // not be able to separate them lexically.
    static constexpr std::array<std::string_view, 8> kEuphemisms = {
        "fix corner case", "improve error handling", "minor cleanup",
        "simplify logic", "fix rare crash", "code cleanup",
        "fix regression from earlier refactor", "address intermittent failure",
    };
    patch.message = std::string(kEuphemisms[rng.index(kEuphemisms.size())]);
    if (rng.chance(0.6)) {
      // often still naming the touched function, like every other commit
      patch.message += " in " + (message.empty() ? "core" : message.substr(
                                     message.find_last_of(' ') + 1));
    }
  }

  patch.commit = commit_id(patch, rng);
  return record;
}

CommitRecord make_version_bump_commit(util::Rng& rng,
                                      const std::string& repo_name) {
  CommitRecord record;
  record.repo = repo_name;
  record.truth.is_security = false;
  record.truth.type = PatchType::kNewFeature;

  diff::Patch& patch = record.patch;
  patch.message = "release: import version " + std::to_string(1 + rng.index(9)) +
                  "." + std::to_string(rng.index(20));
  patch.author = std::string(kAuthors[rng.index(kAuthors.size())]);
  patch.date = draw_date(rng);

  // A pile of unrelated whole-function changes across many files.
  const std::size_t n_files = 6 + rng.index(8);
  for (std::size_t i = 0; i < n_files; ++i) {
    const FunctionContext ctx = draw_context(rng);
    const std::vector<std::string> old_fn =
        make_function(ctx, filler_statements(rng, ctx, 4 + rng.index(4)));
    const std::vector<std::string> new_fn =
        make_function(ctx, filler_statements(rng, ctx, 4 + rng.index(6)));
    patch.files.push_back(diff::diff_file(draw_file_name(rng), old_fn, new_fn));
  }
  patch.commit = commit_id(patch, rng);
  return record;
}

}  // namespace patchdb::corpus
