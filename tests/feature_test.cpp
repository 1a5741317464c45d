// Tests for the 60-dimension Table I feature extractor.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "corpus/mutate.h"
#include "corpus/repo.h"
#include "corpus/world.h"
#include "diff/parse.h"
#include "feature/features.h"
#include "lang/abstract.h"
#include "lang/taxonomy.h"
#include "levenshtein_oracle.h"
#include "util/hash.h"
#include "util/levenshtein.h"
#include "util/rng.h"

namespace patchdb {
namespace {

diff::Patch simple_patch() {
  const std::string text =
      "commit 1234567890123456789012345678901234567890\n"
      "\n"
      "    add a bound check\n"
      "\n"
      "diff --git a/a.c b/a.c\n"
      "--- a/a.c\n"
      "+++ b/a.c\n"
      "@@ -10,5 +10,7 @@ static int parse_header(struct req *r)\n"
      " int n = r->len;\n"
      "+if (n > 64)\n"
      "+    return -1;\n"
      " memcpy(buf, r->data, n);\n"
      "-old_call(r);\n"
      "+new_call(r, n);\n"
      " return n;\n"
      " done:\n";
  return diff::parse_patch(text);
}

TEST(Features, NamesCoverAllDimensions) {
  const auto names = feature::feature_names();
  EXPECT_EQ(names.size(), feature::kFeatureCount);
  EXPECT_EQ(names[0], "changed_lines");
  EXPECT_EQ(names[59], "affected_funcs_pct");
}

TEST(Features, BasicCountsOnKnownPatch) {
  const feature::FeatureVector v = feature::extract(simple_patch());
  EXPECT_DOUBLE_EQ(v[0], 4.0);   // changed lines: 3 added + 1 removed
  EXPECT_DOUBLE_EQ(v[1], 1.0);   // hunks
  EXPECT_DOUBLE_EQ(v[2], 3.0);   // added lines
  EXPECT_DOUBLE_EQ(v[3], 1.0);   // removed lines
  EXPECT_DOUBLE_EQ(v[4], 4.0);   // total
  EXPECT_DOUBLE_EQ(v[5], 2.0);   // net
}

TEST(Features, IfAndCallCounts) {
  const feature::FeatureVector v = feature::extract(simple_patch());
  EXPECT_DOUBLE_EQ(v[10], 1.0);  // added ifs
  EXPECT_DOUBLE_EQ(v[11], 0.0);  // removed ifs
  EXPECT_DOUBLE_EQ(v[12], 1.0);  // total ifs
  EXPECT_DOUBLE_EQ(v[13], 1.0);  // net ifs
  EXPECT_DOUBLE_EQ(v[18], 1.0);  // added calls: new_call
  EXPECT_DOUBLE_EQ(v[19], 1.0);  // removed calls: old_call
  EXPECT_DOUBLE_EQ(v[21], 0.0);  // net calls
}

TEST(Features, RelationalOperatorQuads) {
  const feature::FeatureVector v = feature::extract(simple_patch());
  EXPECT_DOUBLE_EQ(v[26], 1.0);  // added relational: >
  EXPECT_DOUBLE_EQ(v[27], 0.0);
  EXPECT_DOUBLE_EQ(v[28], 1.0);
  EXPECT_DOUBLE_EQ(v[29], 1.0);
}

TEST(Features, LevenshteinFeaturesNonZeroWhenHunkChanges) {
  const feature::FeatureVector v = feature::extract(simple_patch());
  EXPECT_GT(v[48], 0.0);             // mean raw distance
  EXPECT_EQ(v[49], v[50]);           // single hunk: min == max
  EXPECT_EQ(v[48], v[49]);           // single hunk: mean == min
  EXPECT_GT(v[51], 0.0);             // abstracted distance also > 0
  EXPECT_DOUBLE_EQ(v[54], 0.0);      // no identical hunks
}

TEST(Features, SameHunkDetectionAfterAbstraction) {
  // Removal and addition differ only by identifier names -> identical
  // after abstraction but different raw.
  const std::string text =
      "commit 1234567890123456789012345678901234567890\n"
      "\n"
      "diff --git a/a.c b/a.c\n"
      "--- a/a.c\n"
      "+++ b/a.c\n"
      "@@ -1,2 +1,2 @@\n"
      " ctx_t c;\n"
      "-foo(alpha, 1);\n"
      "+bar(beta, 2);\n";
  const feature::FeatureVector v = feature::extract(diff::parse_patch(text));
  EXPECT_DOUBLE_EQ(v[54], 0.0);  // raw differs
  EXPECT_DOUBLE_EQ(v[55], 1.0);  // abstracted identical
  EXPECT_GT(v[48], 0.0);
  EXPECT_DOUBLE_EQ(v[51], 0.0);  // abstracted distance is zero
}

TEST(Features, AffectedFilesAndFunctions) {
  const feature::FeatureVector v = feature::extract(simple_patch());
  EXPECT_DOUBLE_EQ(v[56], 1.0);  // one file
  EXPECT_DOUBLE_EQ(v[58], 1.0);  // one function (from the section header)
}

TEST(Features, RepoContextChangesPercentages) {
  const feature::RepoContext repo{.total_files = 10, .total_functions = 50};
  const feature::FeatureVector v = feature::extract(simple_patch(), repo);
  EXPECT_DOUBLE_EQ(v[57], 0.1);
  EXPECT_DOUBLE_EQ(v[59], 1.0 / 50.0);
}

TEST(Features, EmptyPatchIsAllZero) {
  diff::Patch p;
  p.commit = std::string(40, 'a');
  const feature::FeatureVector v = feature::extract(p);
  for (double x : v) EXPECT_DOUBLE_EQ(x, 0.0);
}

// Property over generated commits: the added/removed/total/net quads are
// internally consistent and basic counts match the diff model.
class FeatureQuadProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FeatureQuadProperty, QuadConsistencyOnGeneratedCommits) {
  util::Rng rng(GetParam() * 7919 + 13);
  const auto types = corpus::security_types();
  const corpus::PatchType type = types[rng.index(types.size())];
  const corpus::CommitRecord record =
      corpus::make_commit(rng, "repo", type);
  const feature::FeatureVector v = feature::extract(record.patch);

  // changed lines == added + removed; quads for every category.
  EXPECT_DOUBLE_EQ(v[0], v[2] + v[3]);
  for (std::size_t base : {2u, 6u, 10u, 14u, 18u, 22u, 26u, 30u, 34u, 38u, 42u}) {
    EXPECT_DOUBLE_EQ(v[base + 2], v[base] + v[base + 1]) << "base " << base;
    EXPECT_DOUBLE_EQ(v[base + 3], v[base] - v[base + 1]) << "base " << base;
    EXPECT_GE(v[base], 0.0);
    EXPECT_GE(v[base + 1], 0.0);
  }
  EXPECT_DOUBLE_EQ(v[2], static_cast<double>(record.patch.added_lines()));
  EXPECT_DOUBLE_EQ(v[3], static_cast<double>(record.patch.removed_lines()));
  EXPECT_DOUBLE_EQ(v[1], static_cast<double>(record.patch.hunk_count()));

  // Levenshtein stats ordered min <= mean <= max.
  EXPECT_LE(v[49], v[48]);
  EXPECT_LE(v[48], v[50]);
  EXPECT_LE(v[52], v[51]);
  EXPECT_LE(v[51], v[53]);

  // Percentages stay in [0, 1] without repo context.
  EXPECT_GE(v[57], 0.0);
  EXPECT_LE(v[57], 1.0);
  EXPECT_GE(v[59], 0.0);
}

INSTANTIATE_TEST_SUITE_P(GeneratedCommits, FeatureQuadProperty,
                         ::testing::Range<std::uint64_t>(0, 60));

TEST(Features, ExtractAllMatchesSingleExtraction) {
  util::Rng rng(5);
  std::vector<diff::Patch> patches;
  for (int i = 0; i < 8; ++i) {
    patches.push_back(
        corpus::make_commit(rng, "r", corpus::PatchType::kBoundCheck).patch);
  }
  const feature::FeatureMatrix matrix = feature::extract_all(patches);
  ASSERT_EQ(matrix.rows(), patches.size());
  ASSERT_EQ(matrix.cols(), feature::kFeatureCount);
  for (std::size_t i = 0; i < patches.size(); ++i) {
    const feature::FeatureVector v = feature::extract(patches[i]);
    EXPECT_TRUE(std::equal(matrix[i].begin(), matrix[i].end(), v.begin()));
  }
}

// ------------------------------------------------------- lex once --

// One file, one hunk per side text: hunk i removes `removed[i]` and adds
// `added[i]`.
diff::Patch two_sided_patch(const std::vector<std::string>& removed,
                            const std::vector<std::string>& added) {
  std::string text =
      "commit 1234567890123456789012345678901234567890\n"
      "\n"
      "    lex-once fixture\n"
      "\n"
      "diff --git a/a.c b/a.c\n"
      "--- a/a.c\n"
      "+++ b/a.c\n";
  for (std::size_t i = 0; i < removed.size(); ++i) {
    const std::string line = std::to_string(10 * i + 1);
    text += "@@ -" + line + ",1 +" + line + ",1 @@ int f" + std::to_string(i) + "(void)\n";
    text += "-" + removed[i] + "\n";
    text += "+" + added[i] + "\n";
  }
  return diff::parse_patch(text);
}

// Dims 10-45 and 47 as count_syntax reads each side joined, every
// hunk's text followed by a newline.
std::vector<double> joined_syntax_dims(const diff::Patch& patch) {
  std::string removed;
  std::string added;
  for (const diff::FileDiff& fd : patch.files) {
    for (const diff::Hunk& hunk : fd.hunks) {
      removed += hunk.removed_text() + "\n";
      added += hunk.added_text() + "\n";
    }
  }
  const lang::SyntaxCounts a = lang::count_syntax(added);
  const lang::SyntaxCounts r = lang::count_syntax(removed);
  std::vector<double> dims;
  auto quad = [&dims](std::size_t x, std::size_t y) {
    const double ax = static_cast<double>(x);
    const double ry = static_cast<double>(y);
    dims.insert(dims.end(), {ax, ry, ax + ry, ax - ry});
  };
  quad(a.if_statements, r.if_statements);
  quad(a.loops, r.loops);
  quad(a.function_calls, r.function_calls);
  quad(a.arithmetic_ops, r.arithmetic_ops);
  quad(a.relational_ops, r.relational_ops);
  quad(a.logical_ops, r.logical_ops);
  quad(a.bitwise_ops, r.bitwise_ops);
  quad(a.memory_ops, r.memory_ops);
  quad(a.variables, r.variables);
  dims.push_back(static_cast<double>(a.function_defs) -
                 static_cast<double>(r.function_defs));
  return dims;
}

std::vector<double> extracted_syntax_dims(const diff::Patch& patch) {
  const feature::FeatureVector v = feature::extract(patch);
  std::vector<double> dims(v.begin() + 10, v.begin() + 46);
  dims.push_back(v[47]);
  return dims;
}

// A hunk side that ends inside a token runs into the next hunk when the
// side is lexed joined; the counts must follow the joined lex.
TEST(Features, LexOnceFollowsJoinedLexAcrossOpenHunkEnds) {
  const std::string next = "if (n > 0) { free(p); while (q) q = q->next; }";
  for (const std::string& open_end :
       {std::string("x = 1; /* unterminated"), std::string("#define X \\"),
        std::string("s = \"abc\\"), std::string("c = 'a\\")}) {
    SCOPED_TRACE(open_end);
    const diff::Patch removed_open = two_sided_patch({open_end, next}, {"y = 2;", next});
    const diff::Patch added_open = two_sided_patch({"y = 2;", next}, {open_end, next});
    const diff::Patch both_open = two_sided_patch({open_end, next, open_end},
                                                  {open_end, next, next});
    for (const diff::Patch* patch : {&removed_open, &added_open, &both_open}) {
      ASSERT_GE(patch->hunk_count(), 2u);
      EXPECT_EQ(extracted_syntax_dims(*patch), joined_syntax_dims(*patch));
    }
  }
  // The open end swallows the next hunk's `if`: the removed side counts
  // none, the added side one.
  const feature::FeatureVector v =
      feature::extract(two_sided_patch({"x = 1; /* open", next}, {"y = 2;", next}));
  EXPECT_DOUBLE_EQ(v[10], 1.0);
  EXPECT_DOUBLE_EQ(v[11], 0.0);
}

// ---------------------------------------------------- world goldens --

corpus::World small_world(std::uint64_t seed) {
  corpus::WorldConfig config;
  config.repos = 5;
  config.nvd_security = 40;
  config.wild_pool = 400;
  config.seed = seed;
  return corpus::build_world(config);
}

std::uint64_t feature_digest(std::uint64_t seed) {
  const corpus::World world = small_world(seed);
  std::uint64_t hash = util::fnv1a64("");
  for (const auto* records : {&world.nvd_security, &world.wild}) {
    for (const corpus::CommitRecord& record : *records) {
      for (const double value : feature::extract(record.patch)) {
        char bytes[sizeof(double)];
        std::memcpy(bytes, &value, sizeof(bytes));
        hash = util::fnv1a64(std::string_view(bytes, sizeof(bytes)), hash);
      }
    }
  }
  return hash;
}

// Pins every bit of the Table I rows of a small world, so a faster
// extraction path cannot move any feature.
TEST(Features, GoldenDigest) {
  EXPECT_EQ(feature_digest(42), 0x2675ca79fd255b02ULL);
  EXPECT_EQ(feature_digest(7919), 0x0266ddf2d04f71d9ULL);
}

// The kernel against the DP on every hunk the features read, raw and
// after token abstraction.
TEST(Levenshtein, MatchesDpOracleOnWorldHunks) {
  for (const std::uint64_t seed : {42u, 7919u}) {
    const corpus::World world = small_world(seed);
    std::size_t hunks = 0;
    for (const auto* records : {&world.nvd_security, &world.wild}) {
      for (const corpus::CommitRecord& record : *records) {
        for (const diff::FileDiff& fd : record.patch.files) {
          for (const diff::Hunk& hunk : fd.hunks) {
            const std::string removed = hunk.removed_text();
            const std::string added = hunk.added_text();
            EXPECT_EQ(util::levenshtein(removed, added),
                      testing_oracle::levenshtein_dp(removed, added));
            const std::string removed_abs = lang::abstract_code(removed);
            const std::string added_abs = lang::abstract_code(added);
            EXPECT_EQ(util::levenshtein(removed_abs, added_abs),
                      testing_oracle::levenshtein_dp(removed_abs, added_abs));
            ++hunks;
          }
        }
      }
    }
    EXPECT_GT(hunks, 400u) << "seed " << seed;
  }
}

}  // namespace
}  // namespace patchdb
