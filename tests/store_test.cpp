// Tests for the on-disk dataset layout: export/load round trips, layout
// contents, strict manifest parsing, and failure handling for corrupted
// exports (flipped bytes, truncated or torn segments, uncovered segment
// bytes, tampered lengths and manifests, older formats).
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>

#include "core/patchdb.h"
#include "diff/render.h"
#include "feature/features.h"
#include "store/csv.h"
#include "store/export.h"
#include "store/io.h"
#include "store_tamper.h"

namespace patchdb {
namespace {

namespace fs = std::filesystem;
using testing_store::kLengthColumn;
using testing_store::overwrite;
using testing_store::segment_path;
using testing_store::set_manifest_field;

class StoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = fs::temp_directory_path() /
            ("patchdb_store_test_" + std::to_string(::getpid()) + "_" +
             ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(root_);
  }
  void TearDown() override { fs::remove_all(root_); }

  static core::PatchDb small_db() {
    core::BuildOptions options;
    options.world.repos = 4;
    options.world.nvd_security = 25;
    options.world.wild_pool = 400;
    options.world.seed = 404;
    options.augment.max_rounds = 1;
    options.synthesis.max_per_patch = 2;
    return core::build_patchdb(options);
  }

  /// A properly sealed manifest holding `rows` (so tests exercise row
  /// validation, not just the checksum trailer).
  void write_sealed_manifest(const std::string& rows) {
    fs::create_directories(root_);
    std::string body(store::store_version_line());
    body += '\n';
    body += store::manifest_header();
    body += rows;
    std::ofstream out(root_ / "manifest.csv", std::ios::binary);
    out << store::with_checksum_trailer(std::move(body));
  }

  fs::path root_;
};

TEST_F(StoreTest, ExportWritesLayout) {
  const core::PatchDb db = small_db();
  const store::ExportStats stats = store::export_patchdb(db, root_);

  // Four segments plus the two sealed documents, and nothing else.
  std::size_t files = 0;
  for (const fs::directory_entry& entry : fs::directory_iterator(root_)) {
    EXPECT_TRUE(entry.is_regular_file()) << entry.path();
    ++files;
  }
  EXPECT_EQ(files, store::kComponents.size() + 2);
  EXPECT_TRUE(fs::exists(root_ / "manifest.csv"));
  EXPECT_TRUE(fs::exists(root_ / "features.csv"));

  const std::size_t expected = db.nvd_security.size() + db.wild_security.size() +
                               db.nonsecurity.size() + db.synthetic.size();
  EXPECT_EQ(stats.patches_written, expected);
  EXPECT_EQ(stats.feature_rows,
            expected - db.synthetic.size());  // features for natural only

  // Each segment is its component's rendered patches, concatenated in
  // manifest order.
  const std::vector<corpus::CommitRecord>* natural[] = {
      &db.nvd_security, &db.wild_security, &db.nonsecurity};
  for (std::size_t c = 0; c < std::size(natural); ++c) {
    std::string want;
    for (const corpus::CommitRecord& r : *natural[c]) want += diff::render_patch(r.patch);
    EXPECT_EQ(store::read_file(segment_path(root_, c)), want) << store::kComponents[c];
  }
  std::string synthetic;
  for (const synth::SyntheticPatch& s : db.synthetic) synthetic += diff::render_patch(s.patch);
  EXPECT_EQ(store::read_file(segment_path(root_, store::kSyntheticComponent)), synthetic);
}

TEST_F(StoreTest, RoundTripPreservesEverything) {
  const core::PatchDb db = small_db();
  store::export_patchdb(db, root_);
  const store::LoadedPatchDb loaded = store::load_patchdb(root_);

  ASSERT_EQ(loaded.nvd_security.size(), db.nvd_security.size());
  ASSERT_EQ(loaded.wild_security.size(), db.wild_security.size());
  ASSERT_EQ(loaded.nonsecurity.size(), db.nonsecurity.size());
  ASSERT_EQ(loaded.synthetic.size(), db.synthetic.size());

  // Patches round-trip byte-for-byte through render/parse/render; the
  // manifest restores labels, types, repos.
  for (std::size_t i = 0; i < db.nvd_security.size(); ++i) {
    // Order within a component is preserved by the manifest.
    EXPECT_EQ(diff::render_patch(loaded.nvd_security[i].patch),
              diff::render_patch(db.nvd_security[i].patch));
    EXPECT_EQ(loaded.nvd_security[i].truth.type, db.nvd_security[i].truth.type);
    EXPECT_EQ(loaded.nvd_security[i].repo, db.nvd_security[i].repo);
    EXPECT_TRUE(loaded.nvd_security[i].truth.is_security);
  }
  for (std::size_t i = 0; i < db.synthetic.size(); ++i) {
    EXPECT_EQ(loaded.synthetic[i].origin_commit, db.synthetic[i].origin_commit);
    EXPECT_EQ(loaded.synthetic[i].variant, db.synthetic[i].variant);
    EXPECT_EQ(loaded.synthetic[i].modified_after, db.synthetic[i].modified_after);
    EXPECT_EQ(loaded.synthetic[i].truth.is_security,
              db.synthetic[i].truth.is_security);
  }
}

// The seed exporter wrote manifest fields verbatim, so a repo named
// "lib,foo" produced an extra column and the row loaded as garbage.
// Fields holding separators, quotes, and CRLF must now round-trip.
TEST_F(StoreTest, NastyManifestFieldsRoundTrip) {
  core::PatchDb db = small_db();
  ASSERT_FALSE(db.nvd_security.empty());
  ASSERT_FALSE(db.synthetic.empty());
  db.nvd_security[0].repo = "evil,\"repo\"\r\nwith everything,";
  db.nvd_security[1].repo = "trailing-newline\n";
  db.synthetic[0].origin_commit = "comma,quote\"crlf\r\n";

  store::export_patchdb(db, root_);
  const store::LoadedPatchDb loaded = store::load_patchdb(root_);
  ASSERT_EQ(loaded.nvd_security.size(), db.nvd_security.size());
  EXPECT_EQ(loaded.nvd_security[0].repo, db.nvd_security[0].repo);
  EXPECT_EQ(loaded.nvd_security[1].repo, db.nvd_security[1].repo);
  EXPECT_EQ(loaded.synthetic[0].origin_commit, db.synthetic[0].origin_commit);
}

TEST_F(StoreTest, CsvEscapeAndParseRoundTrip) {
  const std::string fields[] = {"plain", "with,comma", "with\"quote",
                                "multi\r\nline", "", "  spaced  "};
  std::string doc;
  for (std::size_t i = 0; i < std::size(fields); ++i) {
    if (i != 0) doc += ',';
    doc += store::csv_escape(fields[i]);
  }
  doc += '\n';
  const auto rows = store::csv_parse(doc);
  ASSERT_EQ(rows.size(), 1u);
  ASSERT_EQ(rows[0].size(), std::size(fields));
  for (std::size_t i = 0; i < std::size(fields); ++i) {
    EXPECT_EQ(rows[0][i], fields[i]) << i;
  }

  EXPECT_THROW(store::csv_parse("\"unterminated\n"), std::runtime_error);
  EXPECT_THROW(store::csv_parse("a,\"b\"junk\n"), std::runtime_error);
  EXPECT_THROW(store::csv_parse("stray\"quote\n"), std::runtime_error);
}

// Satellite: the loader used std::atoi, which silently parsed "7x" as 7
// and "junk" as 0. parse_int_field must reject anything non-numeric.
TEST_F(StoreTest, ParseIntFieldIsStrict) {
  EXPECT_EQ(store::parse_int_field("0", 100, "t"), 0);
  EXPECT_EQ(store::parse_int_field("42", 100, "t"), 42);
  EXPECT_THROW(store::parse_int_field("", 100, "t"), std::runtime_error);
  EXPECT_THROW(store::parse_int_field("7x", 100, "t"), std::runtime_error);
  EXPECT_THROW(store::parse_int_field("-1", 100, "t"), std::runtime_error);
  EXPECT_THROW(store::parse_int_field(" 7", 100, "t"), std::runtime_error);
  EXPECT_THROW(store::parse_int_field("101", 100, "t"), std::runtime_error);
}

TEST_F(StoreTest, FeaturesCsvHasHeaderAndRows) {
  const core::PatchDb db = small_db();
  store::export_patchdb(db, root_);
  std::ifstream in(root_ / "features.csv");
  std::string version;
  std::getline(in, version);
  EXPECT_EQ(version, store::store_version_line());
  std::string header;
  std::getline(in, header);
  EXPECT_EQ(header.rfind("commit,changed_lines,", 0), 0u);
  std::size_t rows = 0;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;  // checksum trailer
    ++rows;
  }
  EXPECT_EQ(rows, db.nvd_security.size() + db.wild_security.size() +
                      db.nonsecurity.size());
}

TEST_F(StoreTest, LoadMissingManifestThrows) {
  fs::create_directories(root_);
  EXPECT_THROW(store::load_patchdb(root_), std::runtime_error);
}

TEST_F(StoreTest, LoadUnsealedManifestThrows) {
  // A v1-style manifest without the checksum trailer must be rejected.
  fs::create_directories(root_);
  std::ofstream out(root_ / "manifest.csv", std::ios::binary);
  out << store::store_version_line() << "\n" << store::manifest_header();
  out.close();
  EXPECT_THROW(store::load_patchdb(root_), std::runtime_error);
}

TEST_F(StoreTest, LoadMalformedManifestRowThrows) {
  write_sealed_manifest("too,few,fields\n");
  EXPECT_THROW(store::load_patchdb(root_), std::runtime_error);
}

TEST_F(StoreTest, LoadRejectsGarbageFields) {
  const struct {
    const char* name;
    const char* row;
  } cases[] = {
      // std::atoi would have read "7x" as 7 and loaded the row.
      {"trailing garbage in type",
       "deadbeef,nvd,security,7x,repo,,0,0,0,0123456789abcdef\n"},
      {"case-sensitive label",
       "deadbeef,nvd,Security,1,repo,,0,0,0,0123456789abcdef\n"},
      {"non-numeric variant",
       "deadbeef,synthetic,security,1,,beef,x,0,0,0123456789abcdef\n"},
      {"out-of-range synthesis variant",
       "deadbeef,synthetic,security,1,,beef,99,0,0,0123456789abcdef\n"},
      {"natural patch with nonzero variant",
       "deadbeef,nvd,security,1,repo,,3,0,0,0123456789abcdef\n"},
      {"modified_after out of range",
       "deadbeef,nvd,security,1,repo,,0,2,0,0123456789abcdef\n"},
      {"unknown patch type",
       "deadbeef,nvd,security,55,repo,,0,0,0,0123456789abcdef\n"},
      // Commits double as file names; a traversal must not leave root.
      {"commit with path traversal",
       "../../etc/passwd,nvd,security,1,repo,,0,0,0,0123456789abcdef\n"},
      {"uppercase commit",
       "DEADBEEF,nvd,security,1,repo,,0,0,0,0123456789abcdef\n"},
      {"short checksum", "deadbeef,nvd,security,1,repo,,0,0,0,0123\n"},
      {"negative length",
       "deadbeef,nvd,security,1,repo,,0,0,-1,0123456789abcdef\n"},
      {"non-numeric length",
       "deadbeef,nvd,security,1,repo,,0,0,12k,0123456789abcdef\n"},
      {"duplicate row",
       "deadbeef,nvd,security,1,repo,,0,0,0,0123456789abcdef\n"
       "deadbeef,nvd,security,1,repo,,0,0,0,0123456789abcdef\n"},
  };
  for (const auto& c : cases) {
    fs::remove_all(root_);
    write_sealed_manifest(c.row);
    EXPECT_THROW(store::load_patchdb(root_), std::runtime_error) << c.name;
  }
}

TEST_F(StoreTest, LoadMissingPatchFileThrows) {
  // The row's bytes would live in nvd.patches, which does not exist.
  write_sealed_manifest("deadbeef,nvd,security,1,repo,,0,0,10,0123456789abcdef\n");
  EXPECT_THROW(store::load_patchdb(root_), std::runtime_error);
}

TEST_F(StoreTest, LoadDetectsFlippedByteInManifest) {
  store::export_patchdb(small_db(), root_);
  const fs::path manifest = root_ / "manifest.csv";
  std::string content = store::read_file(manifest);
  content[content.size() / 2] ^= 0x01;
  std::ofstream(manifest, std::ios::binary) << content;
  EXPECT_THROW(store::load_patchdb(root_), std::runtime_error);
}

TEST_F(StoreTest, LoadDetectsCorruptedPatchFile) {
  const core::PatchDb db = small_db();
  store::export_patchdb(db, root_);
  // Flip one bit inside the first NVD row's bytes: same length, so only
  // the row checksum can notice, and the error must name the commit.
  const fs::path victim = segment_path(root_, 0);
  std::string content = store::read_file(victim);
  content[diff::render_patch(db.nvd_security[0].patch).size() / 2] ^= 0x01;
  overwrite(victim, content);
  try {
    store::load_patchdb(root_);
    FAIL() << "corrupted segment loaded without error";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("checksum mismatch"), std::string::npos) << what;
    EXPECT_NE(what.find(db.nvd_security[0].patch.commit), std::string::npos) << what;
  }
}

TEST_F(StoreTest, LoadDetectsTruncatedPatchFile) {
  store::export_patchdb(small_db(), root_);
  const fs::path victim = segment_path(root_, 1);
  const std::string content = store::read_file(victim);
  overwrite(victim, content.substr(0, content.size() / 2));
  EXPECT_THROW(store::load_patchdb(root_), std::runtime_error);
}

/// load_patchdb must throw a std::runtime_error whose message holds
/// `needle` (and never read past a buffer: the sanitizer job runs this).
void expect_load_error(const fs::path& root, const std::string& needle) {
  try {
    store::load_patchdb(root);
    FAIL() << "damaged export loaded without error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos) << e.what();
  }
}

TEST_F(StoreTest, LoadRejectsLengthPastEndOfSegment) {
  const core::PatchDb db = small_db();
  store::export_patchdb(db, root_);
  // The last wild row claims one byte more than the segment holds.
  const corpus::CommitRecord& last = db.wild_security.back();
  const std::size_t length = diff::render_patch(last.patch).size();
  set_manifest_field(root_, last.patch.commit, kLengthColumn,
                     std::to_string(length + 1));
  expect_load_error(root_, "is short");
}

TEST_F(StoreTest, LoadRejectsLengthOfTwoToThe63) {
  const core::PatchDb db = small_db();
  store::export_patchdb(db, root_);
  // 2^63 would overflow a signed offset + length; it must fail the
  // capped parse, before any arithmetic.
  set_manifest_field(root_, db.nvd_security[0].patch.commit, kLengthColumn,
                     "9223372036854775808");
  expect_load_error(root_, "length field out of range");
  set_manifest_field(root_, db.nvd_security[0].patch.commit, kLengthColumn,
                     "18446744073709551615");
  expect_load_error(root_, "length field out of range");
}

TEST_F(StoreTest, LoadRejectsTrailingUncoveredBytes) {
  store::export_patchdb(small_db(), root_);
  const fs::path victim = segment_path(root_, 2);
  overwrite(victim, store::read_file(victim) + "diff --git a/x b/x\n");
  expect_load_error(root_, "not covered by the manifest");
}

TEST_F(StoreTest, LoadRejectsMissingSegment) {
  store::export_patchdb(small_db(), root_);
  fs::remove(segment_path(root_, store::kSyntheticComponent));
  expect_load_error(root_, "missing or unreadable segment synthetic.patches");
}

TEST_F(StoreTest, LoadRejectsTornSegment) {
  const core::PatchDb db = small_db();
  store::export_patchdb(db, root_);
  // Re-export over it; the wild segment write (write 1) tears and the
  // export dies, leaving the previous manifest over a half segment.
  store::FaultPlan plan;
  plan.fail_write = 1;
  plan.truncate = true;
  store::set_fault_plan(plan);
  EXPECT_THROW(store::export_patchdb(db, root_), store::FaultInjected);
  store::clear_fault_plan();
  expect_load_error(root_, "wild.patches is short");
}

TEST_F(StoreTest, LoadRefusesV2Export) {
  // A v2 (file-per-patch) manifest: sealed correctly, older version.
  fs::create_directories(root_);
  std::string body = "#patchdb.store.v2\n";
  body += "commit,component,label,type,repo,origin,variant,modified_after,checksum\n";
  body += "deadbeef,nvd,security,1,repo,,0,0,0123456789abcdef\n";
  overwrite(root_ / "manifest.csv", store::with_checksum_trailer(std::move(body)));
  try {
    store::load_patchdb(root_);
    FAIL() << "a v2 export was accepted";
  } catch (const store::UnsupportedVersion& e) {
    EXPECT_NE(std::string(e.what()).find("re-export"), std::string::npos) << e.what();
  }
}

TEST_F(StoreTest, ChecksumTrailerRejectsAnyTampering) {
  const std::string sealed = store::with_checksum_trailer("line one\nline two\n");
  EXPECT_EQ(store::strip_checksum_trailer(sealed, "doc"),
            "line one\nline two\n");
  for (std::size_t i = 0; i < sealed.size(); ++i) {
    std::string bad = sealed;
    bad[i] ^= 0x02;
    EXPECT_THROW(store::strip_checksum_trailer(bad, "doc"), std::runtime_error)
        << "flipped byte " << i << " went undetected";
  }
  EXPECT_THROW(store::strip_checksum_trailer("no trailer at all\n", "doc"),
               std::runtime_error);
  EXPECT_THROW(
      store::strip_checksum_trailer(sealed.substr(0, sealed.size() - 3), "doc"),
      std::runtime_error);
}

// features.csv is written from the rows the build extracted during
// augmentation, not re-extracted at export time: they must be exactly
// the vectors extraction gives, and a PatchDb whose rows do not match
// its natural patches is refused before anything is written.
TEST_F(StoreTest, ExportUsesTheBuildsFeatureRows) {
  core::PatchDb db = small_db();
  const std::vector<corpus::CommitRecord>* components[] = {
      &db.nvd_security, &db.wild_security, &db.nonsecurity};
  std::size_t row = 0;
  for (const auto* component : components) {
    for (const corpus::CommitRecord& record : *component) {
      ASSERT_LT(row, db.natural_features.rows());
      const feature::FeatureVector expected = feature::extract(record.patch);
      const std::span<const double> got = db.natural_features[row++];
      EXPECT_TRUE(std::equal(got.begin(), got.end(), expected.begin(),
                             expected.end()))
          << record.patch.commit;
    }
  }
  EXPECT_EQ(row, db.natural_features.rows());

  db.natural_features.truncate(db.natural_features.rows() - 1);
  EXPECT_THROW(store::export_patchdb(db, root_), std::invalid_argument);
  EXPECT_FALSE(fs::exists(root_));
}

TEST_F(StoreTest, ExportIsIdempotent) {
  const core::PatchDb db = small_db();
  store::export_patchdb(db, root_);
  const store::ExportStats again = store::export_patchdb(db, root_);
  EXPECT_GT(again.patches_written, 0u);
  const store::LoadedPatchDb loaded = store::load_patchdb(root_);
  EXPECT_EQ(loaded.nvd_security.size(), db.nvd_security.size());
}

}  // namespace
}  // namespace patchdb
