#include "store/export.h"

#include <array>
#include <stdexcept>
#include <string>
#include <string_view>

#include "diff/parse.h"
#include "diff/render.h"
#include "feature/features.h"
#include "obs/trace.h"
#include "store/io.h"
#include "util/hash.h"
#include "util/table.h"

namespace patchdb::store {

namespace fs = std::filesystem;

namespace {

/// `store.export`'s child spans: one per segment, in kComponents order.
constexpr std::array<std::string_view, kComponents.size()> kSegmentSpans = {
    "store.export.nvd", "store.export.wild", "store.export.nonsecurity",
    "store.export.synthetic"};

/// Render `patch` onto the end of its component's segment and add its
/// manifest row, whose length and checksum cover exactly those bytes.
void append_patch(const diff::Patch& patch, ManifestRow row, std::string& segment,
                  std::string& manifest) {
  const std::size_t offset = segment.size();
  segment += diff::render_patch(patch);
  const std::string_view bytes = std::string_view(segment).substr(offset);
  row.commit = patch.commit;
  row.length = bytes.size();
  row.checksum = util::fnv1a64(bytes);
  manifest += format_manifest_row(row);
}

/// Append one natural component's rows: its patches to `segment`, its
/// manifest rows to `manifest` and its features.csv rows to `features`
/// (row i's vector is rows[first_row + i]).
void export_records(const std::vector<corpus::CommitRecord>& records,
                    std::size_t component, const feature::FeatureMatrix& rows,
                    std::size_t first_row, std::string& segment,
                    std::string& manifest, std::string& features) {
  for (std::size_t i = 0; i < records.size(); ++i) {
    const corpus::CommitRecord& record = records[i];
    ManifestRow row;
    row.component = component;
    row.is_security = record.truth.is_security;
    row.type = record.truth.type;
    row.repo = record.repo;
    append_patch(record.patch, std::move(row), segment, manifest);
    features += record.patch.commit;
    for (double value : rows[first_row + i]) {
      features += ',';
      features += util::format_double(value, 6);
    }
    features += '\n';
  }
}

}  // namespace

ExportStats export_patchdb(const core::PatchDb& db, const fs::path& root) {
  PATCHDB_TRACE_SPAN("store.export");
  // features.csv rows for every natural patch are the ones the build
  // already extracted, in component order.
  const std::vector<corpus::CommitRecord>* components[] = {
      &db.nvd_security, &db.wild_security, &db.nonsecurity};
  const feature::FeatureMatrix& rows = db.natural_features;
  const std::size_t natural =
      db.nvd_security.size() + db.wild_security.size() + db.nonsecurity.size();
  if (rows.rows() != natural || rows.cols() != feature::feature_names().size()) {
    throw std::invalid_argument(
        "export_patchdb: natural_features holds " + std::to_string(rows.rows()) +
        " rows of " + std::to_string(rows.cols()) + " features for " +
        std::to_string(natural) + " natural patches of " +
        std::to_string(feature::feature_names().size()) + " features");
  }

  ExportStats stats;
  stats.root = root;
  create_directories_durably(root);

  std::string manifest(store_version_line());
  manifest += '\n';
  manifest += manifest_header();

  std::string features(store_version_line());
  features += '\n';
  features += "commit";
  for (std::string_view name : feature::feature_names()) {
    features += ',';
    features += name;
  }
  features += '\n';

  // One segment per component, each written (and synced) before the
  // next is rendered, so one segment's bytes are in memory at a time.
  std::size_t first_row = 0;
  for (std::size_t c = 0; c < std::size(components); ++c) {
    PATCHDB_TRACE_SPAN(kSegmentSpans[c]);
    std::string segment;
    export_records(*components[c], c, rows, first_row, segment, manifest, features);
    atomic_write_file(root / segment_name(c), segment);
    first_row += components[c]->size();
  }
  stats.feature_rows = first_row;

  {
    PATCHDB_TRACE_SPAN(kSegmentSpans[kSyntheticComponent]);
    std::string segment;
    for (const synth::SyntheticPatch& s : db.synthetic) {
      ManifestRow row;
      row.component = kSyntheticComponent;
      row.is_security = s.truth.is_security;
      row.type = s.truth.type;
      row.origin = s.origin_commit;
      row.variant = static_cast<int>(s.variant);
      row.modified_after = s.modified_after;
      append_patch(s.patch, std::move(row), segment, manifest);
    }
    atomic_write_file(root / segment_name(kSyntheticComponent), segment);
  }
  stats.patches_written = first_row + db.synthetic.size();

  // The manifest is the commit point: it lands last, durably, so an
  // interrupted export never publishes a manifest naming absent bytes.
  PATCHDB_TRACE_SPAN("store.export.tables");
  atomic_write_file(root / "features.csv", with_checksum_trailer(std::move(features)));
  atomic_write_file(root / "manifest.csv", with_checksum_trailer(std::move(manifest)));
  return stats;
}

LoadedPatchDb load_patchdb(const fs::path& root) {
  PATCHDB_TRACE_SPAN("store.load");
  const ProblemSink fail = [](const std::string& problem) {
    throw std::runtime_error(problem);
  };
  const std::vector<ManifestRow> rows =
      parse_manifest(read_file(root / "manifest.csv"), fail);

  LoadedPatchDb db;
  std::vector<corpus::CommitRecord>* natural[] = {
      &db.nvd_security, &db.wild_security, &db.nonsecurity};
  for (std::size_t c = 0; c < kComponents.size(); ++c) {
    walk_segment(root, c, rows, fail,
                 [&](const ManifestRow& row, std::string_view bytes) {
                   diff::Patch patch = diff::parse_patch(bytes);
                   if (c == kSyntheticComponent) {
                     synth::SyntheticPatch s;
                     s.patch = std::move(patch);
                     s.truth.is_security = row.is_security;
                     s.truth.type = row.type;
                     s.origin_commit = row.origin;
                     s.variant = static_cast<synth::IfVariant>(row.variant);
                     s.modified_after = row.modified_after;
                     db.synthetic.push_back(std::move(s));
                     return;
                   }
                   corpus::CommitRecord record;
                   record.patch = std::move(patch);
                   record.truth.is_security = row.is_security;
                   record.truth.type = row.type;
                   record.repo = row.repo;
                   natural[c]->push_back(std::move(record));
                 });
  }
  return db;
}

}  // namespace patchdb::store
