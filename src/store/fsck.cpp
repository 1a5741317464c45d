#include "store/fsck.h"

#include <stdexcept>
#include <string_view>

#include "obs/trace.h"
#include "store/checkpoint.h"
#include "store/io.h"
#include "store/layout.h"
#include "util/strings.h"

namespace patchdb::store {

namespace fs = std::filesystem;

FsckReport fsck_dataset(const fs::path& root) {
  PATCHDB_TRACE_SPAN("store.fsck");
  FsckReport report;
  report.root = root;
  const ProblemSink record = [&report](const std::string& problem) {
    report.errors.push_back(problem);
  };

  std::vector<ManifestRow> rows;
  try {
    const std::string sealed = read_file(root / "manifest.csv");
    ++report.files_checked;
    report.bytes_checked += sealed.size();
    rows = parse_manifest(sealed, [&](const std::string& problem) {
      ++report.manifest_rows;
      record(problem);
    });
  } catch (const std::exception& e) {
    record(e.what());
    return report;
  }
  report.manifest_rows += rows.size();

  // Every segment must exist and be tiled exactly by its rows: a short
  // segment is torn, uncovered bytes are the v3 form of an orphan.
  for (std::size_t c = 0; c < kComponents.size(); ++c) {
    const std::optional<std::size_t> bytes =
        walk_segment(root, c, rows, record, [](const ManifestRow&, std::string_view) {});
    if (!bytes) continue;
    ++report.files_checked;
    report.bytes_checked += *bytes;
  }

  // features.csv: sealed, versioned, one row per natural patch.
  std::size_t natural_rows = 0;
  for (const ManifestRow& row : rows) natural_rows += row.component != kSyntheticComponent;
  try {
    const std::string features = read_file(root / "features.csv");
    ++report.files_checked;
    report.bytes_checked += features.size();
    const std::string_view csv = open_sealed(features, store_version_line(),
                                             "features.csv", "re-export the dataset");
    std::size_t feature_rows = 0;
    for (std::string_view line : util::split_lines(csv)) {
      if (!line.empty()) ++feature_rows;
    }
    if (feature_rows != natural_rows + 1) {  // + header
      record("features.csv: expected " + std::to_string(natural_rows) +
             " feature rows, found " +
             std::to_string(feature_rows == 0 ? 0 : feature_rows - 1));
    }
  } catch (const std::exception& e) {
    record(e.what());
  }
  return report;
}

FsckReport fsck_checkpoint_dir(const fs::path& dir) {
  FsckReport report;
  report.root = dir;
  try {
    const std::string sealed = read_file(checkpoint_path(dir));
    ++report.files_checked;
    report.bytes_checked += sealed.size();
    const core::LoopCheckpoint cp = read_checkpoint(dir, kAnyFingerprint);
    report.manifest_rows = cp.wild_security.size() + cp.nonsecurity.size() +
                           cp.pool.size();
  } catch (const std::exception& e) {
    report.errors.push_back(e.what());
  }
  return report;
}

FsckReport fsck(const fs::path& path) {
  const bool has_manifest = fs::exists(path / "manifest.csv");
  const bool has_checkpoint = fs::exists(checkpoint_path(path));
  if (!has_manifest && !has_checkpoint) {
    FsckReport report;
    report.root = path;
    report.errors.push_back("fsck: " + path.string() +
                            " holds neither a dataset (manifest.csv) nor a "
                            "checkpoint (checkpoint.csv)");
    return report;
  }
  FsckReport report;
  if (has_manifest) report = fsck_dataset(path);
  if (has_checkpoint) {
    FsckReport cp = fsck_checkpoint_dir(path);
    report.root = path;
    report.files_checked += cp.files_checked;
    report.bytes_checked += cp.bytes_checked;
    report.manifest_rows += cp.manifest_rows;
    report.errors.insert(report.errors.end(), cp.errors.begin(), cp.errors.end());
  }
  return report;
}

}  // namespace patchdb::store
