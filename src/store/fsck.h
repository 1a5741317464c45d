// Offline integrity verification for exported datasets and checkpoint
// directories — the `patchdb fsck` subcommand. Unlike load_patchdb
// (which throws at the first problem), fsck walks the whole tree and
// collects every issue: manifest/features trailer checksums, strict row
// parsing, per-patch content checksums, missing or short segments,
// segment bytes no manifest row covers, feature-row counts, and
// checkpoint validity.
#pragma once

#include <cstddef>
#include <filesystem>
#include <string>
#include <vector>

namespace patchdb::store {

struct FsckReport {
  std::filesystem::path root;
  std::size_t files_checked = 0;
  std::size_t bytes_checked = 0;
  std::size_t manifest_rows = 0;
  std::vector<std::string> errors;
  bool ok() const noexcept { return errors.empty(); }
};

/// Verify an exported dataset directory (manifest.csv present).
FsckReport fsck_dataset(const std::filesystem::path& root);

/// Verify a checkpoint directory (checkpoint.csv present).
FsckReport fsck_checkpoint_dir(const std::filesystem::path& dir);

/// Dispatch on the directory's contents: dataset when manifest.csv is
/// present, checkpoint when checkpoint.csv is; both when both are.
/// A directory with neither yields a single error.
FsckReport fsck(const std::filesystem::path& path);

}  // namespace patchdb::store
