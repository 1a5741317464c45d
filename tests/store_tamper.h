// Test helpers that damage an exported dataset the way a bad disk, a
// torn write or a hostile editor would, for the store and fsck tests.
#pragma once

#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "store/csv.h"
#include "store/io.h"
#include "store/layout.h"

namespace patchdb::testing_store {

namespace fs = std::filesystem;

inline fs::path segment_path(const fs::path& root, std::size_t component) {
  return root / store::segment_name(component);
}

inline void overwrite(const fs::path& path, const std::string& content) {
  std::ofstream(path, std::ios::binary | std::ios::trunc) << content;
}

/// Rewrite field `column` of the manifest row for `commit` and re-seal
/// the manifest, so the damage is what the reader sees, not the seal.
inline void set_manifest_field(const fs::path& root, const std::string& commit,
                               std::size_t column, const std::string& value) {
  const fs::path path = root / "manifest.csv";
  const std::string sealed = store::read_file(path);
  const std::string_view csv = store::open_sealed(
      sealed, store::store_version_line(), "manifest.csv", "");
  std::vector<std::vector<std::string>> rows = store::csv_parse(csv);
  bool found = false;
  std::string body(store::store_version_line());
  body += '\n';
  for (std::vector<std::string>& row : rows) {
    if (!row.empty() && row[0] == commit) {
      row.at(column) = value;
      found = true;
    }
    for (std::size_t i = 0; i < row.size(); ++i) {
      if (i != 0) body += ',';
      body += store::csv_escape(row[i]);
    }
    body += '\n';
  }
  if (!found) throw std::runtime_error("no manifest row for " + commit);
  overwrite(path, store::with_checksum_trailer(std::move(body)));
}

/// Manifest columns the tamper tests touch.
inline constexpr std::size_t kLengthColumn = 8;

}  // namespace patchdb::testing_store
