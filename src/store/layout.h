// The dataset layout (store format v3) in one place: the component
// list, the segment file each component's patches live in, the
// manifest's columns and strict row parsing, and slicing a segment into
// its rows. The writer, the loader and fsck all go through here, so
// they cannot disagree about what a valid export is.
//
// A segment holds the concatenated patch bytes of its component's rows
// in manifest order. Each row records its `length`; a row's offset is
// the running sum of the earlier lengths of its component, so the rows
// tile the segment by construction and a segment byte the rows do not
// cover is an error, not an orphan to ignore.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "corpus/taxonomy.h"

namespace patchdb::store {

/// Components in export order; manifest rows name them by these strings.
inline constexpr std::array<std::string_view, 4> kComponents = {
    "nvd", "wild", "nonsecurity", "synthetic"};
inline constexpr std::size_t kSyntheticComponent = 3;

/// First line of manifest.csv and features.csv ("#patchdb.store.v3").
std::string_view store_version_line();

/// Column header of the manifest (exposed for tests).
std::string manifest_header();

/// "<component>.patches", relative to the dataset root.
std::string segment_name(std::size_t component);

struct ManifestRow {
  std::string commit;
  std::size_t component = 0;  // index into kComponents
  bool is_security = false;
  corpus::PatchType type{};
  std::string repo;
  std::string origin;  // synthetic only: the natural patch it came from
  int variant = 0;     // synthetic only: synth::IfVariant, 1-based
  bool modified_after = false;
  std::uint64_t length = 0;  // bytes of this row in its segment
  std::uint64_t checksum = 0;  // FNV-1a64 of those bytes
};

/// One manifest line, CSV-escaped, newline-terminated.
std::string format_manifest_row(const ManifestRow& row);

/// Receives one problem description. The loader's throws (fail fast);
/// fsck's records it and lets the walk go on.
using ProblemSink = std::function<void(const std::string&)>;

/// Verify the seal, version line (UnsupportedVersion otherwise) and
/// header of a manifest and parse its rows strictly. Document-level
/// problems throw; each malformed or duplicate row is passed to
/// `problem` and left out of the result.
std::vector<ManifestRow> parse_manifest(std::string_view sealed,
                                        const ProblemSink& problem);

/// Read component `component`'s segment under `root` and hand each of
/// its `rows` (in order) its bytes via `on_row`, after checking the
/// row's checksum. Problems go to `problem`: a missing segment or one
/// too short for the next row ends the walk; a checksum mismatch skips
/// that row; bytes after the last row are reported at the end. Returns
/// the segment's size in bytes, or nullopt when it could not be read.
std::optional<std::size_t> walk_segment(
    const std::filesystem::path& root, std::size_t component,
    const std::vector<ManifestRow>& rows, const ProblemSink& problem,
    const std::function<void(const ManifestRow&, std::string_view)>& on_row);

}  // namespace patchdb::store
