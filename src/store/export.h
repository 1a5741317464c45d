// On-disk dataset layout — the release format. A PatchDB export is a
// directory holding one segment file per component plus CSV metadata
// (store/layout.h owns the details):
//
//   <root>/
//     nvd.patches              # the component's patches, rendered as
//     wild.patches             # unified diffs and concatenated in
//     nonsecurity.patches      # manifest order; each row's bytes are
//     synthetic.patches        # also a valid standalone .patch file
//     features.csv             # one row per natural patch: id + 60
//                              # features; version line + trailer
//     manifest.csv             # version line, header, one row per patch
//                              # (id, component, label, type, repo,
//                              # origin, variant, modified_after, length
//                              # and fnv1a64 checksum of its bytes),
//                              # sealed with a checksum trailer
//
// Format v3: a row's offset in its segment is the running sum of the
// earlier lengths of its component, so the rows tile each segment and
// any byte they do not cover is corruption. Every file is written
// durably (temp + fdatasync + rename + directory fsync, see
// store/io.h), segments first and the manifest last: once
// export_patchdb returns, the dataset survives process kill, OS crash
// and power loss, and a crash before the manifest lands leaves no
// manifest or the previous one. Loads verify the manifest's trailer,
// every row's length against its segment and every row's checksum.
// Parsing is strict: malformed fields, unknown labels/components/types,
// short or over-long segments and checksum mismatches all throw
// instead of loading as garbage; a v2 (file-per-patch) export throws
// UnsupportedVersion.
//
// Exports round-trip: load_patchdb(export_patchdb(db)) reproduces every
// patch byte-for-byte (modulo snapshots, which are not exported — they
// are reconstruction artifacts of the simulator, not dataset content).
#pragma once

#include <filesystem>
#include <string>
#include <vector>

#include "core/patchdb.h"
#include "store/layout.h"

namespace patchdb::store {

struct ExportStats {
  std::size_t patches_written = 0;
  std::size_t feature_rows = 0;
  std::filesystem::path root;
};

/// Write the dataset under `root` (created if absent; existing files are
/// overwritten). features.csv takes its rows from db.natural_features,
/// which build_patchdb fills. Throws std::invalid_argument when those
/// rows do not match the natural patches one to one, and
/// std::runtime_error on I/O failure.
ExportStats export_patchdb(const core::PatchDb& db, const std::filesystem::path& root);

/// A dataset loaded back from disk. Snapshots are empty (see above);
/// synthetic truth/variant/origin metadata is restored from the manifest.
struct LoadedPatchDb {
  std::vector<corpus::CommitRecord> nvd_security;
  std::vector<corpus::CommitRecord> wild_security;
  std::vector<corpus::CommitRecord> nonsecurity;
  std::vector<synth::SyntheticPatch> synthetic;
};

/// Read an exported dataset, one segment in memory at a time. Throws
/// UnsupportedVersion for an older format and std::runtime_error when
/// the manifest is missing, malformed or fails its checksum, or when a
/// segment is missing, shorter or longer than its rows, or holds a row
/// that fails its checksum or does not parse.
LoadedPatchDb load_patchdb(const std::filesystem::path& root);

}  // namespace patchdb::store
