// Render a Patch back into git unified-diff text. `parse_patch` and
// `render_patch` round-trip: parse(render(p)) == p for every patch the
// model can represent, which the property tests assert.
#pragma once

#include <string>
#include <string_view>

#include "diff/patch.h"

namespace patchdb::diff {

/// Render only the diff body (`diff --git` sections).
std::string render_file_diffs(const std::vector<FileDiff>& files);

/// Render the full commit: header (commit/author/date/message) + body.
std::string render_patch(const Patch& patch);

/// The commit id of generated content:
/// util::commit_id(render_file_diffs(files) + message + salt), rendered
/// into a reused per-thread buffer and hashed in one pass.
std::string commit_id_of(const std::vector<FileDiff>& files, std::string_view message,
                         std::string_view salt);

}  // namespace patchdb::diff
