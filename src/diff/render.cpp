#include "diff/render.h"

#include <charconv>

#include "util/hash.h"
#include "util/strings.h"

namespace patchdb::diff {

namespace {

void append_number(std::size_t value, std::string& out) {
  char buf[24];
  const auto result = std::to_chars(buf, buf + sizeof(buf), value);
  out.append(buf, result.ptr);
}

void render_hunk(const Hunk& hunk, std::string& out) {
  out += "@@ -";
  append_number(hunk.old_start, out);
  out += ',';
  append_number(hunk.old_count, out);
  out += " +";
  append_number(hunk.new_start, out);
  out += ',';
  append_number(hunk.new_count, out);
  out += " @@";
  if (!hunk.section.empty()) {
    out += ' ';
    out += hunk.section;
  }
  out += '\n';
  for (const Line& line : hunk.lines) {
    switch (line.kind) {
      case LineKind::kContext: out += ' '; break;
      case LineKind::kRemoved: out += '-'; break;
      case LineKind::kAdded: out += '+'; break;
    }
    out += line.text;
    out += '\n';
  }
}

void render_file(const FileDiff& fd, std::string& out) {
  const std::string& a = fd.old_path.empty() ? fd.new_path : fd.old_path;
  const std::string& b = fd.new_path.empty() ? fd.old_path : fd.new_path;
  out += "diff --git a/";
  out += a;
  out += " b/";
  out += b;
  out += '\n';
  switch (fd.change) {
    case ChangeKind::kCreate: out += "new file mode 100644\n"; break;
    case ChangeKind::kDelete: out += "deleted file mode 100644\n"; break;
    case ChangeKind::kRename:
      out += "rename from ";
      out += fd.old_path;
      out += "\nrename to ";
      out += fd.new_path;
      out += '\n';
      break;
    case ChangeKind::kModify: break;
  }
  if (!fd.index_line.empty()) {
    out += "index ";
    out += fd.index_line;
    out += '\n';
  }
  if (!fd.hunks.empty()) {
    if (fd.change == ChangeKind::kCreate) {
      out += "--- /dev/null\n";
    } else {
      out += "--- a/";
      out += a;
      out += '\n';
    }
    if (fd.change == ChangeKind::kDelete) {
      out += "+++ /dev/null\n";
    } else {
      out += "+++ b/";
      out += b;
      out += '\n';
    }
    for (const Hunk& hunk : fd.hunks) render_hunk(hunk, out);
  }
}

void render_file_diffs(const std::vector<FileDiff>& files, std::string& out) {
  for (const FileDiff& fd : files) render_file(fd, out);
}

}  // namespace

std::string render_file_diffs(const std::vector<FileDiff>& files) {
  std::string out;
  render_file_diffs(files, out);
  return out;
}

std::string render_patch(const Patch& patch) {
  std::string out;
  out += "commit ";
  out += patch.commit;
  out += '\n';
  if (!patch.author.empty()) {
    out += "Author: ";
    out += patch.author;
    out += '\n';
  }
  if (!patch.date.empty()) {
    out += "Date:   ";
    out += patch.date;
    out += '\n';
  }
  out += '\n';
  if (!patch.message.empty()) {
    for (std::string_view line : util::split_lines(patch.message)) {
      out += "    ";
      out += line;
      out += '\n';
    }
    out += '\n';
  }
  render_file_diffs(patch.files, out);
  return out;
}

std::string commit_id_of(const std::vector<FileDiff>& files, std::string_view message,
                         std::string_view salt) {
  thread_local std::string rendered;
  rendered.clear();
  render_file_diffs(files, rendered);
  return util::CommitIdHasher().update(rendered).update(message).update(salt).id();
}

}  // namespace patchdb::diff
