#include "store/layout.h"

#include <set>
#include <stdexcept>
#include <utility>

#include "obs/metrics.h"
#include "store/csv.h"
#include "store/io.h"
#include "synth/variants.h"
#include "util/hash.h"
#include "util/strings.h"

namespace patchdb::store {

namespace fs = std::filesystem;

namespace {

constexpr std::string_view kVersionLine = "#patchdb.store.v3";
constexpr std::size_t kManifestFields = 10;
// Largest `length` a row may record (1 TiB). The field is untrusted
// input, so it is capped before it enters any arithmetic.
constexpr long long kMaxRowLength = 1LL << 40;
// Row numbers in messages count the version line and the header.
constexpr std::size_t kFirstRowNumber = 3;

[[noreturn]] void malformed(std::size_t row_no, const std::string& why) {
  throw std::runtime_error("store: malformed manifest row " +
                           std::to_string(row_no) + ": " + why);
}

std::size_t parse_component(std::string_view text, std::size_t row_no) {
  for (std::size_t c = 0; c < kComponents.size(); ++c) {
    if (text == kComponents[c]) return c;
  }
  malformed(row_no, "unknown component '" + std::string(text) + "'");
}

/// Commits are ids, never paths; only the lowercase hex the pipeline
/// emits is accepted.
void check_commit(std::string_view commit, std::size_t row_no) {
  if (commit.empty()) malformed(row_no, "empty commit");
  for (char c : commit) {
    if (!((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f'))) {
      malformed(row_no, "commit is not lowercase hex");
    }
  }
}

/// parse_int_field, with a failure reported against its row.
long long int_field(std::string_view text, long long max, const char* what,
                    std::size_t row_no) {
  try {
    return parse_int_field(text, max, what);
  } catch (const std::runtime_error& e) {
    std::string why = e.what();
    if (util::starts_with(why, "store: ")) why.erase(0, 7);
    malformed(row_no, why);
  }
}

corpus::PatchType parse_type(std::string_view text, std::size_t row_no) {
  const long long value = int_field(text, 1000, "type", row_no);
  const bool nonsecurity =
      value >= static_cast<long long>(corpus::PatchType::kNewFeature) &&
      value <= static_cast<long long>(corpus::PatchType::kDefensive);
  const auto type = static_cast<corpus::PatchType>(value);
  if (!corpus::is_security_type(type) && !nonsecurity) {
    malformed(row_no, "unknown patch type " + std::string(text));
  }
  return type;
}

ManifestRow parse_row(const std::vector<std::string>& fields, std::size_t row_no) {
  if (fields.size() != kManifestFields) {
    malformed(row_no, "expected " + std::to_string(kManifestFields) +
                          " fields, got " + std::to_string(fields.size()));
  }
  ManifestRow row;
  row.commit = fields[0];
  check_commit(row.commit, row_no);
  row.component = parse_component(fields[1], row_no);
  if (fields[2] == "security") {
    row.is_security = true;
  } else if (fields[2] != "nonsecurity") {
    malformed(row_no, "unknown label '" + fields[2] + "'");
  }
  row.type = parse_type(fields[3], row_no);
  row.repo = fields[4];
  row.origin = fields[5];
  const long long variant = int_field(fields[6], 1000, "variant", row_no);
  if (row.component == kSyntheticComponent) {
    if (variant < 1 || variant > static_cast<long long>(synth::kVariantCount)) {
      malformed(row_no, "unknown synthesis variant " + fields[6]);
    }
  } else if (variant != 0) {
    malformed(row_no, "natural patch with nonzero variant");
  }
  row.variant = static_cast<int>(variant);
  if (fields[7] != "0" && fields[7] != "1") {
    malformed(row_no, "modified_after must be 0 or 1");
  }
  row.modified_after = fields[7] == "1";
  row.length = static_cast<std::uint64_t>(
      int_field(fields[8], kMaxRowLength, "length", row_no));
  if (!parse_hex64(fields[9], row.checksum)) malformed(row_no, "malformed checksum");
  return row;
}

}  // namespace

std::string_view store_version_line() { return kVersionLine; }

std::string manifest_header() {
  return "commit,component,label,type,repo,origin,variant,modified_after,"
         "length,checksum\n";
}

std::string segment_name(std::size_t component) {
  return std::string(kComponents[component]) + ".patches";
}

std::string format_manifest_row(const ManifestRow& row) {
  std::string line;
  line += csv_escape(row.commit);
  line += ',';
  line += kComponents[row.component];
  line += ',';
  line += row.is_security ? "security" : "nonsecurity";
  line += ',';
  line += std::to_string(static_cast<int>(row.type));
  line += ',';
  line += csv_escape(row.repo);
  line += ',';
  line += csv_escape(row.origin);
  line += ',';
  line += std::to_string(row.variant);
  line += ',';
  line += row.modified_after ? '1' : '0';
  line += ',';
  line += std::to_string(row.length);
  line += ',';
  line += util::to_hex(row.checksum);
  line += '\n';
  return line;
}

std::vector<ManifestRow> parse_manifest(std::string_view sealed,
                                        const ProblemSink& problem) {
  const std::string_view csv =
      open_sealed(sealed, kVersionLine, "manifest.csv", "re-export the dataset");
  std::vector<std::vector<std::string>> table;
  try {
    table = csv_parse(csv);
  } catch (const std::runtime_error& e) {
    throw std::runtime_error(std::string("store: manifest.csv: ") + e.what());
  }
  if (table.empty() || util::join(table[0], ",") + "\n" != manifest_header()) {
    throw std::runtime_error("store: manifest.csv: bad header");
  }
  std::vector<ManifestRow> rows;
  rows.reserve(table.size() - 1);
  std::set<std::pair<std::size_t, std::string>> seen;
  for (std::size_t i = 1; i < table.size(); ++i) {
    const std::size_t row_no = i - 1 + kFirstRowNumber;
    try {
      ManifestRow row = parse_row(table[i], row_no);
      if (!seen.emplace(row.component, row.commit).second) {
        malformed(row_no, "duplicate entry " + std::string(kComponents[row.component]) +
                              "/" + row.commit);
      }
      rows.push_back(std::move(row));
    } catch (const std::runtime_error& e) {
      problem(e.what());
    }
  }
  return rows;
}

std::optional<std::size_t> walk_segment(
    const fs::path& root, std::size_t component, const std::vector<ManifestRow>& rows,
    const ProblemSink& problem,
    const std::function<void(const ManifestRow&, std::string_view)>& on_row) {
  const std::string name = segment_name(component);
  std::string segment;
  try {
    segment = read_file(root / name);
  } catch (const std::runtime_error& e) {
    problem("store: missing or unreadable segment " + name + " (" + e.what() + ")");
    return std::nullopt;
  }
  std::string_view rest = segment;
  for (const ManifestRow& row : rows) {
    if (row.component != component) continue;
    // `rest` is what the earlier rows left: comparing against its size
    // is the overflow-safe form of offset + length > segment size.
    if (row.length > rest.size()) {
      problem("store: segment " + name + " is short: commit " + row.commit +
              " needs " + std::to_string(row.length) + " bytes at offset " +
              std::to_string(segment.size() - rest.size()) + ", " +
              std::to_string(rest.size()) + " left (torn or truncated segment)");
      return segment.size();
    }
    const std::string_view bytes = rest.substr(0, row.length);
    rest.remove_prefix(row.length);
    if (util::fnv1a64(bytes) != row.checksum) {
      PATCHDB_COUNTER_ADD("store.checksum_failures", 1);
      problem("store: checksum mismatch for commit " + row.commit + " in " + name +
              " (corrupted or torn segment)");
      continue;
    }
    on_row(row, bytes);
  }
  if (!rest.empty()) {
    problem("store: segment " + name + " has " + std::to_string(rest.size()) +
            " trailing bytes not covered by the manifest");
  }
  return segment.size();
}

}  // namespace patchdb::store
