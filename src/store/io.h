// Durable file I/O for the store: every file is written to a temporary
// sibling, flushed to stable storage, atomically renamed into place,
// and the rename itself is made durable by syncing the parent
// directory. Once atomic_write_file returns, the file survives process
// kill, OS crash and power loss; a crash before it returns leaves the
// previous file (or none) at the final path, never a half-written one.
// Documents that must be tamper-evident (manifest, features,
// checkpoints) are "sealed" with a version line and a trailing FNV-1a
// checksum line that readers verify before parsing.
//
// A fault-injection hook covers the whole write path for the kill-point
// tests: fail the Nth write before it commits (simulating a crash
// between rounds) or leave a deliberately torn file at the destination
// (simulating a non-atomic writer, which fsck and resume must detect).
//
// Obs counters: store.writes, store.bytes, store.checksum_failures.
#pragma once

#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <string_view>

namespace patchdb::store {

/// Thrown (only) by the fault-injection hook so tests can distinguish a
/// planted crash from a real I/O error.
class FaultInjected : public std::runtime_error {
 public:
  explicit FaultInjected(const std::string& what) : std::runtime_error(what) {}
};

/// Thrown when a sealed document carries another format's version line
/// (an export or checkpoint written by an older release). Such files
/// are refused, never reinterpreted; the remedy is to re-create them.
class UnsupportedVersion : public std::runtime_error {
 public:
  explicit UnsupportedVersion(const std::string& what) : std::runtime_error(what) {}
};

/// Test hook: make the Nth atomic_write_file call fail. With
/// `truncate` the faulting write leaves half the content at the
/// destination (a torn, non-atomic write); without it the destination
/// is untouched (a crash before the rename committed).
struct FaultPlan {
  static constexpr std::size_t kNever = static_cast<std::size_t>(-1);
  /// 0-based index of the write to fail; kNever disables the hook.
  std::size_t fail_write = kNever;
  bool truncate = false;
};

/// Install a plan (resets the write counter) / disarm the hook.
void set_fault_plan(const FaultPlan& plan) noexcept;
void clear_fault_plan() noexcept;

/// Writes performed since the last set/clear_fault_plan (test aid for
/// sweeping every kill point).
std::size_t fault_write_count() noexcept;

/// Read a whole file with one sized read; throws std::runtime_error
/// when it cannot be opened or read.
std::string read_file(const std::filesystem::path& path);

/// Write-to-temp, fdatasync, rename, fsync the parent directory.
/// Throws std::runtime_error on any I/O failure and FaultInjected when
/// the armed fault plan fires.
void atomic_write_file(const std::filesystem::path& path, std::string_view content);

/// create_directories, then fsync the parent of every directory it
/// created so the new entries survive power loss too.
void create_directories_durably(const std::filesystem::path& dir);

/// Parse exactly 16 lowercase hex digits (the store's checksum
/// spelling). Returns false on any other input.
bool parse_hex64(std::string_view text, std::uint64_t& out);

/// Append the checksum trailer line ("#fnv1a64 <16 hex>\n") covering
/// every preceding byte. A missing final newline is added first so the
/// trailer is always a line of its own.
std::string with_checksum_trailer(std::string body);

/// Verify and strip the trailer; returns the body. Throws
/// std::runtime_error (and bumps store.checksum_failures) when the
/// trailer is missing, malformed, or does not match — i.e. any flipped
/// or truncated byte anywhere in the document.
std::string_view strip_checksum_trailer(std::string_view sealed,
                                        const std::string& what);

/// strip_checksum_trailer, then require `version_line` as the first
/// line and return what follows it. A different version line throws
/// UnsupportedVersion naming `remedy` ("re-export the dataset").
std::string_view open_sealed(std::string_view sealed, std::string_view version_line,
                             const std::string& what, std::string_view remedy);

}  // namespace patchdb::store
