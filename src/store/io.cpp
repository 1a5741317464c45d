#include "store/io.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstring>
#include <system_error>
#include <vector>

#include "obs/metrics.h"
#include "util/hash.h"

namespace patchdb::store {

namespace fs = std::filesystem;

namespace {

constexpr std::string_view kTrailerTag = "#fnv1a64 ";
constexpr std::size_t kHexDigits = 16;
// Tag + 16 hex digits + newline.
constexpr std::size_t kTrailerSize = kTrailerTag.size() + kHexDigits + 1;

std::atomic<std::size_t> g_fail_write{FaultPlan::kNever};
std::atomic<bool> g_fail_truncate{false};
std::atomic<std::size_t> g_write_index{0};

[[noreturn]] void io_error(const char* op, const fs::path& path) {
  throw std::runtime_error(std::string("store: ") + op + " " + path.string() +
                           ": " + std::strerror(errno));
}

/// An fd that is closed on every path; close() reports its own error
/// because a failed close can be the first sign of a lost write.
class Fd {
 public:
  Fd(const fs::path& path, int flags, const char* op) : path_(path) {
    do {
      fd_ = ::open(path.c_str(), flags | O_CLOEXEC, 0644);
    } while (fd_ < 0 && errno == EINTR);
    if (fd_ < 0) io_error(op, path);
  }
  Fd(const Fd&) = delete;
  Fd& operator=(const Fd&) = delete;
  ~Fd() {
    if (fd_ >= 0) ::close(fd_);
  }
  int get() const noexcept { return fd_; }
  void close() {
    const int fd = fd_;
    fd_ = -1;
    if (::close(fd) != 0) io_error("cannot close", path_);
  }

 private:
  fs::path path_;
  int fd_ = -1;
};

void write_all(const Fd& fd, const fs::path& path, std::string_view content) {
  while (!content.empty()) {
    const ssize_t n = ::write(fd.get(), content.data(), content.size());
    if (n < 0) {
      if (errno == EINTR) continue;
      io_error("cannot write", path);
    }
    content.remove_prefix(static_cast<std::size_t>(n));
  }
}

void sync_directory(const fs::path& dir) {
  Fd fd(dir.empty() ? fs::path(".") : dir, O_RDONLY | O_DIRECTORY,
        "cannot open directory");
  if (::fsync(fd.get()) != 0) io_error("cannot fsync directory", dir);
  fd.close();
}

}  // namespace

void set_fault_plan(const FaultPlan& plan) noexcept {
  g_fail_truncate.store(plan.truncate);
  g_fail_write.store(plan.fail_write);
  g_write_index.store(0);
}

void clear_fault_plan() noexcept { set_fault_plan(FaultPlan{}); }

std::size_t fault_write_count() noexcept { return g_write_index.load(); }

std::string read_file(const fs::path& path) {
  Fd fd(path, O_RDONLY, "cannot read");
  struct stat st {};
  if (::fstat(fd.get(), &st) != 0) io_error("cannot stat", path);
  std::string content(static_cast<std::size_t>(st.st_size), '\0');
  std::size_t got = 0;
  while (got < content.size()) {
    const ssize_t n = ::read(fd.get(), content.data() + got, content.size() - got);
    if (n < 0) {
      if (errno == EINTR) continue;
      io_error("cannot read", path);
    }
    if (n == 0) break;  // shrank since fstat: return what is there
    got += static_cast<std::size_t>(n);
  }
  content.resize(got);
  return content;
}

void atomic_write_file(const fs::path& path, std::string_view content) {
  const std::size_t index = g_write_index.fetch_add(1);
  if (index == g_fail_write.load()) {
    if (g_fail_truncate.load()) {
      // A torn, non-atomic writer: half the bytes land at the final
      // path. Readers must reject this via checksums and lengths.
      Fd out(path, O_WRONLY | O_CREAT | O_TRUNC, "cannot open");
      write_all(out, path, content.substr(0, content.size() / 2));
      out.close();
    }
    throw FaultInjected("store: injected fault at write " +
                        std::to_string(index) + " (" + path.string() + ")");
  }

  fs::path tmp = path;
  tmp += ".tmp";
  try {
    Fd out(tmp, O_WRONLY | O_CREAT | O_TRUNC, "cannot open");
    write_all(out, tmp, content);
    if (::fdatasync(out.get()) != 0) io_error("cannot fdatasync", tmp);
    out.close();
    if (::rename(tmp.c_str(), path.c_str()) != 0) io_error("cannot rename into", path);
  } catch (...) {
    std::error_code ec;
    fs::remove(tmp, ec);
    throw;
  }
  sync_directory(path.parent_path());
  PATCHDB_COUNTER_ADD("store.writes", 1);
  PATCHDB_COUNTER_ADD("store.bytes", content.size());
}

void create_directories_durably(const fs::path& dir) {
  std::vector<fs::path> missing;
  for (fs::path p = dir; !p.empty() && !fs::exists(p); p = p.parent_path()) {
    missing.push_back(p);
  }
  fs::create_directories(dir);
  for (const fs::path& created : missing) sync_directory(created.parent_path());
}

bool parse_hex64(std::string_view text, std::uint64_t& out) {
  if (text.size() != kHexDigits) return false;
  std::uint64_t value = 0;
  for (char c : text) {
    value <<= 4;
    if (c >= '0' && c <= '9') {
      value |= static_cast<std::uint64_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      value |= static_cast<std::uint64_t>(c - 'a' + 10);
    } else {
      return false;
    }
  }
  out = value;
  return true;
}

std::string with_checksum_trailer(std::string body) {
  if (body.empty() || body.back() != '\n') body += '\n';
  const std::uint64_t checksum = util::fnv1a64(body);
  body += kTrailerTag;
  body += util::to_hex(checksum);
  body += '\n';
  return body;
}

std::string_view strip_checksum_trailer(std::string_view sealed,
                                        const std::string& what) {
  const auto fail = [&what](const char* why) -> std::string_view {
    PATCHDB_COUNTER_ADD("store.checksum_failures", 1);
    throw std::runtime_error("store: " + what + ": " + why);
  };
  if (sealed.size() < kTrailerSize + 1 || sealed.back() != '\n') {
    return fail("missing checksum trailer");
  }
  const std::string_view trailer = sealed.substr(sealed.size() - kTrailerSize);
  if (trailer.substr(0, kTrailerTag.size()) != kTrailerTag) {
    return fail("missing checksum trailer");
  }
  std::uint64_t recorded = 0;
  if (!parse_hex64(trailer.substr(kTrailerTag.size(), kHexDigits), recorded)) {
    return fail("malformed checksum trailer");
  }
  const std::string_view body = sealed.substr(0, sealed.size() - kTrailerSize);
  if (body.empty() || body.back() != '\n') {
    return fail("checksum trailer is not on its own line");
  }
  if (util::fnv1a64(body) != recorded) {
    return fail("checksum mismatch (corrupted or truncated file)");
  }
  return body;
}

std::string_view open_sealed(std::string_view sealed, std::string_view version_line,
                             const std::string& what, std::string_view remedy) {
  const std::string_view body = strip_checksum_trailer(sealed, what);
  if (body.substr(0, version_line.size()) != version_line ||
      body.size() <= version_line.size() || body[version_line.size()] != '\n') {
    throw UnsupportedVersion("store: " + what + ": unsupported version (expected " +
                             std::string(version_line) + "); " +
                             std::string(remedy));
  }
  return body.substr(version_line.size() + 1);
}

}  // namespace patchdb::store
