#include "util/chaos.hpp"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

namespace pimecc::util::chaos {

namespace {

[[noreturn]] void throw_errno(const std::string& what, const std::string& path) {
  throw IoError(what + " '" + path + "': " + std::strerror(errno));
}

/// fsync a directory so a rename within it is durable.  Best effort: some
/// filesystems refuse O_RDONLY directory fsync; that's not a data-loss
/// path (the rename itself already happened atomically).
void sync_parent_dir(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos ? "." : path.substr(0, slash);
  const int fd = ::open(dir.empty() ? "/" : dir.c_str(), O_RDONLY);
  if (fd >= 0) {
    (void)::fsync(fd);
    (void)::close(fd);
  }
}

class RealFileBackend final : public FileBackend {};

}  // namespace

void FileBackend::write_file(const std::string& path,
                             std::span<const std::uint8_t> bytes) {
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) throw_errno("cannot create", path);
  std::size_t written = 0;
  while (written < bytes.size()) {
    const ssize_t n = ::write(fd, bytes.data() + written, bytes.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      const int saved = errno;
      (void)::close(fd);
      errno = saved;
      throw_errno("write failed for", path);
    }
    written += static_cast<std::size_t>(n);
  }
  if (::fsync(fd) != 0) {
    const int saved = errno;
    (void)::close(fd);
    errno = saved;
    throw_errno("fsync failed for", path);
  }
  if (::close(fd) != 0) throw_errno("close failed for", path);
}

void FileBackend::rename_file(const std::string& from, const std::string& to) {
  if (::rename(from.c_str(), to.c_str()) != 0) {
    throw_errno("cannot rename '" + from + "' to", to);
  }
  sync_parent_dir(to);
}

void FileBackend::remove_file(const std::string& path) noexcept {
  (void)::unlink(path.c_str());
}

bool FileBackend::read_file(const std::string& path,
                            std::vector<std::uint8_t>& out) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return false;
  out.clear();
  std::uint8_t buffer[1 << 16];
  while (true) {
    const ssize_t n = ::read(fd, buffer, sizeof(buffer));
    if (n < 0) {
      if (errno == EINTR) continue;
      (void)::close(fd);
      return false;
    }
    if (n == 0) break;
    out.insert(out.end(), buffer, buffer + n);
  }
  (void)::close(fd);
  return true;
}

bool FileBackend::exists(const std::string& path) {
  struct stat st{};
  return ::stat(path.c_str(), &st) == 0;
}

void FileBackend::backoff(std::size_t attempt) {
  // Bounded exponential: 1ms, 2ms, 4ms, ... capped at 64ms.  A transient
  // open failure (fd pressure, NFS hiccup) gets breathing room; a
  // persistent one still fails the save within the retry budget fast.
  const std::uint64_t ms = std::min<std::uint64_t>(64, 1ull << std::min<std::size_t>(attempt, 6));
  std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

FileBackend& real_file_backend() {
  static RealFileBackend backend;
  return backend;
}

}  // namespace pimecc::util::chaos
