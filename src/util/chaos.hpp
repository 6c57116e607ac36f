// pimecc -- util/chaos.hpp
//
// The checkpoint store's filesystem substrate.  util/ckpt_store.hpp performs
// every filesystem operation through a FileBackend, so tests can swap in a
// fault-injecting one (oracle/chaos_backend.hpp) that tears writes, flips
// bits, shortens reads and fails opens deterministically.
//
// The real backend's write_file is the crash-safe primitive: it writes the
// full byte image, fsyncs, and closes, reporting every short or failed
// write as an IoError -- it never returns success for a torn file.  Rename
// is POSIX-atomic replacement plus a parent-directory fsync, which is what
// makes the checkpoint store's temp-then-rename generations crash-safe.
#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

namespace pimecc::util::chaos {

/// A failed or injected-to-fail filesystem operation.  Distinct from
/// SerializeError: IoError means the substrate misbehaved (disk full, torn
/// write, transient open failure), SerializeError means the bytes that did
/// arrive are not a valid checkpoint.
class IoError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

// --------------------------------------------------------------------------
// Filesystem abstraction.

/// The filesystem operations the checkpoint store needs, virtualized so a
/// test harness can fail any of them deterministically.  The default
/// implementations are the real (POSIX, durable) ones.
class FileBackend {
 public:
  virtual ~FileBackend() = default;

  /// Creates/truncates `path` and durably writes `bytes`: every byte
  /// written, fsynced, and closed, or IoError -- never a silent short
  /// write.  (A crash can still tear the file; that is what the
  /// temp-then-rename discipline above this call is for.)
  virtual void write_file(const std::string& path,
                          std::span<const std::uint8_t> bytes);

  /// Atomically replaces `to` with `from` (POSIX rename), then fsyncs the
  /// parent directory so the new directory entry is durable.
  virtual void rename_file(const std::string& from, const std::string& to);

  /// Best-effort unlink; missing files are not an error.
  virtual void remove_file(const std::string& path) noexcept;

  /// Reads the whole file into `out`.  Returns false when the file does not
  /// exist or cannot be opened (recovery treats that as "no candidate",
  /// not a failure).
  [[nodiscard]] virtual bool read_file(const std::string& path,
                                       std::vector<std::uint8_t>& out);

  [[nodiscard]] virtual bool exists(const std::string& path);

  /// Delay before retry `attempt` (0-based) of a transiently failed save:
  /// bounded exponential backoff.  A test backend overrides it so
  /// injected-failure tests never sleep.
  virtual void backoff(std::size_t attempt);
};

/// The process-wide real backend (stateless; safe to share).
[[nodiscard]] FileBackend& real_file_backend();

}  // namespace pimecc::util::chaos
