// pimecc -- oracle/chaos_backend.hpp
//
// Deterministic I/O fault injection: the substrate of the crash-safety
// harness.  ChaosBackend wraps a util::chaos::FileBackend and tears writes
// at chosen byte offsets, flips bits in what reaches "disk", returns short
// reads, and fails opens transiently -- all one-shot and explicitly armed,
// never clock- or entropy-dependent, so every injected failure is
// reproducible from the test source alone (fuzz sweeps derive their offsets
// from util::Rng::for_stream substreams, the same discipline as the rest of
// the suite).  Test support, not product: only tests link it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "util/chaos.hpp"

namespace pimecc::util::chaos {

// --------------------------------------------------------------------------
// Pure byte corruptions (the checkpoint fuzz vocabulary).

/// The first `size` bytes of `bytes` -- a torn write observed at recovery.
/// `size` beyond the input just copies it whole.
[[nodiscard]] std::vector<std::uint8_t> truncated(
    std::span<const std::uint8_t> bytes, std::size_t size);

/// A copy of `bytes` with bit `bit_index` (little-endian within each byte)
/// flipped.  Throws std::out_of_range past the last bit.
[[nodiscard]] std::vector<std::uint8_t> bit_flipped(
    std::span<const std::uint8_t> bytes, std::uint64_t bit_index);

// --------------------------------------------------------------------------
// Chaos backend.

/// One-shot faults to inject, consumed in operation order.  Arm a field,
/// run the operation(s), inspect the log.  Unarmed operations delegate to
/// the wrapped backend untouched.
struct ChaosPlan {
  /// The next `fail_opens` write_file calls fail before creating the file
  /// (transient open failure: EMFILE, ENOSPC at create, ...).
  std::size_t fail_opens = 0;
  /// The next write_file persists only the first `*tear_after` bytes of its
  /// payload, then reports failure (crash / disk-full mid-write).
  std::optional<std::uint64_t> tear_after;
  /// The next write_file completes "successfully" but flips this bit of
  /// the on-disk image (silent media corruption; CRC must catch it).
  std::optional<std::uint64_t> corrupt_bit;
  /// The next rename_file fails, leaving the source file behind.
  bool fail_rename = false;
  /// The next successful read_file returns only the first `*short_read`
  /// bytes (a torn tail observed at recovery time).
  std::optional<std::uint64_t> short_read;
};

/// What the chaos backend actually did -- tests assert on these to prove
/// the fault really fired.
struct ChaosLog {
  std::size_t writes = 0;
  std::size_t renames = 0;
  std::size_t reads = 0;
  std::size_t removes = 0;
  std::size_t backoffs = 0;
  std::size_t opens_failed = 0;
  std::size_t writes_torn = 0;
  std::size_t bits_corrupted = 0;
  std::size_t renames_failed = 0;
  std::size_t reads_shortened = 0;
  [[nodiscard]] std::size_t faults_injected() const noexcept {
    return opens_failed + writes_torn + bits_corrupted + renames_failed +
           reads_shortened;
  }
};

/// FileBackend decorator injecting the armed ChaosPlan faults into a
/// delegate (the real backend by default).  Not thread-safe: the harness
/// drives it from one test thread.
class ChaosBackend final : public FileBackend {
 public:
  explicit ChaosBackend(FileBackend* delegate = nullptr)
      : delegate_(delegate != nullptr ? delegate : &real_file_backend()) {}

  [[nodiscard]] ChaosPlan& plan() noexcept { return plan_; }
  [[nodiscard]] const ChaosLog& log() const noexcept { return log_; }

  void write_file(const std::string& path,
                  std::span<const std::uint8_t> bytes) override;
  void rename_file(const std::string& from, const std::string& to) override;
  void remove_file(const std::string& path) noexcept override;
  [[nodiscard]] bool read_file(const std::string& path,
                               std::vector<std::uint8_t>& out) override;
  [[nodiscard]] bool exists(const std::string& path) override;
  /// Counted but never sleeps: injected-failure tests stay wall-clock free.
  void backoff(std::size_t attempt) override;

 private:
  FileBackend* delegate_;
  ChaosPlan plan_;
  ChaosLog log_;
};

}  // namespace pimecc::util::chaos
