// e2e_bench -- report.hpp
//
// What a workload run hands back to main(), the end-to-end metric
// definitions, the host/provenance block, and the process resource probes.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "trace.hpp"

namespace e2e {

/// Longest timed loop.  A traced run_n1020 run lasts up to about seven
/// times --seconds (two loops, the unprotected probes and the serial
/// re-execution), which must stay inside run.py's timeout, and at ~420
/// requests/s (4-vCPU Xeon) 15 s stays well under the 8192 distinct
/// request seeds of its ring.
constexpr double kMaxSeconds = 15.0;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 5.0;
  /// Untimed run of the workload between set-up and the timed loop.  On a
  /// shared 4-vCPU host, full-width work that followed 25 s of idle CPUs
  /// (or a run's single-threaded verification) ran ~40% slower for its
  /// first 3-5 s; with a 1.5 s warm-up that slow start reached into the
  /// timed loop and moved campaign's figures by up to 20% between runs.
  double warmup_seconds = 5.0;
  bool trace = false;
  /// Least number of set-up repetitions; setup_s is their minimum.
  std::size_t setup_reps = 16;
  std::string git_describe = "unknown";
  std::string out_dir = ".";   ///< where the traced run writes its span CSV
  /// Self-test of the correctness gate: corrupts one served response line
  /// before it is digested, so the run must report correct=false.
  bool inject_mismatch = false;
};

/// Set-up repetitions run in two phases, before the timed loop and after
/// it, each lasting at least kSetupPhaseSeconds.  setup_s is their minimum:
/// single-threaded work on a shared 4-vCPU host was seen to alternate
/// between phases about 1.6x apart that last up to seconds, so a median
/// flips between the two levels from run to run, while the minimum over
/// many repetitions at two points of the run finds the unhindered cost.
constexpr double kSetupPhaseSeconds = 0.5;

/// Repetitions of the first phase; the rest of options.setup_reps run in
/// the second.
[[nodiscard]] inline std::size_t setup_reps_before(const Options& options) {
  return std::min<std::size_t>(4, options.setup_reps);
}

/// Calls `once` (one timed set-up) at least `reps` times and for at least
/// kSetupPhaseSeconds.
template <typename Once>
void repeat_set_up(std::size_t reps, Once&& once) {
  const std::int64_t end = now_ns() + static_cast<std::int64_t>(kSetupPhaseSeconds * 1e9);
  for (std::size_t done = 0; done < reps || now_ns() < end; ++done) once();
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Per-operation latencies of the timed loop.  A uniform reservoir sample
/// of fixed capacity (deterministic), allocated and written in full up
/// front and sorted in place, so the process's memory -- and with it
/// peak_rss_mib -- does not depend on throughput; completions are also
/// counted per half-second window to show drift within a run.
class LatencySample {
 public:
  static constexpr std::size_t kCapacity = std::size_t{1} << 18;
  static constexpr double kWindowSeconds = 0.5;

  void add(double latency_ms, double since_start_s);
  /// The sample in ascending order; call once, after the last add().
  [[nodiscard]] const std::vector<double>& sorted();
  [[nodiscard]] const std::vector<std::uint64_t>& windows() const noexcept {
    return windows_;
  }

 private:
  std::vector<double> kept_ = std::vector<double>(kCapacity);
  std::uint64_t seen_ = 0;
  std::uint64_t state_ = 0x9E3779B97F4A7C15ull;  // SplitMix64 for slot draws
  std::vector<std::uint64_t> windows_;
};

/// Everything one invocation measured.
struct RunResult {
  std::vector<std::string> failures;  ///< failed correctness checks; empty = correct
  std::uint64_t attempted = 0;        ///< operations attempted (timed loop)
  std::uint64_t failed = 0;           ///< non-ok responses or throws
  std::vector<double> setup_s;        ///< one entry per set-up repetition
  double elapsed_s = 0.0;             ///< timed loop wall time
  double cpu_s = 0.0;                 ///< process CPU time over the timed loop
  LatencySample latency;              ///< untraced timed loop only
  /// The percentile reported as latency_tail_ms.  Fixed per workload, so
  /// it never switches as throughput changes the sample count; each
  /// workload picks one inside its slowest cluster of operation shapes,
  /// away from the cluster's top, where a few host stalls set the value.
  double tail_percentile = 99.0;
  std::vector<Metric> per_layer;      ///< traced run only
  std::vector<std::string> notes;     ///< extra human-readable lines

  void fail(std::string what) {
    if (std::find(failures.begin(), failures.end(), what) == failures.end()) {
      failures.push_back(std::move(what));
    }
  }
};

/// 64-bit FNV-1a, used to digest response lines.
[[nodiscard]] std::uint64_t fnv1a(const std::string& text,
                                  std::uint64_t hash = 0xcbf29ce484222325ull);

/// Response-line digests of one loop.  Operation k serves slot k mod
/// |ring| of a fixed input ring, so the digests are kept per slot (memory
/// does not grow with throughput): the first response of each slot, a
/// check that every repeat of a slot answers the same, and an
/// order-sensitive fold over all responses.
class SlotDigests {
 public:
  static constexpr std::uint64_t kNone = ~std::uint64_t{0};

  explicit SlotDigests(std::size_t slots) : first_(slots, 0) {}
  void add(std::uint64_t line_hash);

  [[nodiscard]] std::uint64_t ops() const noexcept { return ops_; }
  [[nodiscard]] std::uint64_t digest() const noexcept { return digest_; }
  /// Index of the first op whose response differed from an earlier op on
  /// the same slot, or kNone.
  [[nodiscard]] std::uint64_t repeat_mismatch() const noexcept { return repeat_mismatch_; }
  /// Index of the first slot whose response differs from `expected` (the
  /// serial re-execution, one digest per slot), or kNone.
  [[nodiscard]] std::uint64_t first_mismatch(const std::vector<std::uint64_t>& expected) const;
  /// The fold the loop would have produced had every op answered `expected`.
  [[nodiscard]] std::uint64_t expected_digest(const std::vector<std::uint64_t>& expected) const;

 private:
  std::vector<std::uint64_t> first_;
  std::uint64_t ops_ = 0;
  std::uint64_t digest_ = 0xcbf29ce484222325ull;
  std::uint64_t repeat_mismatch_ = kNone;
};

/// Checks a loop's digests against the serial re-execution; records any
/// failure and a digest note in `result`.  `slot_names[s]` describes slot s.
void check_digests(const SlotDigests& digests, const std::vector<std::uint64_t>& expected,
                   const std::string& phase, const std::vector<std::string>& slot_names,
                   RunResult& result);

/// Process CPU time (user + system) in seconds, from getrusage.
[[nodiscard]] double process_cpu_seconds();
/// Peak resident set of the process in MiB (VmHWM of /proc/self/status).
[[nodiscard]] double peak_rss_mib();

/// The tail latency at percentile `p` of an ascending sample, and the
/// number of samples beyond it.
struct Tail {
  double value = 0.0;
  std::size_t beyond = 0;
};
[[nodiscard]] Tail tail_latency(const std::vector<double>& sorted, double p);
/// Nearest-rank percentile of an ascending sample.
[[nodiscard]] double percentile(const std::vector<double>& sorted, double p);

/// Moves the calling thread round-robin over the CPUs it may run on.  On a
/// shared 4-vCPU host single-threaded work was seen to run up to ~1.6x
/// slower on one vCPU than on another for seconds at a time, and a thread
/// the scheduler leaves in place reports that one vCPU's speed.  The
/// single-threaded phases (set-up repetitions, control_mix's loop of one
/// request in flight) therefore visit every CPU in turn.  The executor's
/// workers exist before the first move, so they keep the full affinity.
/// Restores the original affinity on release() and destruction.
class CpuRotation {
 public:
  CpuRotation();
  ~CpuRotation() { release(); }
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  void next();     ///< pins the thread to the next CPU of the original set
  void release();  ///< back to the original affinity

 private:
  std::vector<int> cpus_;
  std::size_t turn_ = 0;
  bool pinned_ = false;
};

/// The host/provenance block, one `key: value` line each, plus a WARNING
/// line when the executor runs fewer lanes than the host has CPUs.
[[nodiscard]] std::vector<std::string> host_block(const Options& options);

}  // namespace e2e
