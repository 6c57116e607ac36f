#include "report.hpp"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <thread>

#include "util/executor.hpp"
#include "util/simd.hpp"

#ifndef E2E_BUILD_TYPE
#define E2E_BUILD_TYPE "unknown"
#endif

namespace e2e {

double process_cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double peak_rss_mib() {
  // VmHWM, not getrusage's ru_maxrss: Linux carries ru_maxrss across
  // exec, so under run.py it would report the Python parent's resident
  // set whenever that is the larger.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // the value is in kB
    }
  }
  return 0.0;
}

void LatencySample::add(double latency_ms, double since_start_s) {
  const auto window = static_cast<std::size_t>(std::max(since_start_s, 0.0) / kWindowSeconds);
  if (window >= windows_.size()) windows_.resize(window + 1, 0);
  ++windows_[window];
  ++seen_;
  if (seen_ <= kCapacity) {
    kept_[static_cast<std::size_t>(seen_ - 1)] = latency_ms;
    return;
  }
  // Algorithm R: replace a random slot with probability capacity / seen.
  state_ += 0x9E3779B97F4A7C15ull;
  std::uint64_t z = state_;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  z ^= z >> 31;
  const std::uint64_t slot = z % seen_;
  if (slot < kCapacity) kept_[static_cast<std::size_t>(slot)] = latency_ms;
}

const std::vector<double>& LatencySample::sorted() {
  kept_.resize(static_cast<std::size_t>(std::min<std::uint64_t>(seen_, kCapacity)));
  std::sort(kept_.begin(), kept_.end());
  return kept_;
}

double percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const double rank = std::ceil(p / 100.0 * static_cast<double>(sorted.size()));
  const std::size_t index =
      static_cast<std::size_t>(std::max(rank, 1.0)) - 1;
  return sorted[std::min(index, sorted.size() - 1)];
}

Tail tail_latency(const std::vector<double>& sorted, double p) {
  const double rank = std::ceil(p / 100.0 * static_cast<double>(sorted.size()));
  return {percentile(sorted, p),
          sorted.size() - std::min(sorted.size(), static_cast<std::size_t>(rank))};
}

namespace {

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) {
        std::size_t start = colon + 1;
        while (start < line.size() && line[start] == ' ') ++start;
        return line.substr(start);
      }
    }
  }
  return "unknown";
}

std::size_t affinity_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 0;
  return static_cast<std::size_t>(CPU_COUNT(&set));
}

}  // namespace

std::vector<std::string> host_block(const Options& options) {
  pimecc::util::Executor& executor = pimecc::util::Executor::shared();
  const std::size_t nproc = affinity_cpus();
  std::vector<std::string> lines;
  lines.push_back("cpu_model: " + cpu_model());
  lines.push_back("nproc: " + std::to_string(nproc));
  lines.push_back("hardware_concurrency: " +
                  std::to_string(std::thread::hardware_concurrency()));
  lines.push_back("executor_worker_count: " + std::to_string(executor.worker_count()));
  lines.push_back("executor_parallelism: " + std::to_string(executor.parallelism()));
  lines.push_back(std::string("simd_active_level: ") +
                  pimecc::util::simd::to_string(pimecc::util::simd::active_level()));
  lines.push_back(std::string("build_type: ") + E2E_BUILD_TYPE);
#if defined(__clang__)
  lines.push_back(std::string("compiler: clang ") + __clang_version__);
#elif defined(__GNUC__)
  lines.push_back(std::string("compiler: gcc ") + __VERSION__);
#else
  lines.push_back("compiler: unknown");
#endif
  lines.push_back("git_describe: " + options.git_describe);
  if (nproc > 0 && executor.parallelism() < nproc) {
    lines.push_back("WARNING: executor parallelism " +
                    std::to_string(executor.parallelism()) + " < nproc " +
                    std::to_string(nproc) +
                    " -- lane and thread scaling figures from this run are not "
                    "measurements");
  }
  return lines;
}

CpuRotation::CpuRotation() {
  (void)pimecc::util::Executor::shared();  // workers inherit the unpinned mask
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &set)) cpus_.push_back(cpu);
  }
}

void CpuRotation::next() {
  if (cpus_.size() < 2) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpus_[turn_++ % cpus_.size()], &set);
  if (sched_setaffinity(0, sizeof(set), &set) == 0) pinned_ = true;
}

void CpuRotation::release() {
  if (!pinned_) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const int cpu : cpus_) CPU_SET(cpu, &set);
  (void)sched_setaffinity(0, sizeof(set), &set);
  pinned_ = false;
}

std::uint64_t fnv1a(const std::string& text, std::uint64_t hash) {
  for (const char c : text) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ull;
  }
  return hash;
}

namespace {

std::uint64_t fold(std::uint64_t digest, std::uint64_t line_hash) {
  return digest * 0x100000001b3ull ^ line_hash;
}

std::string hex(std::uint64_t value) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%016llx", static_cast<unsigned long long>(value));
  return buffer;
}

}  // namespace

void SlotDigests::add(std::uint64_t line_hash) {
  const std::size_t slot = static_cast<std::size_t>(ops_ % first_.size());
  if (ops_ < first_.size()) {
    first_[slot] = line_hash;
  } else if (first_[slot] != line_hash && repeat_mismatch_ == kNone) {
    repeat_mismatch_ = ops_;
  }
  digest_ = fold(digest_, line_hash);
  ++ops_;
}

std::uint64_t SlotDigests::first_mismatch(const std::vector<std::uint64_t>& expected) const {
  const std::size_t slots = static_cast<std::size_t>(std::min<std::uint64_t>(ops_, first_.size()));
  for (std::size_t s = 0; s < slots; ++s) {
    if (s >= expected.size() || first_[s] != expected[s]) return s;
  }
  return kNone;
}

std::uint64_t SlotDigests::expected_digest(const std::vector<std::uint64_t>& expected) const {
  std::uint64_t digest = 0xcbf29ce484222325ull;
  for (std::uint64_t k = 0; k < ops_; ++k) {
    const std::size_t slot = static_cast<std::size_t>(k % first_.size());
    digest = fold(digest, slot < expected.size() ? expected[slot] : 0);
  }
  return digest;
}

void check_digests(const SlotDigests& digests, const std::vector<std::uint64_t>& expected,
                   const std::string& phase, const std::vector<std::string>& slot_names,
                   RunResult& result) {
  const std::uint64_t slot = digests.first_mismatch(expected);
  if (slot != SlotDigests::kNone) {
    result.fail(phase + ": the response to '" + slot_names[static_cast<std::size_t>(slot)] +
                "' differs from its serial re-execution");
  }
  if (digests.repeat_mismatch() != SlotDigests::kNone) {
    result.fail(phase + ": operation " + std::to_string(digests.repeat_mismatch()) +
                " answered differently from an earlier operation on the same input");
  }
  const std::uint64_t serial = digests.expected_digest(expected);
  result.notes.push_back(phase + " digest " + hex(digests.digest()) + " over " +
                         std::to_string(digests.ops()) + " responses; serial re-execution " +
                         hex(serial) + (serial == digests.digest() ? " (equal)" : " (DIFFERENT)"));
}

}  // namespace e2e
