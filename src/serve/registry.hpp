// pimecc -- serve/registry.hpp
//
// Shared read-mostly caches behind the serving front end: benchmark
// circuits, mapped single-row programs per (circuit, row width), and a
// PimMachine pool per (n, m) so a burst of `run` requests does not rebuild
// the geometry/stride tables (ArrayCode, crossbar buffers) for
// every request.  The pool holds at most kMaxPooledMachines idle machines
// beyond the most recently returned design point's, evicting the least
// recently used design point first, so a client cycling through design
// points cannot grow it without bound.  Everything cached is immutable
// once published (shared_ptr<const>), so concurrent batch lanes can hit the
// cache without copying; the machine pool hands out exclusive leases
// instead, because a PimMachine is mutable execution state.
//
// Thread safety: all entry points are safe to call concurrently.  Lookups
// take a shared lock; a miss upgrades to an exclusive lock and may build
// the entry outside any lock (two racing misses both build, one wins --
// acceptable for a cache, and it keeps netlist construction out of the
// critical section).
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <shared_mutex>
#include <string>
#include <utility>
#include <vector>

#include "arch/pim_machine.hpp"
#include "bench_circuits/circuits.hpp"
#include "simpler/mapper.hpp"

namespace pimecc::serve {

/// Cache hit/miss accounting (monotonic; read via Registry::stats).
struct RegistryStats {
  std::uint64_t circuit_hits = 0;
  std::uint64_t circuit_misses = 0;
  std::uint64_t program_hits = 0;
  std::uint64_t program_misses = 0;
  std::uint64_t machine_reuses = 0;
  std::uint64_t machine_builds = 0;
};

class Registry {
 public:
  /// The named benchmark circuit, built on first use.  Throws
  /// std::invalid_argument for unknown names (not cached).
  std::shared_ptr<const circuits::CircuitSpec> circuit(const std::string& name);

  /// The circuit mapped onto a row of `row_width` cells.  Throws
  /// std::runtime_error when the netlist does not fit (not cached).
  std::shared_ptr<const simpler::MappedProgram> program(const std::string& name,
                                                        std::size_t row_width);

  /// Exclusive lease on a PimMachine for the (n, m) design point; freshly
  /// constructed on pool exhaustion.  The machine comes back in whatever
  /// state the previous user left it -- `run` handlers load their own
  /// image, which re-encodes everything.
  class MachineLease {
   public:
    MachineLease(Registry& registry, std::size_t n, std::size_t m,
                 std::unique_ptr<arch::PimMachine> machine)
        : registry_(&registry), n_(n), m_(m), machine_(std::move(machine)) {}
    ~MachineLease();
    MachineLease(MachineLease&&) noexcept = default;
    MachineLease& operator=(MachineLease&&) = delete;
    MachineLease(const MachineLease&) = delete;
    MachineLease& operator=(const MachineLease&) = delete;

    [[nodiscard]] arch::PimMachine& machine() noexcept { return *machine_; }

   private:
    Registry* registry_;
    std::size_t n_;
    std::size_t m_;
    std::unique_ptr<arch::PimMachine> machine_;
  };

  /// Throws std::invalid_argument on an invalid (n, m) design point.
  [[nodiscard]] MachineLease acquire_machine(std::size_t n, std::size_t m);

  [[nodiscard]] RegistryStats stats() const;

  /// Idle machines currently pooled, over every design point.
  [[nodiscard]] std::size_t pooled_machines() const;

 private:
  /// The idle machines of one design point and when it was last used.
  struct Pool {
    std::vector<std::unique_ptr<arch::PimMachine>> idle;
    std::uint64_t last_used = 0;
  };

  void release_machine(std::size_t n, std::size_t m,
                       std::unique_ptr<arch::PimMachine> machine);

  mutable std::shared_mutex mutex_;
  // Atomic so hit paths can count under the shared (reader) lock.
  struct {
    std::atomic<std::uint64_t> circuit_hits{0};
    std::atomic<std::uint64_t> circuit_misses{0};
    std::atomic<std::uint64_t> program_hits{0};
    std::atomic<std::uint64_t> program_misses{0};
    std::atomic<std::uint64_t> machine_reuses{0};
    std::atomic<std::uint64_t> machine_builds{0};
  } stats_;
  std::map<std::string, std::shared_ptr<const circuits::CircuitSpec>> circuits_;
  std::map<std::pair<std::string, std::size_t>,
           std::shared_ptr<const simpler::MappedProgram>>
      programs_;
  std::map<std::pair<std::size_t, std::size_t>, Pool> machines_;
  std::size_t pooled_ = 0;    // sum of the pools' idle sizes
  std::uint64_t use_clock_ = 0;  // stamps Pool::last_used
};

}  // namespace pimecc::serve
