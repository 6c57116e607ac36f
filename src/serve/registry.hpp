// pimecc -- serve/registry.hpp
//
// Shared read-mostly caches behind the serving front end: benchmark
// circuits, mapped single-row programs per (circuit, row width) with their
// row-program ops, and a PimMachine pool per (n, m) so a burst of `run`
// requests does not rebuild the geometry/stride tables (ArrayCode,
// crossbar buffers) for every request.  Each pooled machine carries the
// host-side buffers of a `run` request on it (RunScratch), so a warm lease
// draws its inputs, collects its outputs and checks every lane without
// allocating.
// The pool holds at most kMaxPooledMachines idle machines
// beyond the most recently returned design point's, evicting the least
// recently used design point first, so a client cycling through design
// points cannot grow it without bound; a machine's buffers go with it.
// Everything cached is immutable
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
#include "simpler/row_vm.hpp"
#include "util/bitmatrix.hpp"
#include "util/bitvector.hpp"

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

  /// A mapped program and its ops as one row program (simpler::row_ops),
  /// built together once, so a `run` request builds no op list.  The ops'
  /// line spans point into `mapped`'s cells, so the pair is never copied.
  struct Program {
    explicit Program(simpler::MappedProgram program)
        : mapped(std::move(program)), ops(simpler::row_ops(mapped)) {}
    Program(const Program&) = delete;
    Program& operator=(const Program&) = delete;

    simpler::MappedProgram mapped;
    std::vector<xbar::RowOp> ops;
  };

  /// The circuit mapped onto a row of `row_width` cells, with its ops.
  /// Throws std::runtime_error when the netlist does not fit (not cached).
  std::shared_ptr<const Program> row_program(const std::string& name,
                                             std::size_t row_width);

  /// row_program's mapped program alone (sharing its cache entry).
  std::shared_ptr<const simpler::MappedProgram> program(const std::string& name,
                                                        std::size_t row_width) {
    std::shared_ptr<const Program> entry = row_program(name, row_width);
    return {entry, &entry->mapped};
  }

  /// The host-side buffers of one `run` request, kept with a pooled
  /// machine (the resident image needs none: PimMachine::load_random draws
  /// it in place).  Each request reshapes them (BitMatrix::reshape keeps
  /// the row buffers), so their shape and contents on lease are whatever
  /// the previous request left.
  struct RunScratch {
    util::BitMatrix inputs;    ///< one row of PI values per lane
    util::BitMatrix outputs;   ///< one row of PO values per lane
    util::BitVector expected;  ///< the reference model's answer for a lane
  };

  /// A pooled machine and its request buffers.
  struct PooledMachine {
    explicit PooledMachine(const arch::ArchParams& params) : machine(params) {}
    arch::PimMachine machine;
    RunScratch scratch;
  };

  /// Exclusive lease on a PimMachine for the (n, m) design point, with its
  /// RunScratch; freshly constructed on pool exhaustion.  The machine comes
  /// back in whatever state the previous user left it -- `run` handlers
  /// load their own image, which re-encodes everything.
  class MachineLease {
   public:
    MachineLease(Registry& registry, std::size_t n, std::size_t m,
                 std::unique_ptr<PooledMachine> pooled)
        : registry_(&registry), n_(n), m_(m), pooled_(std::move(pooled)) {}
    ~MachineLease();
    MachineLease(MachineLease&&) noexcept = default;
    MachineLease& operator=(MachineLease&&) = delete;
    MachineLease(const MachineLease&) = delete;
    MachineLease& operator=(const MachineLease&) = delete;

    [[nodiscard]] arch::PimMachine& machine() noexcept { return pooled_->machine; }
    [[nodiscard]] RunScratch& scratch() noexcept { return pooled_->scratch; }

   private:
    Registry* registry_;
    std::size_t n_;
    std::size_t m_;
    std::unique_ptr<PooledMachine> pooled_;
  };

  /// Throws std::invalid_argument on an invalid (n, m) design point.
  [[nodiscard]] MachineLease acquire_machine(std::size_t n, std::size_t m);

  [[nodiscard]] RegistryStats stats() const;

  /// Idle machines currently pooled, over every design point.
  [[nodiscard]] std::size_t pooled_machines() const;

 private:
  /// The idle machines of one design point and when it was last used.
  struct Pool {
    std::vector<std::unique_ptr<PooledMachine>> idle;
    std::uint64_t last_used = 0;
  };

  void release_machine(std::size_t n, std::size_t m,
                       std::unique_ptr<PooledMachine> pooled);

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
  std::map<std::pair<std::string, std::size_t>, std::shared_ptr<const Program>>
      programs_;
  std::map<std::pair<std::size_t, std::size_t>, Pool> machines_;
  std::size_t pooled_ = 0;    // sum of the pools' idle sizes
  std::uint64_t use_clock_ = 0;  // stamps Pool::last_used
};

}  // namespace pimecc::serve
