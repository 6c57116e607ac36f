// pimecc -- simpler/ecc_schedule.hpp
//
// The paper's extension of SIMPLER (Section V-B): takes a mapped single-row
// program and schedules the additional operations the proposed architecture
// requires -- checking the ECC of the function inputs before execution, and
// continuously updating check bits for every write to ECC-covered cells --
// through a greedy pass that respects MEM / processing-crossbar /
// connection-unit availability, adding stall cycles when a resource is
// busy.  Reports baseline vs proposed cycle counts (Table I).
#pragma once

#include <cstdint>

#include "arch/params.hpp"
#include "arch/scheduler.hpp"
#include "simpler/mapper.hpp"

namespace pimecc::simpler {

/// Which resident values the ECC must maintain during function execution.
/// The paper covers function inputs (checked before use) and function
/// outputs (updated after writes); intermediates are explicitly future work.
enum class CoveragePolicy : unsigned char {
  kOutputsOnly,       ///< only primary-output writes are critical
  kInputsAndOutputs,  ///< + recycled input cells need a cancel update
};

/// Outcome of ECC scheduling for one benchmark.
struct EccScheduleResult {
  std::uint64_t baseline_cycles = 0;
  std::uint64_t proposed_cycles = 0;
  std::uint64_t stall_cycles = 0;
  std::uint64_t critical_ops = 0;
  std::uint64_t cancel_ops = 0;
  arch::ScheduleStats stats;

  [[nodiscard]] double overhead_fraction() const noexcept {
    if (baseline_cycles == 0) return 0.0;
    return static_cast<double>(proposed_cycles) /
               static_cast<double>(baseline_cycles) -
           1.0;
  }
};

/// Schedules `program` under the proposed architecture `params`.  When
/// `events` is non-null, every resource reservation is appended to it (the
/// cycle-by-cycle trace behind `pimecc map --timeline`).
[[nodiscard]] EccScheduleResult schedule_with_ecc(
    const MappedProgram& program, const arch::ArchParams& params,
    CoveragePolicy policy, std::vector<arch::ScheduledEvent>* events = nullptr);

/// The Table I "PC (#)" column: the smallest number of processing crossbars
/// (1..8) for which the schedule is as fast as with unlimited PCs.
[[nodiscard]] std::size_t find_min_pcs(const MappedProgram& program,
                                       const arch::ArchParams& params,
                                       CoveragePolicy policy);

}  // namespace pimecc::simpler
