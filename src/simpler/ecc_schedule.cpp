#include "simpler/ecc_schedule.hpp"

namespace pimecc::simpler {

namespace {

/// Hazard key of the check bits updated by a write to row-resident cell
/// `cell` (the single execution row has index 0 within its block).
arch::CheckCellKey key_for_cell(const arch::ArchParams& params, CellIndex cell) {
  const std::uint64_t block_col = cell / params.m;
  const std::uint64_t lead = cell % params.m;         // (0 + c) mod m
  const std::uint64_t cnt = (params.m - lead) % params.m;  // (0 - c) mod m
  return (block_col << 32) | (lead << 16) | cnt;
}

}  // namespace

EccScheduleResult schedule_with_ecc(const MappedProgram& program,
                                    const arch::ArchParams& params,
                                    CoveragePolicy policy,
                                    std::vector<arch::ScheduledEvent>* events) {
  params.validate();
  arch::ProtocolScheduler sched(params);
  sched.set_event_sink(events);
  sched.schedule_input_check();
  for (const MappedOp& op : program.ops) {
    if (op.kind == MappedOp::Kind::kInit) {
      if (policy == CoveragePolicy::kInputsAndOutputs &&
          !op.covered_cells.empty()) {
        std::vector<arch::CheckCellKey> keys;
        keys.reserve(op.covered_cells.size());
        for (const CellIndex cell : op.covered_cells) {
          keys.push_back(key_for_cell(params, cell));
        }
        sched.schedule_cancel_batch(keys);
      }
      sched.schedule_plain_op();
    } else if (op.writes_output) {
      sched.schedule_critical_op(key_for_cell(params, op.cell));
    } else {
      sched.schedule_plain_op();
    }
  }
  const arch::ScheduleStats stats = sched.finish();

  EccScheduleResult result;
  result.baseline_cycles = program.baseline_cycles();
  result.proposed_cycles = stats.makespan;
  result.stall_cycles = stats.stall_cycles;
  result.critical_ops = stats.critical_ops;
  result.cancel_ops = stats.cancel_ops;
  result.stats = stats;
  return result;
}

std::size_t find_min_pcs(const MappedProgram& program,
                         const arch::ArchParams& params, CoveragePolicy policy) {
  arch::ArchParams unlimited = params;
  unlimited.num_pcs = arch::kMaxPcs;
  const std::uint64_t best =
      schedule_with_ecc(program, unlimited, policy).proposed_cycles;
  for (std::size_t k = 1; k <= 8; ++k) {
    arch::ArchParams trial = params;
    trial.num_pcs = k;
    if (schedule_with_ecc(program, trial, policy).proposed_cycles == best) {
      return k;
    }
  }
  return 8;
}

}  // namespace pimecc::simpler
