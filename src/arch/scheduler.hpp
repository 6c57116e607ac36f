// pimecc -- arch/scheduler.hpp
//
// Resource-tracked greedy scheduler for the ECC protocol (paper Section
// IV + V-B).  This mirrors the paper's adapted-SIMPLER pass: operations are
// taken in program order and placed at the earliest cycle where the
// resources they need are available, inserting stall cycles otherwise.
//
// Modeled unit-capacity resources:
//   MEM   -- the data crossbar: one gate / init / transfer per cycle.
//   PC_j  -- processing crossbars: one in-flight check-bit update occupies
//            a PC from its first operand transfer until write-back.  A
//            critical update services both diagonal axes: each axis is one
//            n-lane XOR3 pass, so it consumes two PC passes (in parallel on
//            two PCs, or serialized on one).
//   CBX   -- the check-bit crossbar port through the connection unit: one
//            read or write-back per cycle.
//
// Critical-operation timeline (ArchParams defaults, one PC pass):
//   t0   : MAGIC NOT old data MEM -> PC (MEM, PC)
//   t0+1 : old check bits CBX -> PC (CBX, PC); MEM free for the gate
//   t1   : the critical gate itself in MEM (>= t0+1)
//   t2   : MAGIC NOT new data MEM -> PC (MEM, PC)  (>= t1+1)
//   t2+1 .. t2+8 : XOR3 microprogram inside the PC
//   t2+9 : write-back PC -> CBX (CBX)
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "arch/params.hpp"

namespace pimecc::arch {

/// Unit-capacity resource with monotonic greedy reservation (suits the MEM,
/// whose operations arrive in program order).
class ResourceTimeline {
 public:
  /// Reserves one cycle at the earliest time >= `earliest`; returns it.
  std::uint64_t reserve(std::uint64_t earliest) noexcept {
    const std::uint64_t t = earliest > next_free_ ? earliest : next_free_;
    next_free_ = t + 1;
    return t;
  }
  /// Reserves `span` consecutive cycles starting no earlier than `earliest`;
  /// returns the first cycle.
  std::uint64_t reserve_span(std::uint64_t earliest, std::uint64_t span) noexcept {
    const std::uint64_t t = earliest > next_free_ ? earliest : next_free_;
    next_free_ = t + span;
    return t;
  }
  [[nodiscard]] std::uint64_t next_free() const noexcept { return next_free_; }

 private:
  std::uint64_t next_free_ = 0;
};

/// Unit-capacity resource with out-of-order single-cycle reservations
/// (suits the connection-unit port: one update's early check-bit *read* must
/// be able to slot in between other updates' late *write-backs*).
///
/// Reservations are skip-chained: busy_[t] = u records that every cycle in
/// [t, u) is taken, and reserve() path-compresses the chain it walks, so a
/// long run of back-to-back reservations (the batched check-memory traffic
/// of a whole program) costs amortized O(1) lookups instead of one probe
/// per occupied cycle.  Results are identical to linear probing.
class CalendarResource {
 public:
  /// Reserves the first free cycle at or after `earliest`.
  std::uint64_t reserve(std::uint64_t earliest);

 private:
  std::unordered_map<std::uint64_t, std::uint64_t> busy_;
  std::vector<std::uint64_t> path_;  // scratch: chain visited this reserve
};

/// Identifies one check bit for hazard tracking: (block, axis, diagonal)
/// packed by the caller into a single integer key.
using CheckCellKey = std::uint64_t;

/// One reserved cycle (or span) on one unit -- the scheduler's trace
/// record, consumed by `pimecc map --timeline` and the scheduler tests.
struct ScheduledEvent {
  std::uint64_t cycle = 0;  ///< start cycle
  std::uint64_t span = 1;   ///< consecutive cycles occupied
  enum class Unit : unsigned char { kMem, kPc, kCbx } unit = Unit::kMem;
  const char* label = "";

  [[nodiscard]] const char* unit_name() const noexcept {
    switch (unit) {
      case Unit::kMem: return "MEM";
      case Unit::kPc: return "PC";
      case Unit::kCbx: return "CBX";
    }
    return "?";
  }
};

/// Aggregate scheduling outcome.
struct ScheduleStats {
  std::uint64_t makespan = 0;       ///< completion of the last event anywhere
  std::uint64_t mem_cycles = 0;     ///< cycles in which MEM performed an op
  std::uint64_t mem_last_end = 0;   ///< first cycle after the last MEM op
  std::uint64_t stall_cycles = 0;   ///< MEM idle gaps forced by CMEM resources
  std::uint64_t critical_ops = 0;
  std::uint64_t cancel_ops = 0;
  std::uint64_t plain_ops = 0;
  std::uint64_t input_check_cycles = 0;  ///< MEM cycles spent copying for checks
};

/// Greedy protocol scheduler.  Feed operations in program order.
class ProtocolScheduler {
 public:
  explicit ProtocolScheduler(const ArchParams& params);

  /// Schedules the before-execution ECC check of the function-input
  /// block-row: m MEM copy cycles, then the CMEM XOR3 fold tree, syndrome
  /// compare and flag evaluation off the MEM's critical path.  Critical
  /// operations scheduled later will not commit before the check completes
  /// when params.wait_check_before_critical is set.
  void schedule_input_check();

  /// A baseline (non-critical) MEM op: gate or batched init, one cycle.
  std::uint64_t schedule_plain_op();

  /// A critical op: a gate whose written cell is ECC-covered.  `key` names
  /// the check bits it updates (hazard tracking).  Returns the gate cycle.
  std::uint64_t schedule_critical_op(CheckCellKey key);

  /// A batch of cancel-only updates: ECC-covered cells about to be recycled
  /// as scratch in one init cycle, whose old contributions must be removed
  /// first.  Costs one old-data transfer (MEM cycle) per cell; the parity
  /// deltas then fold through a single XOR3 tree in one PC pass pair (the
  /// same dataflow as the ECC check), so PC occupancy grows only
  /// logarithmically with the batch.  Returns the first transfer cycle.
  std::uint64_t schedule_cancel_batch(const std::vector<CheckCellKey>& keys);

  /// Finalizes and returns the statistics.
  [[nodiscard]] ScheduleStats finish() const;

  /// Cycle at which the input check completes (0 if none scheduled).
  [[nodiscard]] std::uint64_t check_done() const noexcept { return check_done_; }

  /// Attaches a trace sink; every subsequent reservation is recorded.
  /// Pass nullptr to detach.  The sink must outlive the scheduler's use.
  void set_event_sink(std::vector<ScheduledEvent>* sink) noexcept {
    events_ = sink;
  }

 private:
  void record(std::uint64_t cycle, std::uint64_t span, ScheduledEvent::Unit unit,
              const char* label) {
    if (events_ != nullptr) events_->push_back({cycle, span, unit, label});
  }
  /// Reserves a full PC pass window starting at or after `earliest` on the
  /// least-loaded PC; returns the window start.
  std::uint64_t reserve_pc_pass(std::uint64_t earliest, std::uint64_t span,
                                const char* label);
  /// Earliest cycle at which a *pair* of PCs is free to receive operands
  /// (the two diagonal-axis passes run in parallel on the two soonest-free
  /// PCs; with one PC they serialize on it).  Allocation-free.
  [[nodiscard]] std::uint64_t pc_pair_ready() const noexcept;
  std::uint64_t mem_reserve_tracking_stalls(std::uint64_t earliest,
                                            const char* label);
  [[nodiscard]] std::uint64_t hazard_ready(CheckCellKey key) const;
  void note_hazard(CheckCellKey key, std::uint64_t ready);
  void note_event_end(std::uint64_t end);

  ArchParams params_;
  ResourceTimeline mem_;
  CalendarResource cbx_;
  std::vector<std::uint64_t> pc_free_;
  std::unordered_map<CheckCellKey, std::uint64_t> hazards_;
  std::uint64_t check_done_ = 0;
  std::uint64_t last_event_end_ = 0;
  ScheduleStats stats_;
  std::vector<ScheduledEvent>* events_ = nullptr;
};

/// Number of XOR3 tree levels needed to fold `count` vectors into one.
[[nodiscard]] std::uint64_t xor3_fold_levels(std::uint64_t count) noexcept;

}  // namespace pimecc::arch
