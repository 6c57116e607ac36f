// pimecc -- oracle/pc_controller.hpp
//
// Cycle-accurate finite state machine driving one processing crossbar
// (paper Section IV-C: "the CMEM controller contains the Processing
// Crossbar (PC) controllers which consist of simple finite state machines
// that perform the pre-defined XOR3 steps").
//
// The FSM advances one state per clock: three operand-transfer states, the
// eight NOR states of the XOR3 microprogram, then write-back.  step() is
// called once per cycle by the CMEM controller; the data path runs on a
// real ProcessingXbar so functional results and cycle counts come from the
// same machinery the rest of the architecture model uses.
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <vector>

#include "oracle/processing_xbar.hpp"
#include "util/bitvector.hpp"

namespace pimecc::arch {

/// FSM states, in execution order.
enum class PcState : std::uint8_t {
  kIdle,
  kInit,       ///< batched LRS-init of the working cells
  kLoadOld,    ///< MEM -> PC transfer of the old data line
  kLoadCheck,  ///< CBX -> PC transfer of the stored parities
  kLoadNew,    ///< MEM -> PC transfer of the new data line
  kNor1, kNor2, kNor3, kNor4, kNor5, kNor6, kNor7, kNor8,
  kWriteBack,  ///< PC -> CBX transfer of the updated parities
  kDone,
};

[[nodiscard]] constexpr const char* to_string(PcState s) noexcept {
  switch (s) {
    case PcState::kIdle: return "idle";
    case PcState::kInit: return "init";
    case PcState::kLoadOld: return "load-old";
    case PcState::kLoadCheck: return "load-check";
    case PcState::kLoadNew: return "load-new";
    case PcState::kNor1: return "nor1";
    case PcState::kNor2: return "nor2";
    case PcState::kNor3: return "nor3";
    case PcState::kNor4: return "nor4";
    case PcState::kNor5: return "nor5";
    case PcState::kNor6: return "nor6";
    case PcState::kNor7: return "nor7";
    case PcState::kNor8: return "nor8";
    case PcState::kWriteBack: return "write-back";
    case PcState::kDone: return "done";
  }
  return "?";
}

/// One processing-crossbar controller.
class PcController {
 public:
  explicit PcController(std::size_t lanes);

  [[nodiscard]] PcState state() const noexcept { return state_; }
  [[nodiscard]] bool busy() const noexcept {
    return state_ != PcState::kIdle && state_ != PcState::kDone;
  }
  [[nodiscard]] std::uint64_t cycles_elapsed() const noexcept { return cycles_; }

  /// Latches the three operands and arms the FSM (the CMEM controller has
  /// routed the lines; transfers themselves happen in the LOAD states).
  /// Throws std::logic_error if the FSM is busy.
  void start(util::BitVector old_line, util::BitVector check_line,
             util::BitVector new_line);

  /// Queues one continuous update behind the FSM -- the CMEM controller's
  /// batched check-memory traffic.  Operand sizes are validated *before*
  /// any state changes (a throwing call leaves FSM and queue untouched).
  /// If the FSM is idle the update is armed immediately; otherwise it
  /// starts automatically on the cycle after the previous write-back
  /// retires, so back-to-back updates need no controller round-trip.
  void enqueue(util::BitVector old_line, util::BitVector check_line,
               util::BitVector new_line);
  /// Updates waiting behind the in-flight one.
  [[nodiscard]] std::size_t pending() const noexcept { return queue_.size(); }

  /// Advances one clock.  Returns the updated check bits exactly once, on
  /// the write-back cycle.
  std::optional<util::BitVector> step();

  /// Convenience: run to completion, returning the write-back value and the
  /// number of cycles consumed (13 = init + 3 transfers + 8 NORs + wb).
  struct RunResult {
    util::BitVector updated_check;
    std::uint64_t cycles = 0;
  };
  RunResult run_to_completion();

  /// Convenience over a queued batch: runs until FSM and queue drain,
  /// returning one write-back value per update plus the total cycle count
  /// (13 per update -- the batch pipelines with no idle cycles between).
  struct BatchResult {
    std::vector<util::BitVector> updated_checks;
    std::uint64_t cycles = 0;
  };
  BatchResult run_batch_to_completion();

  /// Resets to idle and drops any queued updates (a controller abort).
  void reset() noexcept {
    state_ = PcState::kIdle;
    queue_.clear();
  }

 private:
  [[nodiscard]] static PcState next(PcState s) noexcept {
    return s == PcState::kDone ? PcState::kDone
                               : static_cast<PcState>(static_cast<int>(s) + 1);
  }

  struct QueuedUpdate {
    util::BitVector old_line;
    util::BitVector check_line;
    util::BitVector new_line;
  };

  void require_lane_widths(const util::BitVector& old_line,
                           const util::BitVector& check_line,
                           const util::BitVector& new_line) const;

  ProcessingXbar xbar_;
  PcState state_ = PcState::kIdle;
  std::uint64_t cycles_ = 0;
  util::BitVector pending_old_;
  util::BitVector pending_check_;
  util::BitVector pending_new_;
  std::deque<QueuedUpdate> queue_;
};

}  // namespace pimecc::arch
