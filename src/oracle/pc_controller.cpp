#include "oracle/pc_controller.hpp"

#include <stdexcept>

namespace pimecc::arch {

PcController::PcController(std::size_t lanes) : xbar_(lanes) {}

void PcController::require_lane_widths(const util::BitVector& old_line,
                                       const util::BitVector& check_line,
                                       const util::BitVector& new_line) const {
  const std::size_t lanes = xbar_.lanes();
  if (old_line.size() != lanes || check_line.size() != lanes ||
      new_line.size() != lanes) {
    throw std::invalid_argument("PcController: operand length mismatch");
  }
}

void PcController::start(util::BitVector old_line, util::BitVector check_line,
                         util::BitVector new_line) {
  if (busy()) {
    throw std::logic_error("PcController::start: FSM is busy");
  }
  require_lane_widths(old_line, check_line, new_line);
  pending_old_ = std::move(old_line);
  pending_check_ = std::move(check_line);
  pending_new_ = std::move(new_line);
  state_ = PcState::kInit;
}

void PcController::enqueue(util::BitVector old_line, util::BitVector check_line,
                           util::BitVector new_line) {
  require_lane_widths(old_line, check_line, new_line);
  if (!busy()) {
    pending_old_ = std::move(old_line);
    pending_check_ = std::move(check_line);
    pending_new_ = std::move(new_line);
    state_ = PcState::kInit;
    return;
  }
  queue_.push_back(
      {std::move(old_line), std::move(check_line), std::move(new_line)});
}

std::optional<util::BitVector> PcController::step() {
  std::optional<util::BitVector> writeback;
  switch (state_) {
    case PcState::kIdle:
    case PcState::kDone:
      return std::nullopt;  // no clocking work while idle
    case PcState::kInit:
      xbar_.init_working_cells();
      break;
    case PcState::kLoadOld:
      xbar_.load_operand(ProcessingXbar::kA, pending_old_);
      break;
    case PcState::kLoadCheck:
      xbar_.load_operand(ProcessingXbar::kC, pending_check_);
      break;
    case PcState::kLoadNew:
      xbar_.load_operand(ProcessingXbar::kB, pending_new_);
      break;
    case PcState::kNor1:
      // The microprogram's NOR sequence is fixed; the data path executes
      // all eight gates through ProcessingXbar::compute() on the first NOR
      // state, and the FSM spends the remaining seven states clocking
      // through the same schedule (one gate per cycle in hardware).
      xbar_.compute();
      break;
    case PcState::kNor2:
    case PcState::kNor3:
    case PcState::kNor4:
    case PcState::kNor5:
    case PcState::kNor6:
    case PcState::kNor7:
    case PcState::kNor8:
      break;
    case PcState::kWriteBack:
      writeback = xbar_.writeback_values();
      break;
  }
  ++cycles_;
  state_ = next(state_);
  if (state_ == PcState::kDone && !queue_.empty()) {
    // Batched traffic: the controller latches the next queued update the
    // same cycle the write-back retires, so the next INIT runs on the very
    // next clock -- no idle round-trip between updates.
    QueuedUpdate next_update = std::move(queue_.front());
    queue_.pop_front();
    pending_old_ = std::move(next_update.old_line);
    pending_check_ = std::move(next_update.check_line);
    pending_new_ = std::move(next_update.new_line);
    state_ = PcState::kInit;
  }
  return writeback;
}

PcController::RunResult PcController::run_to_completion() {
  if (!busy()) {
    throw std::logic_error("PcController::run_to_completion: FSM not armed");
  }
  RunResult result;
  const std::uint64_t start_cycles = cycles_;
  while (busy()) {
    if (auto wb = step()) result.updated_check = std::move(*wb);
  }
  result.cycles = cycles_ - start_cycles;
  return result;
}

PcController::BatchResult PcController::run_batch_to_completion() {
  if (!busy()) {
    throw std::logic_error("PcController::run_batch_to_completion: FSM not armed");
  }
  BatchResult result;
  const std::uint64_t start_cycles = cycles_;
  while (busy()) {
    if (auto wb = step()) result.updated_checks.push_back(std::move(*wb));
  }
  result.cycles = cycles_ - start_cycles;
  return result;
}

}  // namespace pimecc::arch
