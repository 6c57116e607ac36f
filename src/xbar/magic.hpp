// pimecc -- xbar/magic.hpp
//
// Common MAGIC (Memristor-Aided loGIC, Kvatinsky et al., TCAS-II 2014)
// vocabulary: stateful logic inside a memristive crossbar.
//
// Data is resistance: LRS (low resistive state) encodes logic 1, HRS
// encodes logic 0.  A MAGIC NOR gate drives one *output* memristor, which
// must be initialized to LRS beforehand, from one or more *input*
// memristors in the same row (or the same column).  Applying the gate
// voltages switches the output to HRS iff any input is LRS -- i.e. the
// output becomes NOR(inputs).  The same gate can execute simultaneously in
// every row (column) of the array: one clock cycle, massive parallelism.
#pragma once

#include <cstdint>

namespace pimecc::xbar {

/// Whether a parallel MAGIC operation runs a gate inside each row (the gate
/// spans columns, replicated down all selected rows) or inside each column.
enum class Orientation : std::uint8_t {
  kRow,     ///< gate inputs/output are columns; replicated across rows
  kColumn,  ///< gate inputs/output are rows; replicated across columns
};

/// Logic state encoded by memristor resistance.
enum class State : std::uint8_t {
  kHrs = 0,  ///< high resistive state, logic 0
  kLrs = 1,  ///< low resistive state, logic 1
};

[[nodiscard]] constexpr bool to_bool(State s) noexcept { return s == State::kLrs; }
[[nodiscard]] constexpr State to_state(bool b) noexcept {
  return b ? State::kLrs : State::kHrs;
}

}  // namespace pimecc::xbar
