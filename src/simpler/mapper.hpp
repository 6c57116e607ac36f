// pimecc -- simpler/mapper.hpp
//
// SIMPLER-style mapping of a NOR netlist onto a single crossbar row
// (Ben-Hur et al., "SIMPLER MAGIC", IEEE TCAD 2020 -- reimplemented; see
// DESIGN.md substitution #4).
//
// The mapper chooses an evaluation order by the cell-usage (CU) heuristic
// (a Sethi-Ullman-style register-need estimate), then simulates execution
// in a row of W cells: each gate writes one cell; a cell whose value has no
// remaining consumers is recycled, but must be re-initialized to LRS before
// reuse.  Any number of cells in the row can be initialized in one cycle,
// so initializations are batched: when the free pool runs dry, one init
// cycle converts every recyclable cell into a usable one.
//
//   baseline cycles = #gates + #init cycles
//
// which is the quantity the paper's Table I "Baseline" column reports.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "simpler/netlist.hpp"

namespace pimecc::simpler {

using CellIndex = std::uint32_t;

/// The netlist does not fit the row: its inputs, or its live values at
/// some point of every order tried, exceed the row width.  A property of
/// the netlist and the width asked for, not a mapper fault -- the server
/// answers it as a client error.
class RowOverflowError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// One mapped operation.
struct MappedOp {
  enum class Kind : std::uint8_t {
    kGate,  ///< one MAGIC NOR executing `node` into `cell`
    kInit,  ///< one batched initialization cycle of `init_cells`
  };
  Kind kind = Kind::kGate;

  // kGate fields.
  NodeId node = 0;
  CellIndex cell = 0;
  std::vector<CellIndex> in_cells;
  bool writes_output = false;  ///< node is a primary output

  // kInit fields.
  std::vector<CellIndex> init_cells;
  /// Cells in init_cells that currently hold ECC-covered values (function
  /// inputs being recycled); the ECC scheduler must cancel their parity
  /// contribution before this init destroys them.
  std::vector<CellIndex> covered_cells;
};

/// Result of mapping one netlist.
struct MappedProgram {
  std::vector<MappedOp> ops;
  std::size_t row_width = 0;
  std::vector<CellIndex> input_cells;   ///< cell of each primary input
  /// Cells of the netlist's constant-one and constant-zero nodes, placed
  /// right after the inputs; the executors write them with the inputs.
  std::vector<CellIndex> one_cells;
  std::vector<CellIndex> zero_cells;
  std::vector<CellIndex> output_cells;  ///< final cell of each primary output
  std::uint64_t gate_cycles = 0;
  std::uint64_t init_cycles = 0;
  std::size_t peak_cells_used = 0;

  /// Paper Table I "Baseline": gates + inits.
  [[nodiscard]] std::uint64_t baseline_cycles() const noexcept {
    return gate_cycles + init_cycles;
  }
};

/// Mapping knobs.
struct MapperOptions {
  std::size_t row_width = 1020;  ///< W (the paper's n)
  /// Reserve the first num_inputs cells for inputs (they are ECC-covered
  /// data already resident in the row).
  bool allow_input_recycling = true;
};

/// Maps `netlist` onto a single row.  Throws RowOverflowError if the
/// netlist cannot fit (live values exceed the row width).
[[nodiscard]] MappedProgram map_to_row(const Netlist& netlist,
                                       const MapperOptions& options);

/// Computes the CU (cell usage) value of every node: CU(input) = 1,
/// CU(gate) = max_i(CU(child_i) + i) over children sorted by CU descending
/// (i zero-based).  Exposed for tests.
[[nodiscard]] std::vector<std::uint32_t> compute_cell_usage(const Netlist& netlist);

}  // namespace pimecc::simpler
