// pimecc -- arch/arch_checks.hpp
//
// Validate-before-mutate helpers shared by PimMachine and its bit-serial
// oracle (oracle/reference_pim_machine.hpp), the codec layer's convention
// applied to the arch layer:
// every protected entry point checks its whole argument set with these
// *before* snapshotting lines, touching crossbar or check-bit state, or
// advancing any counter, so a throwing call leaves the machine -- data,
// check bits, cycle counters -- exactly as it was.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/bitmatrix.hpp"
#include "xbar/crossbar.hpp"

namespace pimecc::arch::detail {

inline void require_index(std::size_t value, std::size_t bound, const char* what) {
  if (value >= bound) {
    throw std::out_of_range(std::string("PimMachine: ") + what + " out of range");
  }
}

template <class Index>
void require_indices(std::span<const Index> values, std::size_t bound,
                     const char* what) {
  for (const Index v : values) require_index(v, bound, what);
}

/// Indices must be in range and pairwise distinct: a physical line cannot be
/// driven twice in one cycle, and a duplicate init line would corrupt the
/// check-bit update (the old-line snapshots are taken up front, so the
/// second update would cancel the first instead of tracking the data).
template <class Index>
void require_distinct(std::span<const Index> values, std::size_t bound,
                      const char* what) {
  if (values.size() <= 16) {
    for (std::size_t i = 0; i < values.size(); ++i) {
      require_index(values[i], bound, what);
      for (std::size_t j = 0; j < i; ++j) {
        if (values[i] == values[j]) {
          throw std::invalid_argument(std::string("PimMachine: duplicate ") + what);
        }
      }
    }
    return;
  }
  std::vector<bool> seen(bound, false);
  for (const Index v : values) {
    require_index(v, bound, what);
    if (seen[v]) {
      throw std::invalid_argument(std::string("PimMachine: duplicate ") + what);
    }
    seen[v] = true;
  }
}

/// A row program (run_rows_protected) is checked op by op, in the order
/// the per-op entry points check it, before its first op runs: an init's
/// columns in range and distinct; a NOR's inputs and output in range, at
/// least one input, and no input equal to the output.
inline void require_row_ops(std::span<const xbar::RowOp> ops, std::size_t n) {
  for (const xbar::RowOp& op : ops) {
    if (op.kind == xbar::RowOp::Kind::kInit) {
      require_distinct(op.lines, n, "init column");
      continue;
    }
    require_indices(op.lines, n, "input column");
    require_index(op.out, n, "output column");
    if (op.lines.empty()) {
      throw std::invalid_argument("PimMachine: a NOR needs at least one input");
    }
    for (const std::uint32_t line : op.lines) {
      if (line == op.out) {
        throw std::invalid_argument("PimMachine: output column overlaps an input");
      }
    }
  }
}

/// A row program's I/O (run_rows_protected with an xbar::RowIo): the
/// written columns (inputs and constants) in range and pairwise distinct,
/// the output columns in range, and each matrix n x its column count (or
/// null with no columns).
inline void require_row_io(const xbar::RowIo& io, std::size_t n) {
  std::vector<std::uint32_t> written(io.input_cols.begin(), io.input_cols.end());
  written.insert(written.end(), io.one_cols.begin(), io.one_cols.end());
  written.insert(written.end(), io.zero_cols.begin(), io.zero_cols.end());
  require_distinct<std::uint32_t>(written, n, "written column");
  require_indices(io.output_cols, n, "output column");
  const auto shape_ok = [n](const util::BitMatrix* m, std::size_t cols) {
    return m == nullptr ? cols == 0 : m->rows() == n && m->cols() == cols;
  };
  if (!shape_ok(io.inputs, io.input_cols.size()) ||
      !shape_ok(io.outputs, io.output_cols.size())) {
    throw std::invalid_argument(
        "PimMachine: I/O matrices must be n x their column counts");
  }
}

}  // namespace pimecc::arch::detail
