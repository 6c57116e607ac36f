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

#include <array>
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

/// The lines one check has seen, as a bitmap: on the stack up to 4,096
/// lines (every design point the serving daemon accepts), so validating a
/// request allocates nothing; on the heap beyond.
class LineSet {
 public:
  explicit LineSet(std::size_t bound) {
    if (bound > kLocalBits) {
      heap_.assign((bound + 63) / 64, 0);
      bits_ = heap_.data();
    }
  }
  LineSet(const LineSet&) = delete;
  LineSet& operator=(const LineSet&) = delete;

  /// Adds `line` (below the bound); false if it was already in the set.
  bool insert(std::size_t line) noexcept {
    const std::uint64_t bit = std::uint64_t{1} << (line % 64);
    std::uint64_t& word = bits_[line / 64];
    const bool fresh = (word & bit) == 0;
    word |= bit;
    return fresh;
  }

 private:
  static constexpr std::size_t kLocalBits = 4096;
  std::array<std::uint64_t, kLocalBits / 64> local_{};
  std::vector<std::uint64_t> heap_;
  std::uint64_t* bits_ = local_.data();
};

/// Each value in range and not in `seen` yet, then added to it.
template <class Index>
void require_new(std::span<const Index> values, std::size_t bound,
                 LineSet& seen, const char* what) {
  for (const Index v : values) {
    require_index(v, bound, what);
    if (!seen.insert(v)) {
      throw std::invalid_argument(std::string("PimMachine: duplicate ") + what);
    }
  }
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
  LineSet seen(bound);
  require_new(values, bound, seen, what);
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
  LineSet written(n);
  for (const auto list : {io.input_cols, io.one_cols, io.zero_cols}) {
    require_new(list, n, written, "written column");
  }
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
