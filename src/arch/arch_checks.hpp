// pimecc -- arch/arch_checks.hpp
//
// The per-op and index validate-before-mutate helpers shared by PimMachine
// and its bit-serial oracle (oracle/reference_pim_machine.hpp), the codec
// layer's convention applied to the arch layer: an entry point checks its
// arguments with these *before* snapshotting lines, touching crossbar or
// check-bit state, or advancing any counter, so a throwing call leaves the
// machine -- data, check bits, cycle counters -- exactly as it was.  A row
// program is checked once, by xbar::check_row_program.
#pragma once

#include <cstddef>
#include <span>
#include <stdexcept>
#include <string>

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
  xbar::LineSet seen(bound);
  for (const Index v : values) {
    require_index(v, bound, what);
    if (!seen.insert(v)) {
      throw std::invalid_argument(std::string("PimMachine: duplicate ") + what);
    }
  }
}

}  // namespace pimecc::arch::detail
