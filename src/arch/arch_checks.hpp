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
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

namespace pimecc::arch::detail {

inline void require_index(std::size_t value, std::size_t bound, const char* what) {
  if (value >= bound) {
    throw std::out_of_range(std::string("PimMachine: ") + what + " out of range");
  }
}

inline void require_indices(std::span<const std::size_t> values, std::size_t bound,
                            const char* what) {
  for (const std::size_t v : values) require_index(v, bound, what);
}

/// Indices must be in range and pairwise distinct: a physical line cannot be
/// driven twice in one cycle, and a duplicate init line would corrupt the
/// check-bit update (the old-line snapshots are taken up front, so the
/// second update would cancel the first instead of tracking the data).
inline void require_distinct(std::span<const std::size_t> values, std::size_t bound,
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
  for (const std::size_t v : values) {
    require_index(v, bound, what);
    if (seen[v]) {
      throw std::invalid_argument(std::string("PimMachine: duplicate ") + what);
    }
    seen[v] = true;
  }
}

}  // namespace pimecc::arch::detail
