// pimecc -- oracle/device_count.hpp
//
// Device-count model of the proposed architecture (paper Table II).
// Expressions are implemented exactly as printed:
//
//   Data (MEM)        memristors: n * n
//   Check-bit XBs     memristors: 2 * m * (n/m)^2
//   Processing XBs    memristors: 2 * 11 * k * n     (11 cells per XOR3 lane)
//   Checking XB       memristors: 2 * n
//   Shifters          transistors: 4 * n * m
//   Connection unit   transistors: 2 * n * (k + 4)
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "arch/params.hpp"

namespace pimecc::arch {

/// One row of the Table II breakdown.
struct DeviceCountRow {
  std::string unit;
  std::uint64_t memristors = 0;
  std::uint64_t transistors = 0;
  std::string expression;
};

/// Full device-count breakdown for a parameter set.
struct DeviceCounts {
  std::vector<DeviceCountRow> rows;
  std::uint64_t total_memristors = 0;
  std::uint64_t total_transistors = 0;

  /// Overhead of all added memristors relative to the data array.
  [[nodiscard]] double memristor_overhead_fraction() const noexcept;
};

/// Evaluates the Table II expressions for the given parameters.
[[nodiscard]] DeviceCounts count_devices(const ArchParams& params);

}  // namespace pimecc::arch
