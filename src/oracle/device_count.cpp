#include "oracle/device_count.hpp"

namespace pimecc::arch {

double DeviceCounts::memristor_overhead_fraction() const noexcept {
  if (rows.empty() || rows.front().memristors == 0) return 0.0;
  const double data = static_cast<double>(rows.front().memristors);
  return (static_cast<double>(total_memristors) - data) / data;
}

DeviceCounts count_devices(const ArchParams& params) {
  params.validate();
  const std::uint64_t n = params.n;
  const std::uint64_t m = params.m;
  const std::uint64_t k = params.num_pcs;
  const std::uint64_t blocks = n / m;

  DeviceCounts out;
  out.rows = {
      {"Data (MEM)", n * n, 0, "n x n"},
      {"Check-Bits", 2 * m * blocks * blocks, 0, "2 x m x (n/m)^2"},
      {"Processing XBs", 2 * 11 * k * n, 0, "2 x 11 x k x n"},
      {"Checking XB", 2 * n, 0, "2 x n"},
      {"Shifters", 0, 4 * n * m, "4 x n x m"},
      {"Connection Unit", 0, 2 * n * (k + 4), "2 x n x (k + 4)"},
  };
  for (const auto& row : out.rows) {
    out.total_memristors += row.memristors;
    out.total_transistors += row.transistors;
  }
  return out;
}

}  // namespace pimecc::arch
