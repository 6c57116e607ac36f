// pimecc -- arch/params.hpp
//
// Architecture parameters of the proposed design (paper Section IV and the
// Section V case study: n = 1020, m = 15, k = 3).
#pragma once

#include <cstddef>

namespace pimecc::arch {

/// Which diagonal family a check bit belongs to.
enum class Axis : unsigned char { kLeading, kCounter };

/// Policy for read-after-write hazards on a check bit that still has an
/// update in flight inside a processing crossbar (paper footnote 3).
enum class HazardPolicy : unsigned char {
  kForward,  ///< processing-crossbar forwarding; no extra cycles
  kStall,    ///< wait until the in-flight write-back completes
};

/// Static configuration of one MEM + CMEM unit.
struct ArchParams {
  std::size_t n = 1020;        ///< MEM crossbar is n x n
  std::size_t m = 15;          ///< block size (odd, divides n)
  std::size_t num_pcs = 3;     ///< processing crossbars, k (paper: <= 8)
  std::size_t xor3_cycles = 8; ///< MAGIC NORs per XOR3 (= 2 x 4-NOR XNOR)
  std::size_t transfer_cycles = 1;   ///< one MEM<->CMEM MAGIC NOT move
  std::size_t writeback_cycles = 1;  ///< PC -> check-bit crossbar move
  /// Require the input ECC check to finish before the first critical
  /// operation commits an output (conservative; see DESIGN.md).
  bool wait_check_before_critical = true;
  HazardPolicy hazard = HazardPolicy::kForward;

  /// Throws std::invalid_argument on inconsistent parameters.
  void validate() const;

  [[nodiscard]] std::size_t blocks_per_side() const noexcept { return n / m; }
  /// Check bits per block (2m) and per crossbar (2m * (n/m)^2).
  [[nodiscard]] std::size_t check_bits_total() const noexcept {
    return 2 * m * blocks_per_side() * blocks_per_side();
  }
  /// Cycles one processing crossbar is occupied by a full update
  /// (receive old + receive check + receive new + XOR3 + write-back).
  [[nodiscard]] std::size_t pc_occupancy_cycles() const noexcept {
    return 3 * transfer_cycles + xor3_cycles + writeback_cycles;
  }
};

}  // namespace pimecc::arch
