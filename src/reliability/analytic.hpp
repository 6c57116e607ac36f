// pimecc -- reliability/analytic.hpp
//
// Closed-form reliability model of paper Section V-A / Figure 6.
//
// Assumptions (the paper's): memristor soft errors are uniform and
// independent with constant rate lambda [FIT/bit]; the exposure window of
// any bit is at most the full-memory check period T (worst case); a block
// survives iff it suffers zero or one soft error in the window (the
// diagonal code corrects any single error); blocks, crossbars and the
// 1 GB memory are independent, so successes multiply.
//
//   p            = 1 - exp(-lambda*T/1e9)
//   P(block ok)  = (1-p)^B + B*p*(1-p)^(B-1),  B = m^2 + 2m
//   P(xbar ok)   = P(block ok)^((n/m)^2)
//   P(mem ok)    = P(xbar ok)^ceil(2^33 / n^2)
//   FIT(memory)  = (1 - P(mem ok)) * 1e9 / T
//   MTTF [h]     = 1e9 / FIT
//
// The baseline (no ECC) fails on any single bit error.  All products are
// evaluated in log space so the tiny-p regime keeps full precision
// (log1p/expm1 throughout).
#pragma once

#include <cstdint>
#include <vector>

#include "arch/params.hpp"

namespace pimecc::rel {

/// Parameters of one reliability evaluation point.
struct ReliabilityQuery {
  double fit_per_bit = 1e-3;      ///< lambda [FIT/bit]
  double check_period_hours = 24; ///< T
  std::size_t n = 1020;
  std::size_t m = 15;
  std::uint64_t memory_bits = std::uint64_t{1} << 33;  ///< 1 GB
  /// Count the block's 2m check bits in its vulnerable population
  /// (physically faithful: check-bit memristors fail like data memristors).
  bool include_check_bits = true;
};

/// All derived quantities for one design point.
struct ReliabilityPoint {
  double bit_error_probability = 0.0;
  double log_block_success = 0.0;     ///< proposed design, natural log
  double log_memory_success = 0.0;
  double memory_fit = 0.0;
  double mttf_hours = 0.0;
};

/// Proposed design (diagonal ECC, single-error correction per block).
[[nodiscard]] ReliabilityPoint evaluate_proposed(const ReliabilityQuery& query);

/// Baseline (no ECC): any bit error is a memory failure.
[[nodiscard]] ReliabilityPoint evaluate_baseline(const ReliabilityQuery& query);

/// One row of the Figure 6 sweep.
struct SweepPoint {
  double fit_per_bit = 0.0;
  double baseline_mttf_hours = 0.0;
  double proposed_mttf_hours = 0.0;

  [[nodiscard]] double improvement() const noexcept {
    return baseline_mttf_hours > 0.0 ? proposed_mttf_hours / baseline_mttf_hours
                                     : 0.0;
  }
};

/// Sanity cap on a sweep's `points_per_decade`: every finite positive
/// range spans fewer than 700 decades, so an accepted grid has fewer than
/// 10^6 points, and its 1e-3 log step always advances the loop.
inline constexpr std::size_t kMaxSweepPointsPerDecade = 1000;

/// The one logarithmic SER grid over [fit_low, fit_high] with
/// `points_per_decade` samples per decade, low end first: 10^lg for lg
/// stepping from log10(fit_low) by 1/points_per_decade while it stays
/// within 1e-9 of log10(fit_high).  Throws std::invalid_argument unless
/// 0 < fit_low <= fit_high are finite and 1 <= points_per_decade <=
/// kMaxSweepPointsPerDecade.
[[nodiscard]] std::vector<double> sweep_fits(double fit_low, double fit_high,
                                             std::size_t points_per_decade);

/// Evaluates both designs at every sweep_fits point (Figure 6: 1e-5 ..
/// 1e3); throws as sweep_fits does.
[[nodiscard]] std::vector<SweepPoint> sweep_mttf(const ReliabilityQuery& base,
                                                 double fit_low, double fit_high,
                                                 std::size_t points_per_decade);

}  // namespace pimecc::rel
