// pimecc -- reliability/montecarlo.hpp
//
// Monte Carlo cross-validation of the analytic Section V-A model: inject
// soft errors into a real simulated crossbar + check memory for one check
// period, run the architecture's scrub, and measure how often a block (or
// the crossbar) retains an uncorrected/miscorrected error.  Used by
// bench_paper's montecarlo section and the reliability tests to confirm the
// analytic block-failure probabilities.
//
// Trials run on the campaign driver (reliability/campaign.hpp): one base
// seed drawn from the caller's generator, the golden image from substream
// 0 and trial t from substream t+1, commutative integer sums -- so on a
// given platform the result is bit-identical for any thread count.
// (Across standard libraries the stream differs: Rng::binomial delegates
// to std::binomial_distribution, whose algorithm is
// implementation-defined.)
//
// The engine is sparse and event-driven: per-trial cost scales with the
// number of injected flips, not with n^2.  Each worker keeps ONE mutable
// image that always equals the golden state between trials; a trial
// injects its flips, repairs only the touched blocks
// (ArrayCode::scrub_block -- scrub_band generalized to block granularity),
// computes each touched block's exact residual from the injection record
// plus the reported repair, and then rolls everything back through an undo
// log (re-flip the surviving deltas and the recorded check-bit flips).
// There is no per-trial golden copy and no full-array scrub.  The dense
// engine is retained as reference_run_montecarlo
// (oracle/reference_reliability.hpp); every counter is pinned equal on every
// substream except `miscorrected`, which is exact here (a block is
// miscorrected iff its own scrub reported a data correction and its
// residual is nonzero) and approximated in the reference (every failed
// block of a trial with >= 1 data correction) -- exact <= approximated,
// always.
#pragma once

#include <cstddef>
#include <cstdint>

#include "util/rng.hpp"

namespace pimecc::rel {

/// Configuration of one Monte Carlo experiment.
struct MonteCarloConfig {
  std::size_t n = 120;   ///< crossbar size (scaled down for trial volume)
  std::size_t m = 15;    ///< block size
  double fit_per_bit = 0.0;
  double window_hours = 24.0;
  std::size_t trials = 1000;
  bool include_check_bits = true;
  std::size_t threads = 1;  ///< executor lanes; 0 = full shared-executor width
};

/// Aggregated outcome.
struct MonteCarloResult {
  std::size_t trials = 0;
  std::size_t trials_with_errors = 0;      ///< >= 1 flip injected
  std::size_t trials_failed = 0;           ///< crossbar left corrupted
  std::uint64_t blocks_total = 0;          ///< trials x blocks per crossbar
  std::uint64_t flips_injected = 0;
  std::uint64_t blocks_failed = 0;         ///< blocks left corrupted
  std::uint64_t blocks_with_errors = 0;    ///< blocks that received >= 1 flip
  std::uint64_t corrected_data = 0;
  std::uint64_t corrected_check = 0;
  std::uint64_t detected_uncorrectable = 0;
  /// Blocks whose scrub reported a data correction yet whose post-repair
  /// data still differs from golden (exact, per-block residual accounting;
  /// the reference engine over-approximates this -- see the file comment).
  std::uint64_t miscorrected = 0;

  [[nodiscard]] double crossbar_failure_rate() const noexcept {
    return trials > 0 ? static_cast<double>(trials_failed) /
                            static_cast<double>(trials)
                      : 0.0;
  }
  [[nodiscard]] double block_failure_rate() const noexcept;

  bool operator==(const MonteCarloResult&) const noexcept = default;
};

/// Runs the experiment: per trial, sample a binomial flip count over all
/// vulnerable cells, inject, repair the touched blocks only, diff each
/// touched block's residual exactly, and roll back to golden in O(flips).
/// Draws exactly one value from `rng` and derives all per-trial randomness
/// from it; see the file comment for the determinism guarantees and the
/// reference-engine pinning contract.
[[nodiscard]] MonteCarloResult run_montecarlo(const MonteCarloConfig& config,
                                              util::Rng& rng);

/// Analytic per-block failure probability for the same configuration
/// (P(>= 2 errors in a block)), for direct comparison.
[[nodiscard]] double analytic_block_failure(const MonteCarloConfig& config);

}  // namespace pimecc::rel
