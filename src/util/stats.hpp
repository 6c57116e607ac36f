// pimecc -- util/stats.hpp
//
// Streaming statistics and summary helpers used by the Monte Carlo
// reliability engine and the benchmark harnesses.
#pragma once

#include <cstddef>
#include <vector>

namespace pimecc::util {

/// Welford streaming mean/variance with min/max tracking.
class RunningStats {
 public:
  void add(double x) noexcept;

  [[nodiscard]] std::size_t count() const noexcept { return n_; }
  [[nodiscard]] double mean() const noexcept { return n_ > 0 ? mean_ : 0.0; }
  /// Unbiased sample variance (0 for fewer than two samples).
  [[nodiscard]] double variance() const noexcept;
  [[nodiscard]] double stddev() const noexcept;
  [[nodiscard]] double min() const noexcept { return min_; }
  [[nodiscard]] double max() const noexcept { return max_; }
  [[nodiscard]] double sum() const noexcept { return mean_ * static_cast<double>(n_); }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Geometric mean of strictly positive values; returns 0 if empty or any
/// value is non-positive.
[[nodiscard]] double geometric_mean(const std::vector<double>& values) noexcept;

/// Wilson score interval for a binomial proportion (successes k of n).
struct ProportionInterval {
  double center = 0.0;
  double low = 0.0;
  double high = 0.0;
};
[[nodiscard]] ProportionInterval wilson_interval(std::size_t k, std::size_t n,
                                                 double z = 1.96) noexcept;

/// p-th percentile (0..100) of a copy of `values` (nearest-rank).
[[nodiscard]] double percentile(std::vector<double> values, double p) noexcept;

}  // namespace pimecc::util
