#include "util/stats.hpp"

#include <algorithm>
#include <cmath>

namespace pimecc::util {

void RunningStats::add(double x) noexcept {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

double RunningStats::variance() const noexcept {
  return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
}

double RunningStats::stddev() const noexcept { return std::sqrt(variance()); }

double geometric_mean(const std::vector<double>& values) noexcept {
  if (values.empty()) return 0.0;
  double log_sum = 0.0;
  for (const double v : values) {
    if (v <= 0.0) return 0.0;
    log_sum += std::log(v);
  }
  return std::exp(log_sum / static_cast<double>(values.size()));
}

ProportionInterval wilson_interval(std::size_t k, std::size_t n, double z) noexcept {
  ProportionInterval out;
  if (n == 0) return out;
  const double nn = static_cast<double>(n);
  const double phat = static_cast<double>(k) / nn;
  const double z2 = z * z;
  const double denom = 1.0 + z2 / nn;
  const double center = (phat + z2 / (2.0 * nn)) / denom;
  const double half =
      z * std::sqrt(phat * (1.0 - phat) / nn + z2 / (4.0 * nn * nn)) / denom;
  out.center = center;
  out.low = std::max(0.0, center - half);
  out.high = std::min(1.0, center + half);
  return out;
}

double percentile(std::vector<double> values, double p) noexcept {
  if (values.empty()) return 0.0;
  p = std::clamp(p, 0.0, 100.0);
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(values.size())));
  return values[rank == 0 ? 0 : rank - 1];
}

}  // namespace pimecc::util
