#include "reliability/analytic.hpp"

#include <cmath>
#include <stdexcept>
#include <string>

#include "util/modmath.hpp"
#include "util/units.hpp"

namespace pimecc::rel {

namespace {

void validate(const ReliabilityQuery& q) {
  if (q.n == 0 || q.m == 0 || q.n % q.m != 0 || q.m % 2 == 0) {
    throw std::invalid_argument(
        "ReliabilityQuery: need odd m dividing n (both positive)");
  }
  if (q.check_period_hours <= 0.0 || q.fit_per_bit < 0.0) {
    throw std::invalid_argument("ReliabilityQuery: bad rate or period");
  }
}

/// Crossbars needed to assemble the memory from n*n data bits each.
std::uint64_t crossbar_count(const ReliabilityQuery& q) {
  return util::ceil_div(q.memory_bits,
                        static_cast<std::uint64_t>(q.n) * q.n);
}

ReliabilityPoint finish(const ReliabilityQuery& q, double log_memory_success) {
  ReliabilityPoint out;
  out.bit_error_probability = util::error_probability(q.fit_per_bit,
                                                      q.check_period_hours);
  out.log_memory_success = log_memory_success;
  // P(fail) = 1 - exp(log_success) = -expm1(log_success).
  const double p_fail = -std::expm1(log_memory_success);
  out.memory_fit = util::probability_to_fit(p_fail, q.check_period_hours);
  out.mttf_hours = util::fit_to_mttf_hours(out.memory_fit);
  return out;
}

}  // namespace

ReliabilityPoint evaluate_proposed(const ReliabilityQuery& query) {
  validate(query);
  const double p = util::error_probability(query.fit_per_bit,
                                           query.check_period_hours);
  const double block_cells = static_cast<double>(
      query.m * query.m + (query.include_check_bits ? 2 * query.m : 0));
  // log P(block ok) = log((1-p)^B + B p (1-p)^(B-1))
  //                 = (B-1) log(1-p) + log((1-p) + B p).
  const double log1mp = std::log1p(-p);
  const double log_block =
      (block_cells - 1.0) * log1mp + std::log1p(-p + block_cells * p);
  const double blocks_per_xbar =
      static_cast<double>((query.n / query.m) * (query.n / query.m));
  const double log_xbar = log_block * blocks_per_xbar;
  const double log_memory =
      log_xbar * static_cast<double>(crossbar_count(query));
  ReliabilityPoint out = finish(query, log_memory);
  out.log_block_success = log_block;
  return out;
}

ReliabilityPoint evaluate_baseline(const ReliabilityQuery& query) {
  validate(query);
  const double p = util::error_probability(query.fit_per_bit,
                                           query.check_period_hours);
  // Any of the memory_bits failing is a memory failure.
  const double log_memory =
      std::log1p(-p) * static_cast<double>(query.memory_bits);
  return finish(query, log_memory);
}

std::vector<double> sweep_fits(double fit_low, double fit_high,
                               std::size_t points_per_decade) {
  if (!(fit_low > 0.0) || !(fit_high >= fit_low) || !std::isfinite(fit_high) ||
      points_per_decade == 0 || points_per_decade > kMaxSweepPointsPerDecade) {
    // Append form: GCC 12's -Wrestrict misfires on `const char* +
    // std::string` (GCC bug 105329).
    std::string message(
        "bad sweep range: need finite 0 < fit_low <= fit_high and 1 <= ppd <= ");
    message += std::to_string(kMaxSweepPointsPerDecade);
    throw std::invalid_argument(message);
  }
  std::vector<double> fits;
  const double step = 1.0 / static_cast<double>(points_per_decade);
  const double log_low = std::log10(fit_low);
  const double log_high = std::log10(fit_high);
  for (double lg = log_low; lg <= log_high + 1e-9; lg += step) {
    fits.push_back(std::pow(10.0, lg));
  }
  return fits;
}

std::vector<SweepPoint> sweep_mttf(const ReliabilityQuery& base, double fit_low,
                                   double fit_high, std::size_t points_per_decade) {
  std::vector<SweepPoint> points;
  for (const double fit : sweep_fits(fit_low, fit_high, points_per_decade)) {
    ReliabilityQuery q = base;
    q.fit_per_bit = fit;
    SweepPoint pt;
    pt.fit_per_bit = fit;
    pt.baseline_mttf_hours = evaluate_baseline(q).mttf_hours;
    pt.proposed_mttf_hours = evaluate_proposed(q).mttf_hours;
    points.push_back(pt);
  }
  return points;
}

}  // namespace pimecc::rel
