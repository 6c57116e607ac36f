#include "fault/disturbance.hpp"

#include <cmath>
#include <stdexcept>

namespace pimecc::fault {

DisturbanceModel::DisturbanceModel(std::size_t rows, std::size_t cols,
                                   const DisturbanceParams& params)
    : rows_(rows), cols_(cols), params_(params) {
  if (rows == 0 || cols == 0) {
    throw std::invalid_argument("DisturbanceModel: dimensions must be positive");
  }
  if (!(params.flip_probability_per_activation >= 0.0) ||
      !std::isfinite(params.flip_probability_per_activation)) {
    throw std::invalid_argument(
        "DisturbanceModel: flip probability per activation must be finite and "
        ">= 0");
  }
  if (params.neighbor_radius == 0) {
    throw std::invalid_argument("DisturbanceModel: neighbor_radius must be >= 1");
  }
}

double DisturbanceModel::victim_pressure(std::span<const double> activations,
                                         std::size_t victim) const {
  if (activations.size() != rows_) {
    throw std::invalid_argument(
        "DisturbanceModel: activation vector size must equal rows");
  }
  if (victim >= rows_) {
    throw std::out_of_range("DisturbanceModel: victim row out of range");
  }
  const double floor = static_cast<double>(params_.activation_floor);
  const std::size_t lo =
      victim >= params_.neighbor_radius ? victim - params_.neighbor_radius : 0;
  const std::size_t hi = std::min(rows_ - 1, victim + params_.neighbor_radius);
  double pressure = 0.0;
  for (std::size_t u = lo; u <= hi; ++u) {
    if (u == victim) continue;
    const double effective = activations[u] - floor;
    if (effective > 0.0) pressure += effective;
  }
  return pressure;
}

double DisturbanceModel::row_flip_probability(double pressure) const noexcept {
  if (pressure <= 0.0) return 0.0;
  // -expm1(-x) = 1 - exp(-x) without cancellation for the tiny hazards
  // realistic parameters produce.
  return -std::expm1(-params_.flip_probability_per_activation * pressure);
}

void DisturbanceModel::sample(util::Rng& rng,
                              std::span<const double> activations,
                              std::vector<DataFlip>& out,
                              std::vector<std::size_t>& scratch) const {
  if (activations.size() != rows_) {
    throw std::invalid_argument(
        "DisturbanceModel: activation vector size must equal rows");
  }
  for (std::size_t v = 0; v < rows_; ++v) {
    const double p = row_flip_probability(victim_pressure(activations, v));
    if (p <= 0.0) continue;
    const std::size_t count =
        static_cast<std::size_t>(rng.binomial(cols_, p));
    if (count == 0) continue;
    sample_distinct(rng, cols_, count, scratch);
    for (const std::size_t c : scratch) out.push_back({v, c});
  }
}

}  // namespace pimecc::fault
