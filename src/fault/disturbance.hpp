// pimecc -- fault/disturbance.hpp
//
// Activation-induced disturbance (PRAC-style, arxiv 2507.05556): driving a
// wordline repeatedly disturbs the rows electrically adjacent to it, and
// the victim's flip probability grows with the aggressor's activation
// count.  The activations come from a workload model, not from the
// crossbar: the scenario engine (reliability/scenario.hpp) integrates a
// deterministic per-row activation *rate* (rel::row_activation_rates) over
// each inter-scrub window.
//
// Hazard model: a victim row v accumulates pressure
//     A(v) = sum over aggressors u in [v-radius, v+radius], u != v
//            of max(0, activations(u) - activation_floor)
// and each of its cells flips independently with probability
//     p(v) = 1 - exp(-flip_probability_per_activation * A(v)),
// i.e. every effective aggressor activation is an independent Bernoulli
// hazard per victim cell -- additive in aggressors, saturating at 1, and
// chunk-invariant: splitting a window into sub-windows with the same total
// activations yields the same flip distribution.  The floor models PRAC's
// counting threshold: rows activated fewer than `activation_floor` times
// are not yet aggressors.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "fault/injector.hpp"
#include "util/rng.hpp"

namespace pimecc::fault {

/// Disturbance strength and neighborhood; see the file comment.
struct DisturbanceParams {
  /// Per-victim-cell flip hazard per effective aggressor activation; must
  /// be >= 0 and finite (realistic values are tiny, e.g. 1e-9 .. 1e-6).
  double flip_probability_per_activation = 0.0;
  /// Rows within this distance of an aggressor are its victims (>= 1).
  std::size_t neighbor_radius = 1;
  /// Activations below this per-aggressor count are ignored.
  std::uint64_t activation_floor = 0;
};

/// Samples neighbor-row disturbance flips from per-row activation counts.
class DisturbanceModel {
 public:
  /// Geometry of the protected array; both dimensions must be positive.
  DisturbanceModel(std::size_t rows, std::size_t cols,
                   const DisturbanceParams& params);

  [[nodiscard]] std::size_t rows() const noexcept { return rows_; }
  [[nodiscard]] std::size_t cols() const noexcept { return cols_; }
  [[nodiscard]] const DisturbanceParams& params() const noexcept {
    return params_;
  }

  /// Total effective aggressor activations pressing on `victim`.
  /// `activations.size()` must equal rows().
  [[nodiscard]] double victim_pressure(std::span<const double> activations,
                                       std::size_t victim) const;

  /// Per-cell flip probability of a victim row under `pressure` effective
  /// aggressor activations: 1 - exp(-k * pressure).
  [[nodiscard]] double row_flip_probability(double pressure) const noexcept;

  /// Samples one exposure: `activations[r]` is row r's activation count
  /// accumulated over the window (fractional counts are allowed -- the
  /// scenario engine integrates rate x hours).  Appends the flipped cells
  /// to `out` in (row, then column) sorted order; `scratch` holds sampled
  /// column indices between rows.  Rows are visited in ascending order and
  /// rows with zero pressure consume no randomness, so draw order is a
  /// deterministic function of the activation vector.
  void sample(util::Rng& rng, std::span<const double> activations,
              std::vector<DataFlip>& out, std::vector<std::size_t>& scratch) const;

 private:
  std::size_t rows_;
  std::size_t cols_;
  DisturbanceParams params_;
};

}  // namespace pimecc::fault
