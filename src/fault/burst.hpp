// pimecc -- fault/burst.hpp
//
// Spatially-correlated multi-bit upsets (paper Section II-B, refs [7][8]:
// ion strikes flip clusters of adjacent cells, not just single bits).
//
// The diagonal code has a useful structural property against clusters: any
// set of distinct cells within one block whose pairwise row and column
// offsets are all smaller than m flags at least two diagonals on some axis
// whenever it has >= 2 cells -- adjacent cells can never share both
// diagonals -- so in-block bursts shorter than m are always *detected*,
// never silently miscorrected.  bench_paper's burst section measures this.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "fault/injector.hpp"
#include "util/bitmatrix.hpp"
#include "util/rng.hpp"

namespace pimecc::fault {

/// Cluster shapes observed in heavy-ion testing.
enum class BurstShape : unsigned char {
  kHorizontal,  ///< 1 x length run along a wordline
  kVertical,    ///< length x 1 run along a bitline
  kSquare,      ///< ceil(sqrt(length))-sided square patch (truncated)
};

[[nodiscard]] constexpr const char* to_string(BurstShape s) noexcept {
  switch (s) {
    case BurstShape::kHorizontal: return "horizontal";
    case BurstShape::kVertical: return "vertical";
    case BurstShape::kSquare: return "square";
  }
  return "?";
}

/// Bounding box {rows, cols} of a full (unclipped) burst of `length` cells:
/// 1 x length, length x 1, or for kSquare the truncated row-major fill of a
/// ceil(sqrt(length))-sided patch (ceil(length/side) rows by
/// min(length, side) columns).  Length must be positive.
[[nodiscard]] std::pair<std::size_t, std::size_t> burst_extent(
    std::size_t length, BurstShape shape);

/// Computes the cells of a burst of `length` cells anchored at (r, c),
/// clipped to the matrix bounds.
[[nodiscard]] std::vector<DataFlip> burst_cells(std::size_t rows,
                                                std::size_t cols, std::size_t r,
                                                std::size_t c, std::size_t length,
                                                BurstShape shape);

/// Samples a burst anchor such that the full `length`-cell burst fits
/// whenever the geometry admits one: uniform over the anchors whose
/// bounding box (burst_extent) lies inside rows x cols.  Only when the
/// array itself is smaller than the burst's extent on an axis does the
/// anchor distribution degrade to "anywhere on that axis" and the burst
/// clip at the edge -- the residual small-array clip.  Always consumes
/// exactly two rng draws.
[[nodiscard]] DataFlip sample_burst_anchor(util::Rng& rng, std::size_t rows,
                                           std::size_t cols, std::size_t length,
                                           BurstShape shape);

/// Flips one burst at a sample_burst_anchor() anchor; returns the flipped
/// cells.  Historically the anchor was uniform over the whole array, which
/// silently clipped at the right/bottom edges and biased the delivered
/// burst length downward (kSquare under-delivered even when a full patch
/// fit elsewhere); the clamped anchor delivers exactly `length` cells
/// whenever the array is at least burst_extent() large.
std::vector<DataFlip> inject_burst(util::Rng& rng, util::BitMatrix& data,
                                   std::size_t length, BurstShape shape);

/// Samples one correlated inter-block burst event over a rows x cols array
/// tiled into m x m blocks (m must divide both dimensions): a primary
/// burst at a clamped uniform anchor, plus -- independently with
/// probability `spread_probability` each -- one secondary burst in each of
/// the (up to 4) edge-adjacent neighbor blocks of the primary's anchor
/// block, modeling a single strike whose charge spreads across block
/// boundaries.  Secondary anchors are clamped inside their block so the
/// secondary lands in the neighbor it models.  The returned cells are
/// deduplicated (overlapping sub-bursts must not XOR-cancel), sorted by
/// (r, c).  Neighbor order (up, down, left, right) and draw order are
/// fixed, so a given rng stream reproduces the event exactly.
[[nodiscard]] std::vector<DataFlip> correlated_burst_cells(
    util::Rng& rng, std::size_t rows, std::size_t cols, std::size_t m,
    std::size_t length, BurstShape shape, double spread_probability);

}  // namespace pimecc::fault
