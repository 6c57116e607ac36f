#include "fault/burst.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace pimecc::fault {

std::pair<std::size_t, std::size_t> burst_extent(std::size_t length,
                                                 BurstShape shape) {
  if (length == 0) {
    throw std::invalid_argument("burst_extent: length must be positive");
  }
  switch (shape) {
    case BurstShape::kHorizontal: return {1, length};
    case BurstShape::kVertical: return {length, 1};
    case BurstShape::kSquare: {
      const auto side = static_cast<std::size_t>(
          std::ceil(std::sqrt(static_cast<double>(length))));
      return {(length + side - 1) / side, std::min(length, side)};
    }
  }
  throw std::invalid_argument("burst_extent: unknown shape");
}

std::vector<DataFlip> burst_cells(std::size_t rows, std::size_t cols,
                                  std::size_t r, std::size_t c,
                                  std::size_t length, BurstShape shape) {
  if (length == 0) {
    throw std::invalid_argument("burst_cells: length must be positive");
  }
  if (r >= rows || c >= cols) {
    throw std::out_of_range("burst_cells: anchor out of range");
  }
  std::vector<DataFlip> cells;
  switch (shape) {
    case BurstShape::kHorizontal:
      for (std::size_t i = 0; i < length && c + i < cols; ++i) {
        cells.push_back({r, c + i});
      }
      break;
    case BurstShape::kVertical:
      for (std::size_t i = 0; i < length && r + i < rows; ++i) {
        cells.push_back({r + i, c});
      }
      break;
    case BurstShape::kSquare: {
      const auto side = static_cast<std::size_t>(
          std::ceil(std::sqrt(static_cast<double>(length))));
      for (std::size_t dr = 0; dr < side && cells.size() < length; ++dr) {
        for (std::size_t dc = 0; dc < side && cells.size() < length; ++dc) {
          if (r + dr < rows && c + dc < cols) {
            cells.push_back({r + dr, c + dc});
          }
        }
      }
      break;
    }
  }
  return cells;
}

DataFlip sample_burst_anchor(util::Rng& rng, std::size_t rows, std::size_t cols,
                             std::size_t length, BurstShape shape) {
  if (rows == 0 || cols == 0) {
    throw std::invalid_argument("sample_burst_anchor: empty array");
  }
  const auto [extent_r, extent_c] = burst_extent(length, shape);
  // Anchors in [0, dim - extent] leave room for the full bounding box; when
  // the array is smaller than the extent no anchor can, so fall back to the
  // whole axis (the burst clips -- the residual small-array case).
  const std::size_t bound_r = rows >= extent_r ? rows - extent_r + 1 : rows;
  const std::size_t bound_c = cols >= extent_c ? cols - extent_c + 1 : cols;
  const std::size_t r = rng.uniform_below(bound_r);
  const std::size_t c = rng.uniform_below(bound_c);
  return {r, c};
}

std::vector<DataFlip> inject_burst(util::Rng& rng, util::BitMatrix& data,
                                   std::size_t length, BurstShape shape) {
  const DataFlip anchor =
      sample_burst_anchor(rng, data.rows(), data.cols(), length, shape);
  std::vector<DataFlip> cells =
      burst_cells(data.rows(), data.cols(), anchor.r, anchor.c, length, shape);
  for (const DataFlip& cell : cells) data.flip(cell.r, cell.c);
  return cells;
}

std::vector<DataFlip> correlated_burst_cells(util::Rng& rng, std::size_t rows,
                                             std::size_t cols, std::size_t m,
                                             std::size_t length,
                                             BurstShape shape,
                                             double spread_probability) {
  if (m == 0 || rows % m != 0 || cols % m != 0) {
    throw std::invalid_argument(
        "correlated_burst_cells: m must divide both dimensions");
  }
  if (!(spread_probability >= 0.0) || !(spread_probability <= 1.0)) {
    throw std::invalid_argument(
        "correlated_burst_cells: spread_probability must be in [0, 1]");
  }
  const DataFlip primary = sample_burst_anchor(rng, rows, cols, length, shape);
  std::vector<DataFlip> cells =
      burst_cells(rows, cols, primary.r, primary.c, length, shape);

  const auto [extent_r, extent_c] = burst_extent(length, shape);
  const std::size_t block_rows = rows / m;
  const std::size_t block_cols = cols / m;
  const std::size_t br = primary.r / m;
  const std::size_t bc = primary.c / m;
  // Up, down, left, right of the primary's anchor block, in that order.
  const long long neighbors[4][2] = {{-1, 0}, {1, 0}, {0, -1}, {0, 1}};
  for (const auto& d : neighbors) {
    const long long nbr = static_cast<long long>(br) + d[0];
    const long long nbc = static_cast<long long>(bc) + d[1];
    if (nbr < 0 || nbc < 0 ||
        nbr >= static_cast<long long>(block_rows) ||
        nbc >= static_cast<long long>(block_cols)) {
      continue;
    }
    if (!rng.bernoulli(spread_probability)) continue;
    // Anchor the secondary inside the neighbor block, clamped so its
    // bounding box stays in-block when m admits it (an m-overflowing shape
    // clips at the array edge like any other burst).
    const std::size_t local_bound_r = m >= extent_r ? m - extent_r + 1 : m;
    const std::size_t local_bound_c = m >= extent_c ? m - extent_c + 1 : m;
    const std::size_t sr =
        static_cast<std::size_t>(nbr) * m + rng.uniform_below(local_bound_r);
    const std::size_t sc =
        static_cast<std::size_t>(nbc) * m + rng.uniform_below(local_bound_c);
    const std::vector<DataFlip> secondary =
        burst_cells(rows, cols, sr, sc, length, shape);
    cells.insert(cells.end(), secondary.begin(), secondary.end());
  }

  // A primary that straddles a block boundary can overlap a secondary;
  // listing a cell twice would XOR it back to its original value, so the
  // event is the set union.
  std::sort(cells.begin(), cells.end(), [](const DataFlip& a, const DataFlip& b) {
    return a.r != b.r ? a.r < b.r : a.c < b.c;
  });
  cells.erase(std::unique(cells.begin(), cells.end(),
                          [](const DataFlip& a, const DataFlip& b) {
                            return a.r == b.r && a.c == b.c;
                          }),
              cells.end());
  return cells;
}

}  // namespace pimecc::fault
