#include "oracle/reference_crossbar.hpp"

#include <stdexcept>
#include <string>

namespace pimecc::xbar {

ReferenceCrossbar::ReferenceCrossbar(std::size_t n_rows, std::size_t n_cols)
    : mat_(n_rows, n_cols) {
  if (n_rows == 0 || n_cols == 0) {
    throw std::invalid_argument("ReferenceCrossbar: dimensions must be positive");
  }
}

void ReferenceCrossbar::write_row(std::size_t r, const util::BitVector& data) {
  if (r >= rows()) {
    throw std::out_of_range("ReferenceCrossbar::write_row: row out of range");
  }
  if (data.size() != cols()) {
    throw std::invalid_argument("ReferenceCrossbar::write_row: size mismatch");
  }
  for (std::size_t c = 0; c < cols(); ++c) mat_.set(r, c, data.get(c));
  ++cycles_;
}

void ReferenceCrossbar::write_column(std::size_t c, const util::BitVector& data) {
  if (c >= cols()) {
    throw std::out_of_range("ReferenceCrossbar::write_column: column out of range");
  }
  if (data.size() != rows()) {
    throw std::invalid_argument("ReferenceCrossbar::write_column: size mismatch");
  }
  for (std::size_t r = 0; r < rows(); ++r) mat_.set(r, c, data.get(r));
  ++cycles_;
}

void ReferenceCrossbar::check_line(Orientation o, std::size_t line,
                                   const char* what) const {
  const std::size_t limit = o == Orientation::kRow ? cols() : rows();
  if (line >= limit) {
    throw std::out_of_range(std::string("ReferenceCrossbar: ") + what +
                            " line out of range");
  }
}

void ReferenceCrossbar::magic_init(Orientation o,
                                   std::span<const std::size_t> lines) {
  for (const std::size_t line : lines) check_line(o, line, "init");

  for (std::size_t lane = 0; lane < lane_count(o); ++lane) {
    for (const std::size_t line : lines) {
      if (o == Orientation::kRow) {
        mat_.set(lane, line, true);
      } else {
        mat_.set(line, lane, true);
      }
    }
  }
  ++cycles_;
  ++init_cycles_;
}

OpResult ReferenceCrossbar::magic_nor(Orientation o,
                                      std::span<const std::size_t> in_lines,
                                      std::size_t out_line) {
  for (const std::size_t line : in_lines) check_line(o, line, "input");
  check_line(o, out_line, "output");
  if (in_lines.empty()) {
    throw std::invalid_argument("ReferenceCrossbar::magic_nor: needs at least one input");
  }
  for (const std::size_t line : in_lines) {
    if (line == out_line) {
      throw std::invalid_argument(
          "ReferenceCrossbar::magic_nor: output overlaps an input");
    }
  }

  OpResult result;
  auto get_cell = [&](std::size_t lane, std::size_t line) {
    return o == Orientation::kRow ? mat_.get(lane, line) : mat_.get(line, lane);
  };
  for (std::size_t lane = 0; lane < lane_count(o); ++lane) {
    bool any_input_set = false;
    for (const std::size_t line : in_lines) {
      any_input_set = any_input_set || get_cell(lane, line);
    }
    const bool nor_value = !any_input_set;
    const bool out_was_lrs = get_cell(lane, out_line);
    if (!out_was_lrs) ++result.violations;
    // Physics: NOR can only switch LRS->HRS; an uninitialized (HRS) output
    // stays HRS regardless of the logical NOR value.
    const bool driven = out_was_lrs ? nor_value : false;
    if (o == Orientation::kRow) {
      mat_.set(lane, out_line, driven);
    } else {
      mat_.set(out_line, lane, driven);
    }
    ++result.lanes;
  }
  ++cycles_;
  ++nor_ops_;
  return result;
}

}  // namespace pimecc::xbar
