#include "oracle/reference_crossbar.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <vector>

namespace pimecc::xbar {

ReferenceCrossbar::ReferenceCrossbar(std::size_t n_rows, std::size_t n_cols)
    : mat_(n_rows, n_cols) {
  if (n_rows == 0 || n_cols == 0) {
    throw std::invalid_argument("ReferenceCrossbar: dimensions must be positive");
  }
  row_activation_extra_.assign(n_rows, 0);
}

void ReferenceCrossbar::write_row(std::size_t r, const util::BitVector& data) {
  if (r >= rows()) {
    throw std::out_of_range("ReferenceCrossbar::write_row: row out of range");
  }
  if (data.size() != cols()) {
    throw std::invalid_argument("ReferenceCrossbar::write_row: size mismatch");
  }
  for (std::size_t c = 0; c < cols(); ++c) mat_.set(r, c, data.get(c));
  ++row_activation_extra_[r];
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
  ++broadcast_activations_;
  ++cycles_;
}

util::BitVector ReferenceCrossbar::read_row(std::size_t r) {
  if (r >= rows()) {
    throw std::out_of_range("ReferenceCrossbar::read_row: row out of range");
  }
  ++row_activation_extra_[r];
  ++cycles_;
  util::BitVector out(cols());
  for (std::size_t c = 0; c < cols(); ++c) out.set(c, mat_.get(r, c));
  return out;
}

util::BitVector ReferenceCrossbar::read_column(std::size_t c) {
  if (c >= cols()) {
    throw std::out_of_range("ReferenceCrossbar::read_column: column out of range");
  }
  ++broadcast_activations_;
  ++cycles_;
  util::BitVector out(rows());
  for (std::size_t r = 0; r < rows(); ++r) out.set(r, mat_.get(r, c));
  return out;
}

void ReferenceCrossbar::write_bit(std::size_t r, std::size_t c, bool value) {
  if (r >= rows() || c >= cols()) {
    throw std::out_of_range("ReferenceCrossbar::write_bit: index out of range");
  }
  mat_.set(r, c, value);
  ++row_activation_extra_[r];
  ++cycles_;
}

bool ReferenceCrossbar::read_bit(std::size_t r, std::size_t c) {
  if (r >= rows() || c >= cols()) {
    throw std::out_of_range("ReferenceCrossbar::read_bit: index out of range");
  }
  ++row_activation_extra_[r];
  ++cycles_;
  return mat_.get(r, c);
}

void ReferenceCrossbar::check_line(Orientation o, std::size_t line,
                                   const char* what) const {
  const std::size_t limit = o == Orientation::kRow ? cols() : rows();
  if (line >= limit) {
    throw std::out_of_range(std::string("ReferenceCrossbar: ") + what +
                            " line out of range");
  }
}

void ReferenceCrossbar::check_lane(Orientation o, std::size_t lane) const {
  if (lane >= lane_count(o)) {
    throw std::out_of_range("ReferenceCrossbar: lane out of range");
  }
}

void ReferenceCrossbar::check_distinct_lanes(
    Orientation o, std::span<const std::size_t> lanes) const {
  std::vector<bool> seen(lane_count(o), false);
  for (const std::size_t lane : lanes) {
    check_lane(o, lane);
    if (seen[lane]) {
      throw std::invalid_argument("ReferenceCrossbar: duplicate lane");
    }
    seen[lane] = true;
  }
}

void ReferenceCrossbar::magic_init(Orientation o, std::span<const std::size_t> lines,
                                   std::span<const std::size_t> lanes) {
  for (const std::size_t line : lines) check_line(o, line, "init");
  for (const std::size_t lane : lanes) check_lane(o, lane);

  auto init_cell = [&](std::size_t lane, std::size_t line) {
    if (o == Orientation::kRow) {
      mat_.set(lane, line, true);
    } else {
      mat_.set(line, lane, true);
    }
  };
  if (lanes.empty()) {
    for (std::size_t lane = 0; lane < lane_count(o); ++lane) {
      for (const std::size_t line : lines) init_cell(lane, line);
    }
  } else {
    for (const std::size_t lane : lanes) {
      for (const std::size_t line : lines) init_cell(lane, line);
    }
  }
  // Activation accounting, identical to Crossbar: kColumn drives the
  // gate-line wordlines; kRow drives the selected lane rows.
  if (o == Orientation::kColumn) {
    for (const std::size_t line : lines) ++row_activation_extra_[line];
  } else if (lanes.empty()) {
    ++broadcast_activations_;
  } else {
    for (const std::size_t lane : lanes) ++row_activation_extra_[lane];
  }
  ++cycles_;
  ++init_cycles_;
}

OpResult ReferenceCrossbar::magic_nor(Orientation o,
                                      std::span<const std::size_t> in_lines,
                                      std::size_t out_line,
                                      std::span<const std::size_t> lanes) {
  for (const std::size_t line : in_lines) check_line(o, line, "input");
  check_line(o, out_line, "output");
  check_distinct_lanes(o, lanes);
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
  auto apply_lane = [&](std::size_t lane) {
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
  };
  if (lanes.empty()) {
    for (std::size_t lane = 0; lane < lane_count(o); ++lane) apply_lane(lane);
  } else {
    for (const std::size_t lane : lanes) apply_lane(lane);
  }
  // Activation accounting, identical to Crossbar: kColumn drives the
  // gate-line wordlines; kRow drives the selected lane rows.
  if (o == Orientation::kColumn) {
    for (const std::size_t line : in_lines) ++row_activation_extra_[line];
    ++row_activation_extra_[out_line];
  } else if (lanes.empty()) {
    ++broadcast_activations_;
  } else {
    for (const std::size_t lane : lanes) ++row_activation_extra_[lane];
  }
  ++cycles_;
  ++nor_ops_;
  return result;
}

OpResult ReferenceCrossbar::magic_not(Orientation o, std::size_t in_line,
                                      std::size_t out_line,
                                      std::span<const std::size_t> lanes) {
  const std::size_t ins[1] = {in_line};
  return magic_nor(o, ins, out_line, lanes);
}

void ReferenceCrossbar::reset_counters() noexcept {
  cycles_ = 0;
  nor_ops_ = 0;
  init_cycles_ = 0;
}

std::uint64_t ReferenceCrossbar::row_activations(std::size_t r) const {
  if (r >= rows()) {
    throw std::out_of_range(
        "ReferenceCrossbar::row_activations: row out of range");
  }
  return broadcast_activations_ + row_activation_extra_[r];
}

std::vector<std::uint64_t> ReferenceCrossbar::row_activation_snapshot() const {
  std::vector<std::uint64_t> snapshot(row_activation_extra_);
  for (std::uint64_t& count : snapshot) count += broadcast_activations_;
  return snapshot;
}

void ReferenceCrossbar::reset_row_activations() noexcept {
  broadcast_activations_ = 0;
  std::fill(row_activation_extra_.begin(), row_activation_extra_.end(), 0);
}

}  // namespace pimecc::xbar
