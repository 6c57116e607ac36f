#include "fault/injector.hpp"

#include <algorithm>
#include <stdexcept>

namespace pimecc::fault {

namespace {

CheckFlip apply_check_flip(ecc::ArrayCode& code, std::size_t block_row,
                           std::size_t block_col, std::size_t check_slot) {
  const std::size_t m = code.m();
  CheckFlip flip;
  flip.block_row = block_row;
  flip.block_col = block_col;
  flip.on_leading_axis = check_slot < m;
  flip.index = check_slot % m;
  code.flip_check_bit({block_row, block_col}, flip.on_leading_axis, flip.index);
  return flip;
}

}  // namespace

void sample_distinct(util::Rng& rng, std::size_t population, std::size_t count,
                     std::vector<std::size_t>& out) {
  out.clear();
  if (count > population) {
    throw std::invalid_argument("sample_distinct: count exceeds population");
  }
  // Floyd: for j in [population - count, population), pick t <= j; if t was
  // already chosen take j itself.  Every value already in `out` is < j, so
  // taking j is a plain push_back and the vector stays sorted.
  for (std::size_t j = population - count; j < population; ++j) {
    const std::size_t t = static_cast<std::size_t>(rng.uniform_below(j + 1));
    const auto it = std::lower_bound(out.begin(), out.end(), t);
    if (it != out.end() && *it == t) {
      out.push_back(j);
    } else {
      out.insert(it, t);
    }
  }
}

void inject_data_flips(util::Rng& rng, util::BitMatrix& data, std::size_t count,
                       InjectionRecord& record,
                       std::vector<std::size_t>& scratch) {
  record.clear();
  const std::size_t population = data.rows() * data.cols();
  sample_distinct(rng, population, count, scratch);
  for (const std::size_t flat : scratch) {
    const std::size_t r = flat / data.cols();
    const std::size_t c = flat % data.cols();
    data.flip(r, c);
    record.data_flips.push_back({r, c});
  }
}

InjectionRecord inject_data_flips(util::Rng& rng, util::BitMatrix& data,
                                  std::size_t count) {
  InjectionRecord record;
  std::vector<std::size_t> scratch;
  inject_data_flips(rng, data, count, record, scratch);
  return record;
}

void inject_flips_everywhere(util::Rng& rng, util::BitMatrix& data,
                             ecc::ArrayCode& code, std::size_t count,
                             InjectionRecord& record,
                             std::vector<std::size_t>& scratch) {
  if (data.rows() != code.n() || data.cols() != code.n()) {
    throw std::invalid_argument("inject_flips_everywhere: shape mismatch");
  }
  record.clear();
  const std::size_t data_cells = code.n() * code.n();
  const std::size_t check_cells = code.block_count() * 2 * code.m();
  sample_distinct(rng, data_cells + check_cells, count, scratch);
  for (const std::size_t flat : scratch) {
    if (flat < data_cells) {
      const std::size_t r = flat / code.n();
      const std::size_t c = flat % code.n();
      data.flip(r, c);
      record.data_flips.push_back({r, c});
    } else {
      const std::size_t rel = flat - data_cells;
      const std::size_t per_block = 2 * code.m();
      const std::size_t block = rel / per_block;
      const std::size_t slot = rel % per_block;
      record.check_flips.push_back(apply_check_flip(
          code, block / code.blocks_per_side(), block % code.blocks_per_side(), slot));
    }
  }
}

InjectionRecord inject_flips_everywhere(util::Rng& rng, util::BitMatrix& data,
                                        ecc::ArrayCode& code, std::size_t count) {
  InjectionRecord record;
  std::vector<std::size_t> scratch;
  inject_flips_everywhere(rng, data, code, count, record, scratch);
  return record;
}

InjectionRecord inject_block_flips(util::Rng& rng, util::BitMatrix& data,
                                   ecc::ArrayCode& code, std::size_t block_row,
                                   std::size_t block_col, std::size_t count,
                                   bool include_check_bits) {
  // Validate before mutating (and before consuming any randomness): a bad
  // block coordinate used to flip data cells at out-of-range positions
  // before flip_check_bit finally threw.
  if (data.rows() != code.n() || data.cols() != code.n()) {
    throw std::invalid_argument("inject_block_flips: shape mismatch");
  }
  if (block_row >= code.blocks_per_side() || block_col >= code.blocks_per_side()) {
    throw std::out_of_range("inject_block_flips: block index out of range");
  }
  InjectionRecord record;
  const std::size_t m = code.m();
  const std::size_t data_cells = m * m;
  const std::size_t population = data_cells + (include_check_bits ? 2 * m : 0);
  std::vector<std::size_t> scratch;
  sample_distinct(rng, population, count, scratch);
  for (const std::size_t flat : scratch) {
    if (flat < data_cells) {
      const std::size_t r = block_row * m + flat / m;
      const std::size_t c = block_col * m + flat % m;
      data.flip(r, c);
      record.data_flips.push_back({r, c});
    } else {
      record.check_flips.push_back(
          apply_check_flip(code, block_row, block_col, flat - data_cells));
    }
  }
  return record;
}

namespace {

void require_data_flips_in_range(const InjectionRecord& record,
                                 const util::BitMatrix& data) {
  for (const DataFlip& f : record.data_flips) {
    if (f.r >= data.rows() || f.c >= data.cols()) {
      throw std::out_of_range("undo: data flip out of range");
    }
  }
}

}  // namespace

void undo(const InjectionRecord& record, util::BitMatrix& data,
          ecc::ArrayCode& code) {
  if (data.rows() != code.n() || data.cols() != code.n()) {
    throw std::invalid_argument("undo: shape mismatch");
  }
  require_data_flips_in_range(record, data);
  for (const CheckFlip& f : record.check_flips) {
    if (f.block_row >= code.blocks_per_side() ||
        f.block_col >= code.blocks_per_side() || f.index >= code.m()) {
      throw std::out_of_range("undo: check flip out of range");
    }
  }
  for (const DataFlip& f : record.data_flips) data.flip(f.r, f.c);
  for (const CheckFlip& f : record.check_flips) {
    code.flip_check_bit({f.block_row, f.block_col}, f.on_leading_axis, f.index);
  }
}

void undo(const InjectionRecord& record, util::BitMatrix& data) {
  if (!record.check_flips.empty()) {
    throw std::invalid_argument("undo: record has check flips but no code given");
  }
  require_data_flips_in_range(record, data);
  for (const DataFlip& f : record.data_flips) data.flip(f.r, f.c);
}

}  // namespace pimecc::fault
