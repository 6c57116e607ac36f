#include "oracle/horizontal_code.hpp"

#include <bit>
#include <cstdint>
#include <map>
#include <span>
#include <stdexcept>
#include <utility>

#include "util/simd.hpp"

namespace pimecc::ecc {

namespace {

/// XOR-reduction (parity) of bits [bit0, bit0 + len) of a row's backing
/// words; any length, word-parallel.  The caller guarantees the range lies
/// within the row.
bool segment_parity(std::span<const std::uint64_t> words, std::size_t bit0,
                    std::size_t len) noexcept {
  // XOR-accumulating words preserves popcount parity (XOR cancels common
  // bits in pairs), so one final popcount decides.
  const std::size_t end = bit0 + len;
  const std::size_t w_first = bit0 / 64;
  const std::size_t w_last = (end + 63) / 64;  // one past the last word
  std::uint64_t acc = 0;
  for (std::size_t w = w_first; w < w_last; ++w) {
    std::uint64_t v = words[w];
    if (w == w_first && bit0 % 64 != 0) v &= ~std::uint64_t{0} << (bit0 % 64);
    if (w + 1 == w_last && end % 64 != 0) v &= util::simd::low_mask(end % 64);
    acc ^= v;
  }
  return (std::popcount(acc) & 1u) != 0;
}

}  // namespace

HorizontalCode::HorizontalCode(std::size_t n, std::size_t group_size)
    : n_(n), group_(group_size), parities_() {
  if (n == 0 || group_size == 0 || n % group_size != 0) {
    throw std::invalid_argument(
        "HorizontalCode: group size must divide n (both positive)");
  }
  parities_.resize(n_ * groups_per_row());
}

std::size_t HorizontalCode::slot(std::size_t r, std::size_t g) const {
  if (r >= n_ || g >= groups_per_row()) {
    throw std::out_of_range("HorizontalCode: slot out of range");
  }
  return r * groups_per_row() + g;
}

void HorizontalCode::encode_all(const util::BitMatrix& data) {
  if (data.rows() != n_ || data.cols() != n_) {
    throw std::invalid_argument("HorizontalCode: data matrix must be n x n");
  }
  // Word-parallel: each group parity is one XOR-accumulate + popcount over
  // the row's backing words instead of group_ bit reads.
  const std::size_t gpr = groups_per_row();
  const std::span<const util::BitVector> rows = data.rows_span();
  for (std::size_t r = 0; r < n_; ++r) {
    const std::span<const std::uint64_t> words = rows[r].words();
    for (std::size_t g = 0; g < gpr; ++g) {
      parities_.set(r * gpr + g,
                    segment_parity(words, g * group_, group_));
    }
  }
}

bool HorizontalCode::parity(std::size_t r, std::size_t g) const {
  return parities_.get(slot(r, g));
}

void HorizontalCode::apply_writes(const std::vector<CellWrite>& writes) {
  // Validate the whole batch before the first parity flip: a bad cell
  // mid-batch must not leave earlier writes half-applied.
  for (const CellWrite& w : writes) {
    if (w.r >= n_ || w.c >= n_) {
      throw std::out_of_range("HorizontalCode::apply_writes: cell out of range");
    }
  }
  for (const CellWrite& w : writes) {
    if (w.old_value != w.new_value) {
      parities_.flip(slot(w.r, w.c / group_));
    }
  }
}

bool HorizontalCode::consistent_with(const util::BitMatrix& data) const {
  if (data.rows() != n_ || data.cols() != n_) {
    throw std::invalid_argument("HorizontalCode: data matrix must be n x n");
  }
  const std::size_t gpr = groups_per_row();
  const std::span<const util::BitVector> rows = data.rows_span();
  for (std::size_t r = 0; r < n_; ++r) {
    const std::span<const std::uint64_t> words = rows[r].words();
    for (std::size_t g = 0; g < gpr; ++g) {
      if (segment_parity(words, g * group_, group_) !=
          parities_.get(r * gpr + g)) {
        return false;
      }
    }
  }
  return true;
}

bool HorizontalCode::group_has_error(const util::BitMatrix& data, std::size_t r,
                                     std::size_t g) const {
  const std::size_t s = slot(r, g);  // validates r and g
  if (data.rows() != n_ || data.cols() != n_) {
    throw std::invalid_argument("HorizontalCode: data matrix must be n x n");
  }
  return segment_parity(data.rows_span()[r].words(), g * group_,
                                       group_) != parities_.get(s);
}

std::size_t HorizontalCode::update_cost_reads(
    const std::vector<CellWrite>& writes) const {
  std::map<std::pair<std::size_t, std::size_t>, std::size_t> changed_per_group;
  for (const CellWrite& w : writes) {
    if (w.old_value != w.new_value) {
      ++changed_per_group[{w.r, w.c / group_}];
    }
  }
  std::size_t cost = 0;
  for (const auto& [group, changed] : changed_per_group) {
    cost += changed == 1 ? 1 : group_;
  }
  return cost;
}

}  // namespace pimecc::ecc
