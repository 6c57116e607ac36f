#include "oracle/multislope_code.hpp"

#include <algorithm>
#include <cstdint>
#include <span>
#include <stdexcept>

#include "core/geometry.hpp"
#include "util/modmath.hpp"

namespace pimecc::ecc {

namespace {
/// Widest block the word-parallel encode takes (one 64-bit word per row).
constexpr std::size_t kWordM = 64;
}  // namespace

namespace diagword {

std::uint64_t stride_permute(std::uint64_t seg, std::size_t s,
                             std::size_t m) noexcept {
  s %= m;  // the incremental dest reduction below requires s < m
  if (s == 1) return seg & low_mask(m);
  if (s == m - 1 && m > 1) return reflect(seg, m);
  std::uint64_t out = 0;
  std::size_t dest = 0;  // (s * j) mod m, maintained incrementally
  for (std::size_t j = 0; j < m; ++j) {
    out |= ((seg >> j) & 1u) << dest;
    dest += s;
    if (dest >= m) dest -= m;
  }
  return out;
}

}  // namespace diagword

MultiSlopeCodec::MultiSlopeCodec(std::size_t m, std::vector<std::size_t> slopes)
    : m_(m), slopes_(std::move(slopes)) {
  if (m == 0) {
    throw std::invalid_argument("MultiSlopeCodec: m must be positive");
  }
  if (slopes_.empty()) {
    throw std::invalid_argument("MultiSlopeCodec: need at least one family");
  }
  for (auto& s : slopes_) s %= m_;
  inv_slopes_.reserve(slopes_.size());
  for (std::size_t i = 0; i < slopes_.size(); ++i) {
    const auto inv = util::mod_inverse(static_cast<std::int64_t>(slopes_[i]),
                                       static_cast<std::int64_t>(m_));
    if (!inv.has_value()) {
      throw std::invalid_argument(
          "MultiSlopeCodec: every slope must be coprime to m");
    }
    inv_slopes_.push_back(static_cast<std::size_t>(
        util::floor_mod(*inv, static_cast<std::int64_t>(m_))));
    for (std::size_t j = i + 1; j < slopes_.size(); ++j) {
      if (slopes_[i] == slopes_[j]) {
        throw std::invalid_argument("MultiSlopeCodec: slopes must be distinct");
      }
    }
  }
}

std::size_t MultiSlopeCodec::line_of(std::size_t f, std::size_t r,
                                     std::size_t c) const {
  return (r % m_ + slopes_[f] * (c % m_)) % m_;
}

void MultiSlopeCodec::require_window(const util::BitMatrix& data,
                                     std::size_t row0, std::size_t col0) const {
  if (row0 + m_ > data.rows() || col0 + m_ > data.cols()) {
    throw std::out_of_range("MultiSlopeCodec: block window exceeds bounds");
  }
}

MultiCheckBits MultiSlopeCodec::encode(const util::BitMatrix& data,
                                       std::size_t row0, std::size_t col0) const {
  require_window(data, row0, col0);
  MultiCheckBits check;
  check.family_parity.assign(families(), util::BitVector(m_));
  if (m_ > kWordM) {
    // Bit-serial fallback for blocks wider than one word (matches
    // reference_multislope_encode).
    for (std::size_t r = 0; r < m_; ++r) {
      for (std::size_t c = 0; c < m_; ++c) {
        if (!data.get(row0 + r, col0 + c)) continue;
        for (std::size_t f = 0; f < families(); ++f) {
          check.family_parity[f].flip(line_of(f, r, c));
        }
      }
    }
    return check;
  }
  // Word-parallel path: in GF(2)[x]/(x^m - 1), family f's parity is
  // sum_r x^r p_r(x^{s_f}) = q_f(x^{s_f}) with q_f = sum_r x^{r/s_f} p_r,
  // so each row costs one rotate+XOR per family and the stride
  // substitution runs once per block (diagword in core/geometry).
  const std::span<const util::BitVector> rows = data.rows_span();
  std::vector<std::uint64_t> acc(families(), 0);
  std::vector<std::size_t> rot(families(), 0);  // (r * inv_slope_f) mod m
  for (std::size_t r = 0; r < m_; ++r) {
    const std::uint64_t seg = diagword::extract(rows[row0 + r].words(), col0, m_);
    for (std::size_t f = 0; f < families(); ++f) {
      acc[f] ^= diagword::rotl(seg, rot[f], m_);
      rot[f] += inv_slopes_[f];
      if (rot[f] >= m_) rot[f] -= m_;
    }
  }
  for (std::size_t f = 0; f < families(); ++f) {
    check.family_parity[f].set_low_word(
        diagword::stride_permute(acc[f], slopes_[f], m_));
  }
  return check;
}

void MultiSlopeCodec::update_for_write(MultiCheckBits& check, std::size_t r,
                                       std::size_t c, bool old_value,
                                       bool new_value) const {
  if (old_value == new_value) return;
  for (std::size_t f = 0; f < families(); ++f) {
    check.family_parity[f].flip(line_of(f, r, c));
  }
}

std::vector<util::BitVector> MultiSlopeCodec::syndrome(
    const util::BitMatrix& data, std::size_t row0, std::size_t col0,
    const MultiCheckBits& stored) const {
  if (stored.family_parity.size() != families()) {
    throw std::invalid_argument("MultiSlopeCodec: stored check-bit mismatch");
  }
  const MultiCheckBits fresh = encode(data, row0, col0);
  std::vector<util::BitVector> syn(families());
  for (std::size_t f = 0; f < families(); ++f) {
    syn[f] = fresh.family_parity[f] ^ stored.family_parity[f];
  }
  return syn;
}

bool MultiSlopeCodec::explains(
    const std::vector<util::BitVector>& syn,
    const std::vector<std::pair<std::size_t, std::size_t>>& cells) const {
  for (std::size_t f = 0; f < families(); ++f) {
    util::BitVector flips(m_);
    for (const auto& [r, c] : cells) flips.flip(line_of(f, r, c));
    if (!(flips == syn[f])) return false;
  }
  return true;
}

MultiDecodeResult MultiSlopeCodec::check_and_correct(
    util::BitMatrix& data, std::size_t row0, std::size_t col0,
    MultiCheckBits& stored) const {
  const std::vector<util::BitVector> syn = syndrome(data, row0, col0, stored);
  MultiDecodeResult result;

  bool any = false;
  for (const auto& s : syn) any = any || s.any();
  if (!any) {
    result.status = MultiDecodeStatus::kClean;
    return result;
  }

  using Cells = std::vector<std::pair<std::size_t, std::size_t>>;
  std::vector<Cells> matches;
  auto consider = [&](const Cells& cells) {
    if (matches.size() < 2 && explains(syn, cells)) {
      // Reject duplicates arising from symmetric enumeration.
      for (const Cells& seen : matches) {
        if (seen == cells) return;
      }
      matches.push_back(cells);
    }
  };
  auto sorted = [](Cells cells) {
    std::sort(cells.begin(), cells.end());
    return cells;
  };

  // Size 1: the error's family-0 and family-1 lines pin (r, c) when K >= 2;
  // with K == 1 any cell on the flagged line is a candidate (ambiguous for
  // m > 1, so effectively detection-only -- as expected of plain parity).
  if (syn[0].count() == 1) {
    const std::size_t line0 = syn[0].find_first();
    for (std::size_t c = 0; c < m_; ++c) {
      // r + s0*c = line0  =>  r = line0 - s0*c (mod m).
      const std::size_t r = static_cast<std::size_t>(util::floor_mod(
          static_cast<std::int64_t>(line0) -
              static_cast<std::int64_t>(slopes_[0] * c),
          static_cast<std::int64_t>(m_)));
      consider({{r, c}});
      if (matches.size() >= 2) break;
    }
  }

  // Size 2 (needs K >= 3 for reliable disambiguation; searched for K >= 2
  // as well -- uniqueness still filters).  The two errors' family-0 lines
  // are the two flagged lines, or both lie on one line when family 0 shows
  // no flag.
  if (matches.size() < 2 && families() >= 2) {
    const std::size_t flags0 = syn[0].count();
    auto cells_on_line0 = [&](std::size_t line) {
      Cells cells;
      for (std::size_t c = 0; c < m_; ++c) {
        const std::size_t r = static_cast<std::size_t>(util::floor_mod(
            static_cast<std::int64_t>(line) -
                static_cast<std::int64_t>(slopes_[0] * c),
            static_cast<std::int64_t>(m_)));
        cells.push_back({r, c});
      }
      return cells;
    };
    if (flags0 == 2) {
      const std::size_t a = syn[0].find_first();
      const std::size_t b = syn[0].find_next(a);
      for (const auto& ca : cells_on_line0(a)) {
        for (const auto& cb : cells_on_line0(b)) {
          consider(sorted({ca, cb}));
          if (matches.size() >= 2) break;
        }
        if (matches.size() >= 2) break;
      }
    } else if (flags0 == 0) {
      for (std::size_t line = 0; line < m_ && matches.size() < 2; ++line) {
        const Cells on_line = cells_on_line0(line);
        for (std::size_t i = 0; i < on_line.size() && matches.size() < 2; ++i) {
          for (std::size_t j = i + 1; j < on_line.size(); ++j) {
            consider(sorted({on_line[i], on_line[j]}));
            if (matches.size() >= 2) break;
          }
        }
      }
    }
  }

  if (matches.size() == 1) {
    for (const auto& [r, c] : matches.front()) {
      data.flip(row0 + r, col0 + c);
    }
    result.status = MultiDecodeStatus::kCorrected;
    result.corrected_cells = matches.front();
    return result;
  }
  if (matches.empty()) {
    // No data explanation: check whether flipped *check bits* alone explain
    // the syndrome (each syndrome flag is one bad stored parity).
    std::size_t total_flags = 0;
    for (const auto& s : syn) total_flags += s.count();
    // Data errors always flag every family equally often; a pattern where
    // some families are clean and others are not can only be check-bit
    // corruption (or a >max-size error burst -- indistinguishable, so only
    // accept small counts).
    std::size_t clean_families = 0;
    for (const auto& s : syn) clean_families += s.none() ? 1 : 0;
    if (clean_families > 0 && total_flags <= families()) {
      for (std::size_t f = 0; f < families(); ++f) {
        for (std::size_t line = syn[f].find_first(); line < m_;
             line = syn[f].find_next(line)) {
          stored.family_parity[f].flip(line);
          ++result.corrected_check_bits;
        }
      }
      result.status = MultiDecodeStatus::kCorrected;
      return result;
    }
  }
  result.status = MultiDecodeStatus::kDetectedUncorrectable;
  return result;
}

}  // namespace pimecc::ecc
