#include "core/array_code.hpp"

#include <array>
#include <bit>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "util/simd.hpp"

namespace pimecc::ecc {

namespace {

/// Row word-pointer table for the dispatched kernels: rows
/// [row0, row0 + m) of `data`.  m <= diagword::kMaxM == 64.
std::array<const std::uint64_t*, diagword::kMaxM> row_ptrs(
    const util::BitMatrix& data, std::size_t row0, std::size_t m) {
  std::array<const std::uint64_t*, diagword::kMaxM> ptrs;
  const std::span<const util::BitVector> rows = data.rows_span();
  for (std::size_t r = 0; r < m; ++r) ptrs[r] = rows[row0 + r].words().data();
  return ptrs;
}

/// Accumulates the per-block parity words of one block band from its m
/// row word pointers: lead[bc]/cnt[bc] receive the leading and counter
/// parity of block column bc, counter already reflected into diagonal
/// order.  m <= diagword::kMaxM.  Dispatched (scalar/AVX2/AVX-512).
void accumulate_band(const std::uint64_t* const* rows, std::size_t m,
                     std::vector<std::uint64_t>& lead,
                     std::vector<std::uint64_t>& cnt) {
  const std::size_t bps = lead.size();
  util::simd::kernels().band_accumulate(rows, m, bps, lead.data(), cnt.data());
  for (std::size_t bc = 0; bc < bps; ++bc) {
    cnt[bc] = diagword::reflect(cnt[bc], m);
  }
}

/// One syndrome word as the flag count (saturated at 2, which spares the
/// clean blocks a popcount) and first flag of its axis.
detail::AxisFlags flags(std::uint64_t syndrome) {
  const std::size_t count =
      syndrome == 0 ? 0 : ((syndrome & (syndrome - 1)) == 0 ? 1 : 2);
  return {count, static_cast<std::size_t>(std::countr_zero(syndrome))};
}

}  // namespace

ArrayCode::ArrayCode(std::size_t n, std::size_t m) : n_(n), codec_(m) {
  if (n == 0 || n % m != 0) {
    throw std::invalid_argument("ArrayCode: n must be a positive multiple of m");
  }
  blocks_.assign(block_count(), CheckBits(m));
  band_lead_.resize(blocks_per_side());
  band_cnt_.resize(blocks_per_side());
}

std::size_t ArrayCode::flat_index(BlockIndex b) const {
  if (b.block_row >= blocks_per_side() || b.block_col >= blocks_per_side()) {
    throw std::out_of_range("ArrayCode: block index out of range");
  }
  return b.block_row * blocks_per_side() + b.block_col;
}

void ArrayCode::require_shape(const util::BitMatrix& data) const {
  if (data.rows() != n_ || data.cols() != n_) {
    throw std::invalid_argument("ArrayCode: data matrix must be n x n");
  }
}

const CheckBits& ArrayCode::check_bits(BlockIndex b) const {
  return blocks_[flat_index(b)];
}

CheckBits& ArrayCode::check_bits_mutable(BlockIndex b) {
  return blocks_[flat_index(b)];
}

void ArrayCode::encode_all(const util::BitMatrix& data) {
  require_shape(data);
  const std::size_t mm = m();
  const std::size_t bps = blocks_per_side();
  if (mm > diagword::kMaxM) {
    for (std::size_t br = 0; br < bps; ++br) {
      for (std::size_t bc = 0; bc < bps; ++bc) {
        blocks_[br * bps + bc] = codec_.encode(data, br * mm, bc * mm);
      }
    }
    return;
  }
  // Batch band path: each row of a block band is read once, its per-block
  // segments peeled and folded into all blocks of the band simultaneously.
  for (std::size_t br = 0; br < bps; ++br) {
    fold_band(br, row_ptrs(data, br * mm, mm).data(), /*assign=*/true);
  }
}

void ArrayCode::fold_band(std::size_t band, const std::uint64_t* const* rows,
                          bool assign) {
  const std::size_t bps = blocks_per_side();
  accumulate_band(rows, m(), band_lead_, band_cnt_);
  for (std::size_t bc = 0; bc < bps; ++bc) {
    CheckBits& check = blocks_[band * bps + bc];
    const std::uint64_t keep_lead = assign ? 0 : check.leading.low_word();
    const std::uint64_t keep_cnt = assign ? 0 : check.counter.low_word();
    check.leading.set_low_word(keep_lead ^ band_lead_[bc]);
    check.counter.set_low_word(keep_cnt ^ band_cnt_[bc]);
  }
}

void ArrayCode::apply_band_delta(std::size_t band,
                                 const std::uint64_t* const* delta_rows) {
  const std::size_t mm = m();
  if (band >= blocks_per_side()) {
    throw std::out_of_range("ArrayCode::apply_band_delta: band out of range");
  }
  if (mm <= diagword::kMaxM) {
    // Parity is linear: the check words of (old XOR delta) are the stored
    // words XOR the parity of the delta slab itself.
    fold_band(band, delta_rows, /*assign=*/false);
    return;
  }
  // Bit-serial fallback: one continuous-parity update per changed cell.
  constexpr std::size_t kWordBits = util::BitVector::kWordBits;
  const std::size_t words = (n_ + kWordBits - 1) / kWordBits;
  for (std::size_t r = 0; r < mm; ++r) {
    for (std::size_t w = 0; w < words; ++w) {
      for (std::uint64_t bits = delta_rows[r][w]; bits != 0; bits &= bits - 1) {
        const std::size_t c = w * kWordBits +
                              static_cast<std::size_t>(std::countr_zero(bits));
        codec_.update_for_write(blocks_[band * blocks_per_side() + c / mm], r,
                                c % mm, false, true);
      }
    }
  }
}

void ArrayCode::apply_writes(const std::vector<CellWrite>& writes) {
  // Validate the whole batch before the first parity flip: a bad cell
  // mid-batch must not leave earlier writes half-applied.
  for (const CellWrite& w : writes) {
    if (w.r >= n_ || w.c >= n_) {
      throw std::out_of_range("ArrayCode::apply_writes: cell out of range");
    }
  }
  for (const CellWrite& w : writes) {
    CheckBits& check = blocks_[flat_index(block_of(w.r, w.c))];
    codec_.update_for_write(check, w.r % m(), w.c % m(), w.old_value, w.new_value);
  }
}

ScrubReport ArrayCode::scrub(util::BitMatrix& data) {
  require_shape(data);
  ScrubReport report;
  const std::size_t bps = blocks_per_side();
  for (std::size_t br = 0; br < bps; ++br) {
    scrub_row_blocks(data, br, 0, bps, report);
  }
  return report;
}

ScrubReport ArrayCode::scrub_band(util::BitMatrix& data, bool row_band,
                                  std::size_t band) {
  require_shape(data);
  const std::size_t bps = blocks_per_side();
  if (band >= bps) {
    throw std::out_of_range("ArrayCode::scrub_band: band out of range");
  }
  ScrubReport report;
  if (row_band) {
    scrub_row_blocks(data, band, 0, bps, report);
  } else {
    for (std::size_t br = 0; br < bps; ++br) {
      scrub_row_blocks(data, br, band, band + 1, report);
    }
  }
  return report;
}

BlockRepair ArrayCode::scrub_block(util::BitMatrix& data, BlockIndex b) {
  require_shape(data);
  (void)flat_index(b);  // bounds check before touching any state
  ScrubReport report;
  return scrub_row_blocks(data, b.block_row, b.block_col, b.block_col + 1,
                          report);
}

BlockRepair ArrayCode::scrub_row_blocks(util::BitMatrix& data, std::size_t band,
                                        std::size_t first, std::size_t last,
                                        ScrubReport& report) {
  const std::size_t mm = m();
  const std::size_t bps = blocks_per_side();
  BlockRepair last_repair;
  if (mm > diagword::kMaxM) {
    for (std::size_t bc = first; bc < last; ++bc) {
      const Syndrome syndrome = codec_.compute_syndrome(
          data, band * mm, bc * mm, blocks_[band * bps + bc]);
      last_repair = repair(data, {band, bc}, codec_.classify(syndrome), report);
    }
    return last_repair;
  }
  // Blocks are disjoint, so repairing one block's data bit cannot change
  // another block's already-accumulated parity.
  const auto rows = row_ptrs(data, band * mm, mm);
  const bool whole_band = first == 0 && last == bps;
  if (whole_band) accumulate_band(rows.data(), mm, band_lead_, band_cnt_);
  for (std::size_t bc = first; bc < last; ++bc) {
    std::uint64_t lead = 0;
    std::uint64_t cnt = 0;
    if (whole_band) {
      lead = band_lead_[bc];
      cnt = band_cnt_[bc];
    } else {
      util::simd::kernels().block_peel(rows.data(), mm, bc * mm, &lead, &cnt);
      cnt = diagword::reflect(cnt, mm);
    }
    const CheckBits& stored = blocks_[band * bps + bc];
    const DecodeResult verdict =
        detail::decode(codec_.geometry(), flags(lead ^ stored.leading.low_word()),
                       flags(cnt ^ stored.counter.low_word()));
    last_repair = repair(data, {band, bc}, verdict, report);
  }
  return last_repair;
}

BlockRepair ArrayCode::repair(util::BitMatrix& data, BlockIndex b,
                              const DecodeResult& verdict, ScrubReport& report) {
  BlockRepair done;
  done.status = verdict.status;
  ++report.blocks_checked;
  switch (verdict.status) {
    case DecodeStatus::kClean:
      ++report.clean;
      break;
    case DecodeStatus::kCorrectedData:
      done.data_r = b.block_row * m() + verdict.data_error->r;
      done.data_c = b.block_col * m() + verdict.data_error->c;
      data.flip(done.data_r, done.data_c);
      ++report.corrected_data;
      break;
    case DecodeStatus::kCorrectedCheck: {
      done.check_on_leading_axis = verdict.check_error->on_leading_axis;
      done.check_index = verdict.check_error->index;
      CheckBits& stored = blocks_[b.block_row * blocks_per_side() + b.block_col];
      (done.check_on_leading_axis ? stored.leading : stored.counter)
          .flip(done.check_index);
      ++report.corrected_check;
      break;
    }
    case DecodeStatus::kDetectedUncorrectable:
      ++report.uncorrectable;
      break;
  }
  return done;
}

void ArrayCode::apply_line_delta(bool line_is_column, std::size_t line,
                                 const util::BitVector& delta) {
  if (line >= n_) {
    throw std::out_of_range("ArrayCode::apply_line_delta: line out of range");
  }
  if (delta.size() != n_) {
    throw std::invalid_argument("ArrayCode::apply_line_delta: delta must have length n");
  }
  const std::size_t mm = m();
  const std::size_t bps = blocks_per_side();
  const std::size_t band = line / mm;
  const std::size_t rem = line % mm;
  if (mm > diagword::kMaxM) {
    // Bit-serial fallback: one continuous-parity update per changed cell.
    for (std::size_t i = delta.find_first(); i < n_; i = delta.find_next(i)) {
      const std::size_t r = line_is_column ? i : line;
      const std::size_t c = line_is_column ? line : i;
      codec_.update_for_write(blocks_[flat_index(block_of(r, c))], r % mm,
                              c % mm, false, true);
    }
    return;
  }
  const std::span<const std::uint64_t> words = delta.words();
  for (std::size_t g = 0; g < bps; ++g) {
    const std::uint64_t dseg = diagword::extract(words, g * mm, mm);
    if (dseg == 0) continue;
    CheckBits& check =
        line_is_column ? blocks_[g * bps + band] : blocks_[band * bps + g];
    const std::uint64_t dlead = diagword::rotl(dseg, rem, mm);
    const std::uint64_t dcnt =
        line_is_column
            ? diagword::rotl(dseg, (mm - rem) % mm, mm)
            : diagword::rotl(diagword::stride_permute(dseg, mm - 1, mm), rem, mm);
    check.leading.set_low_word(check.leading.low_word() ^ dlead);
    check.counter.set_low_word(check.counter.low_word() ^ dcnt);
  }
}

bool ArrayCode::consistent_with(const util::BitMatrix& data) const {
  require_shape(data);
  const std::size_t mm = m();
  const std::size_t bps = blocks_per_side();
  if (mm > diagword::kMaxM) {
    for (std::size_t br = 0; br < bps; ++br) {
      for (std::size_t bc = 0; bc < bps; ++bc) {
        const CheckBits fresh = codec_.encode(data, br * mm, bc * mm);
        if (!(fresh == blocks_[br * bps + bc])) return false;
      }
    }
    return true;
  }
  std::vector<std::uint64_t> lead(bps);
  std::vector<std::uint64_t> cnt(bps);
  for (std::size_t br = 0; br < bps; ++br) {
    accumulate_band(row_ptrs(data, br * mm, mm).data(), mm, lead, cnt);
    for (std::size_t bc = 0; bc < bps; ++bc) {
      const CheckBits& stored = blocks_[br * bps + bc];
      if (lead[bc] != stored.leading.low_word() ||
          cnt[bc] != stored.counter.low_word()) {
        return false;
      }
    }
  }
  return true;
}

bool ArrayCode::writes_touch_each_diagonal_once(
    const std::vector<CellWrite>& writes) const {
  // touched[block][axis][diag] as a flat bitmap.
  std::vector<bool> touched(block_count() * 2 * m(), false);
  for (const CellWrite& w : writes) {
    if (w.r >= n_ || w.c >= n_) return false;
    const std::size_t block = flat_index(block_of(w.r, w.c));
    const DiagonalPair d = codec_.geometry().diagonals(w.r % m(), w.c % m());
    const std::size_t lead_slot = (block * 2 + 0) * m() + d.leading;
    const std::size_t cnt_slot = (block * 2 + 1) * m() + d.counter;
    if (touched[lead_slot] || touched[cnt_slot]) return false;
    touched[lead_slot] = true;
    touched[cnt_slot] = true;
  }
  return true;
}

}  // namespace pimecc::ecc
