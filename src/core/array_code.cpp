#include "core/array_code.hpp"

#include <algorithm>
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

/// XORs the low m bits of `value` into bits [bit0, bit0 + m) of a packed
/// row (m <= 64; the range lies within the row).
void xor_segment(std::uint64_t* words, std::size_t bit0, std::size_t m,
                 std::uint64_t value) {
  const std::size_t wi = bit0 / 64;
  const unsigned shift = static_cast<unsigned>(bit0 % 64);
  words[wi] ^= value << shift;
  if (shift != 0 && shift + m > 64) words[wi + 1] ^= value >> (64u - shift);
}

std::uint64_t segment(const std::uint64_t* words, std::size_t words_per_row,
                      std::size_t bit0, std::size_t m) {
  return diagword::extract({words, words_per_row}, bit0, m);
}

bool get_bit(const std::uint64_t* words, std::size_t p) {
  return ((words[p / 64] >> (p % 64)) & 1u) != 0;
}

void flip_bit(std::uint64_t* words, std::size_t p) {
  words[p / 64] ^= std::uint64_t{1} << (p % 64);
}

/// Segment offset of counter diagonal i in the pre-reflection counter row.
std::size_t pre_reflection(std::size_t i, std::size_t m) { return (m - i) % m; }

/// One syndrome word as the flag count (saturated at 2, which spares the
/// clean blocks a popcount) and first flag of its axis.
detail::AxisFlags flags(std::uint64_t syndrome) {
  const std::size_t count =
      syndrome == 0 ? 0 : ((syndrome & (syndrome - 1)) == 0 ? 1 : 2);
  return {count, static_cast<std::size_t>(std::countr_zero(syndrome))};
}

/// Two packed rows of scratch for one band's syndrome: on the stack up to
/// n = 4096 (the serve cap), on the heap above.
class BandRows {
 public:
  explicit BandRows(std::size_t words) {
    if (words > kStackWords) heap_.resize(2 * words);
    lead = words > kStackWords ? heap_.data() : stack_.data();
    cnt = lead + words;
  }
  BandRows(const BandRows&) = delete;
  BandRows& operator=(const BandRows&) = delete;

  std::uint64_t* lead;
  std::uint64_t* cnt;

 private:
  static constexpr std::size_t kStackWords = 64;
  std::array<std::uint64_t, 2 * kStackWords> stack_;
  std::vector<std::uint64_t> heap_;
};

}  // namespace

ArrayCode::ArrayCode(std::size_t n, std::size_t m)
    : n_(n), words_((n + 63) / 64), codec_(m) {
  if (n == 0 || n % m != 0) {
    throw std::invalid_argument("ArrayCode: n must be a positive multiple of m");
  }
  lead_.assign(blocks_per_side() * words_, 0);
  cnt_.assign(blocks_per_side() * words_, 0);
  if (m <= diagword::kMaxM) {
    masks_ = util::simd::segment_masks(m, blocks_per_side());
  }
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

CheckBits ArrayCode::check_bits(BlockIndex b) const {
  (void)flat_index(b);
  const std::size_t mm = m();
  const std::size_t bit0 = b.block_col * mm;
  const std::uint64_t* lead = lead_row(b.block_row);
  const std::uint64_t* cnt = cnt_row(b.block_row);
  CheckBits bits(mm);
  for (std::size_t i = 0; i < mm; ++i) {
    bits.leading.set(i, get_bit(lead, bit0 + i));
    bits.counter.set(i, get_bit(cnt, bit0 + pre_reflection(i, mm)));
  }
  return bits;
}

void ArrayCode::flip_check_bit(BlockIndex b, bool leading, std::size_t index) {
  (void)flat_index(b);
  if (index >= m()) {
    throw std::out_of_range("ArrayCode::flip_check_bit: index out of range");
  }
  flip_stored(b, leading, index);
}

void ArrayCode::flip_stored(BlockIndex b, bool leading, std::size_t index) {
  const std::size_t mm = m();
  const std::size_t bit0 = b.block_col * mm;
  if (leading) {
    flip_bit(lead_row(b.block_row), bit0 + index);
  } else {
    flip_bit(cnt_row(b.block_row), bit0 + pre_reflection(index, mm));
  }
}

void ArrayCode::set_check_bits(BlockIndex b, const CheckBits& bits) {
  (void)flat_index(b);
  const std::size_t mm = m();
  if (bits.leading.size() != mm || bits.counter.size() != mm) {
    throw std::invalid_argument(
        "ArrayCode::set_check_bits: need m bits per family");
  }
  const CheckBits stored = check_bits(b);
  for (std::size_t i = 0; i < mm; ++i) {
    if (stored.leading.get(i) != bits.leading.get(i)) flip_stored(b, true, i);
    if (stored.counter.get(i) != bits.counter.get(i)) flip_stored(b, false, i);
  }
}

void ArrayCode::accumulate(const std::uint64_t* const* rows, std::size_t r0,
                           std::size_t count, std::uint64_t* lead,
                           std::uint64_t* cnt) const {
  const util::simd::BandShape shape{m(), words_, masks_.data()};
  util::simd::kernels().band_accumulate(shape, rows, r0, count, lead, cnt);
}

void ArrayCode::encode_all(const util::BitMatrix& data) {
  require_shape(data);
  const std::size_t mm = m();
  const std::size_t bps = blocks_per_side();
  if (mm > diagword::kMaxM) {
    for (std::size_t br = 0; br < bps; ++br) {
      for (std::size_t bc = 0; bc < bps; ++bc) {
        set_check_bits({br, bc}, codec_.encode(data, br * mm, bc * mm));
      }
    }
    return;
  }
  std::fill(lead_.begin(), lead_.end(), 0);
  std::fill(cnt_.begin(), cnt_.end(), 0);
  for (std::size_t br = 0; br < bps; ++br) {
    accumulate(row_ptrs(data, br * mm, mm).data(), 0, mm, lead_row(br),
               cnt_row(br));
  }
}

void ArrayCode::apply_band_delta(std::size_t band,
                                 const std::uint64_t* const* delta_rows) {
  const std::size_t mm = m();
  if (band >= blocks_per_side()) {
    throw std::out_of_range("ArrayCode::apply_band_delta: band out of range");
  }
  if (mm <= diagword::kMaxM) {
    // Parity is linear: the check rows of (old XOR delta) are the stored
    // rows XOR the parity of the delta slab itself.
    accumulate(delta_rows, 0, mm, lead_row(band), cnt_row(band));
    return;
  }
  // Bit-serial fallback: one continuous-parity update per changed cell.
  for (std::size_t r = 0; r < mm; ++r) {
    for (std::size_t w = 0; w < words_; ++w) {
      for (std::uint64_t bits = delta_rows[r][w]; bits != 0; bits &= bits - 1) {
        flip_cell(band * mm + r,
                  w * 64 + static_cast<std::size_t>(std::countr_zero(bits)));
      }
    }
  }
}

void ArrayCode::flip_cell(std::size_t r, std::size_t c) {
  const DiagonalPair d = codec_.geometry().diagonals(r, c);
  flip_stored(block_of(r, c), true, d.leading);
  flip_stored(block_of(r, c), false, d.counter);
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
    if (w.old_value != w.new_value) flip_cell(w.r, w.c);
  }
}

ScrubReport ArrayCode::scrub(util::BitMatrix& data) {
  require_shape(data);
  ScrubReport report;
  for (std::size_t br = 0; br < blocks_per_side(); ++br) {
    scrub_whole_band(data, br, report);
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
    scrub_whole_band(data, band, report);
  } else {
    for (std::size_t br = 0; br < bps; ++br) scrub_one(data, {br, band}, report);
  }
  return report;
}

BlockRepair ArrayCode::scrub_block(util::BitMatrix& data, BlockIndex b) {
  require_shape(data);
  (void)flat_index(b);  // bounds check before touching any state
  ScrubReport report;
  return scrub_one(data, b, report);
}

void ArrayCode::band_syndrome(const util::BitMatrix& data, std::size_t band,
                              std::uint64_t* lead, std::uint64_t* cnt) const {
  std::copy_n(lead_row(band), words_, lead);
  std::copy_n(cnt_row(band), words_, cnt);
  accumulate(row_ptrs(data, band * m(), m()).data(), 0, m(), lead, cnt);
}

void ArrayCode::scrub_whole_band(util::BitMatrix& data, std::size_t band,
                                 ScrubReport& report) {
  const std::size_t mm = m();
  const std::size_t bps = blocks_per_side();
  if (mm > diagword::kMaxM) {
    for (std::size_t bc = 0; bc < bps; ++bc) scrub_one(data, {band, bc}, report);
    return;
  }
  BandRows syndrome(words_);
  band_syndrome(data, band, syndrome.lead, syndrome.cnt);
  // Only blocks with a nonzero syndrome segment need a verdict; blocks are
  // disjoint, so repairing one cannot change another's syndrome.
  std::size_t decoded = 0;
  std::size_t next_bit = 0;  // first bit of the first block not yet decoded
  for (std::size_t w = 0; w < words_; ++w) {
    for (std::uint64_t any = syndrome.lead[w] | syndrome.cnt[w]; any != 0;
         any &= any - 1) {
      const std::size_t p =
          w * 64 + static_cast<std::size_t>(std::countr_zero(any));
      if (p < next_bit) continue;
      const std::size_t bc = p / mm;
      next_bit = (bc + 1) * mm;
      const std::uint64_t lead = segment(syndrome.lead, words_, bc * mm, mm);
      const std::uint64_t cnt = diagword::reflect(
          segment(syndrome.cnt, words_, bc * mm, mm), mm);
      repair(data, {band, bc},
             detail::decode(codec_.geometry(), flags(lead), flags(cnt)), report);
      ++decoded;
    }
  }
  report.blocks_checked += bps - decoded;
  report.clean += bps - decoded;
}

BlockRepair ArrayCode::scrub_one(util::BitMatrix& data, BlockIndex b,
                                 ScrubReport& report) {
  const std::size_t mm = m();
  const std::size_t row0 = b.block_row * mm;
  const std::size_t bit0 = b.block_col * mm;
  if (mm > diagword::kMaxM) {
    const Syndrome syndrome =
        codec_.compute_syndrome(data, row0, bit0, check_bits(b));
    return repair(data, b, codec_.classify(syndrome), report);
  }
  std::uint64_t lead = 0;
  std::uint64_t cnt = 0;
  util::simd::kernels().block_peel(row_ptrs(data, row0, mm).data(), mm, bit0,
                                   &lead, &cnt);
  lead ^= segment(lead_row(b.block_row), words_, bit0, mm);
  cnt = diagword::reflect(cnt ^ segment(cnt_row(b.block_row), words_, bit0, mm),
                          mm);
  return repair(data, b, detail::decode(codec_.geometry(), flags(lead), flags(cnt)),
                report);
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
    case DecodeStatus::kCorrectedCheck:
      done.check_on_leading_axis = verdict.check_error->on_leading_axis;
      done.check_index = verdict.check_error->index;
      flip_stored(b, done.check_on_leading_axis, done.check_index);
      ++report.corrected_check;
      break;
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
  const std::size_t band = line / mm;
  const std::size_t rem = line % mm;
  if (mm > diagword::kMaxM) {
    // Bit-serial fallback: one continuous-parity update per changed cell.
    for (std::size_t i = delta.find_first(); i < n_; i = delta.find_next(i)) {
      flip_cell(line_is_column ? i : line, line_is_column ? line : i);
    }
    return;
  }
  if (!line_is_column) {
    // A written row is row `rem` of its band: one band_accumulate step.
    const std::uint64_t* row = delta.words().data();
    accumulate(&row, rem, 1, lead_row(band), cnt_row(band));
    return;
  }
  // A written column crosses every band: its segment in band g is the
  // column of block (g, band) at offset rem -- cell (r, rem) sits on
  // leading diagonal r + rem and pre-reflection counter offset rem - r.
  const std::span<const std::uint64_t> words = delta.words();
  for (std::size_t g = 0; g < blocks_per_side(); ++g) {
    const std::uint64_t dseg = diagword::extract(words, g * mm, mm);
    if (dseg == 0) continue;
    xor_segment(lead_row(g), band * mm, mm, diagword::rotl(dseg, rem, mm));
    xor_segment(cnt_row(g), band * mm, mm,
                diagword::rotl(diagword::reflect(dseg, mm), rem, mm));
  }
}

bool ArrayCode::consistent_with(const util::BitMatrix& data) const {
  require_shape(data);
  const std::size_t mm = m();
  const std::size_t bps = blocks_per_side();
  if (mm > diagword::kMaxM) {
    for (std::size_t br = 0; br < bps; ++br) {
      for (std::size_t bc = 0; bc < bps; ++bc) {
        if (!(codec_.encode(data, br * mm, bc * mm) == check_bits({br, bc}))) {
          return false;
        }
      }
    }
    return true;
  }
  BandRows syndrome(words_);
  for (std::size_t br = 0; br < bps; ++br) {
    band_syndrome(data, br, syndrome.lead, syndrome.cnt);
    for (std::size_t w = 0; w < words_; ++w) {
      if ((syndrome.lead[w] | syndrome.cnt[w]) != 0) return false;
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
