#include "core/array_code.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

#include "util/simd.hpp"

namespace pimecc::ecc {

namespace {

/// One axis of a syndrome: how many of its diagonals are flagged (the rule
/// only tells none, one and several apart, so a count may saturate at 2),
/// and the index of the first flagged one (meaningful when count > 0).
struct AxisFlags {
  std::size_t count = 0;
  std::size_t first = 0;
};

/// Paper Section III's syndrome rule, the one decoder behind every scrub:
/// one flagged leading plus one flagged counter diagonal locate a data bit
/// (geometry.locate); one flag on one axis only marks that check bit; no
/// flag is clean; anything else is detected-uncorrectable.  Inline: the
/// scrubs' clean blocks must cost no call.
inline DecodeResult decode(const DiagonalGeometry& geometry, AxisFlags leading,
                           AxisFlags counter) {
  DecodeResult result;
  if (leading.count == 0 && counter.count == 0) {
    result.status = DecodeStatus::kClean;
  } else if (leading.count == 1 && counter.count == 1) {
    // Single data-bit error: unique intersection of the two diagonals.
    result.status = DecodeStatus::kCorrectedData;
    result.data_error = geometry.locate({leading.first, counter.first});
  } else if (leading.count + counter.count == 1) {
    result.status = DecodeStatus::kCorrectedCheck;
    result.check_error = leading.count == 1
                             ? CheckBitLocation{true, leading.first}
                             : CheckBitLocation{false, counter.first};
  } else {
    result.status = DecodeStatus::kDetectedUncorrectable;
  }
  return result;
}

/// `size` elements of scratch, on the stack up to kStack: only blocks
/// wider than a word, or rows past the serve cap, reach the heap.
template <typename T, std::size_t kStack>
class Scratch {
 public:
  explicit Scratch(std::size_t size) {
    if (size > kStack) data_ = (heap_.resize(size), heap_.data());
  }
  Scratch(const Scratch&) = delete;
  Scratch& operator=(const Scratch&) = delete;
  [[nodiscard]] T* data() noexcept { return data_; }

 private:
  std::array<T, kStack> stack_;
  std::vector<T> heap_;
  T* data_ = stack_.data();
};

/// The dispatched block_peel of the m x m block anchored at (row0, col0):
/// its leading parities into `lead` and its pre-reflection counter
/// parities (diagonal i at offset (m - i) mod m) into `cnt`, ceil(m / 64)
/// words each.
inline void peel_block(const util::BitMatrix& data, std::size_t m,
                       std::size_t row0, std::size_t col0, std::uint64_t* lead,
                       std::uint64_t* cnt) {
  const std::span<const util::BitVector> rows = data.rows_span();
  Scratch<const std::uint64_t*, 64> scratch(m);
  const std::uint64_t** ptrs = scratch.data();
  for (std::size_t r = 0; r < m; ++r) ptrs[r] = rows[row0 + r].words().data();
  util::simd::kernels().block_peel(ptrs, m, col0, lead, cnt);
}

bool get_bit(const std::uint64_t* words, std::size_t p) {
  return ((words[p / 64] >> (p % 64)) & 1u) != 0;
}

void flip_bit(std::uint64_t* words, std::size_t p) {
  words[p / 64] ^= std::uint64_t{1} << (p % 64);
}

/// Segment offset of counter diagonal i in the pre-reflection counter row.
std::size_t pre_reflection(std::size_t i, std::size_t m) { return (m - i) % m; }

/// The m-bit syndrome segment at bit0 of a packed row, XOR a peel's
/// ceil(m/64) words when `peel` is given, as its flag count (saturated at
/// 2, which spares the clean blocks a popcount) and first flag.  A
/// `counter` segment is pre-reflection, so its first flag at offset j is
/// diagonal (m - j) mod m -- the rule reads `first` only when the count is 1.
inline AxisFlags flags(const std::uint64_t* row, std::size_t bit0,
                       const std::uint64_t* peel, std::size_t m, bool counter) {
  AxisFlags f;
  for (std::size_t i = 0; i < m && f.count < 2; i += 64) {
    const std::uint64_t v =
        util::simd::extract(row, bit0 + i, std::min<std::size_t>(64, m - i)) ^
        (peel != nullptr ? peel[i / 64] : 0);
    if (v == 0) continue;
    if (f.count == 0) f.first = i + static_cast<std::size_t>(std::countr_zero(v));
    f.count += (v & (v - 1)) == 0 ? 1 : 2;
  }
  f.count = std::min<std::size_t>(f.count, 2);
  if (counter && f.first != 0) f.first = m - f.first;
  return f;
}

/// band_accumulate of all m rows of each of `data`'s block-rows [band0,
/// band0 + bands) into consecutive packed rows from lead / cnt on, fed 64
/// rows at a time so the pointer table stays on the stack for any m.
void accumulate_bands(const util::simd::BandShape& shape,
                      const util::BitMatrix& data, std::size_t band0,
                      std::size_t bands, std::uint64_t* lead,
                      std::uint64_t* cnt) {
  const std::span<const util::BitVector> rows = data.rows_span();
  std::array<const std::uint64_t*, 64> ptrs;
  for (std::size_t b = 0; b < bands; ++b) {
    const std::size_t row0 = (band0 + b) * shape.m;
    for (std::size_t r0 = 0; r0 < shape.m; r0 += ptrs.size()) {
      const std::size_t count = std::min(ptrs.size(), shape.m - r0);
      for (std::size_t i = 0; i < count; ++i) {
        ptrs[i] = rows[row0 + r0 + i].words().data();
      }
      util::simd::kernels().band_accumulate(shape, ptrs.data(), r0, count,
                                            lead + b * shape.words,
                                            cnt + b * shape.words);
    }
  }
}

}  // namespace

ArrayCode::ArrayCode(std::size_t n, std::size_t m)
    : n_(n), words_((n + 63) / 64), geometry_(m) {
  if (n == 0 || n % m != 0) {
    throw std::invalid_argument("ArrayCode: n must be a positive multiple of m");
  }
  lead_.assign(blocks_per_side() * words_, 0);
  cnt_.assign(blocks_per_side() * words_, 0);
  masks_ = util::simd::segment_masks(m, blocks_per_side());
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

void ArrayCode::encode_all(const util::BitMatrix& data) {
  require_shape(data);
  std::fill(lead_.begin(), lead_.end(), 0);
  std::fill(cnt_.begin(), cnt_.end(), 0);
  accumulate_bands(shape(), data, 0, blocks_per_side(), lead_.data(),
                   cnt_.data());
}

void ArrayCode::apply_row_deltas(std::size_t row0, std::size_t count,
                                 const std::uint64_t* delta,
                                 std::size_t stride) {
  if (count > n_ || row0 > n_ - count) {
    throw std::out_of_range("ArrayCode::apply_row_deltas: rows out of range");
  }
  if (stride < words_) {
    throw std::invalid_argument(
        "ArrayCode::apply_row_deltas: stride shorter than a row");
  }
  // Parity is linear: the check rows of (old XOR delta) are the stored
  // rows XOR the parity of the delta rows themselves.  One band_accumulate
  // per piece: the rows of one band, at most 64 at a time.
  const std::size_t mm = m();
  std::array<const std::uint64_t*, 64> ptrs;
  for (std::size_t r = row0, end = row0 + count; r < end;) {
    const std::size_t band = r / mm;
    const std::size_t off = r % mm;
    const std::size_t len = std::min({ptrs.size(), mm - off, end - r});
    for (std::size_t i = 0; i < len; ++i) {
      ptrs[i] = delta + (r - row0 + i) * stride;
    }
    util::simd::kernels().band_accumulate(shape(), ptrs.data(), off, len,
                                          lead_row(band), cnt_row(band));
    r += len;
  }
}

void ArrayCode::flip_cell(std::size_t r, std::size_t c) {
  const DiagonalPair d = geometry_.diagonals(r, c);
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
  accumulate_bands(shape(), data, band, 1, lead, cnt);
}

void ArrayCode::scrub_whole_band(util::BitMatrix& data, std::size_t band,
                                 ScrubReport& report) {
  const std::size_t mm = m();
  const std::size_t bps = blocks_per_side();
  Scratch<std::uint64_t, 128> syndrome(2 * words_);
  std::uint64_t* lead = syndrome.data();
  std::uint64_t* cnt = lead + words_;
  band_syndrome(data, band, lead, cnt);
  // Only blocks with a nonzero syndrome segment need a verdict; blocks are
  // disjoint, so repairing one cannot change another's syndrome.
  std::size_t decoded = 0;
  std::size_t next_bit = 0;  // first bit of the first block not yet decoded
  for (std::size_t w = 0; w < words_; ++w) {
    for (std::uint64_t any = lead[w] | cnt[w]; any != 0; any &= any - 1) {
      const std::size_t p =
          w * 64 + static_cast<std::size_t>(std::countr_zero(any));
      if (p < next_bit) continue;
      const std::size_t bc = p / mm;
      next_bit = (bc + 1) * mm;
      repair(data, {band, bc},
             decode(geometry_, flags(lead, bc * mm, nullptr, mm, false),
                    flags(cnt, bc * mm, nullptr, mm, true)),
             report);
      ++decoded;
    }
  }
  report.blocks_checked += bps - decoded;
  report.clean += bps - decoded;
}

BlockRepair ArrayCode::scrub_one(util::BitMatrix& data, BlockIndex b,
                                 ScrubReport& report) {
  const std::size_t mm = m();
  const std::size_t words = (mm + 63) / 64;
  const std::size_t bit0 = b.block_col * mm;
  Scratch<std::uint64_t, 2> syndrome(2 * words);
  std::uint64_t* lead = syndrome.data();
  std::uint64_t* cnt = lead + words;
  peel_block(data, mm, b.block_row * mm, bit0, lead, cnt);
  return repair(
      data, b,
      decode(geometry_, flags(lead_row(b.block_row), bit0, lead, mm, false),
             flags(cnt_row(b.block_row), bit0, cnt, mm, true)),
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

void ArrayCode::apply_column_delta(std::size_t col,
                                   const util::BitVector& delta) {
  if (col >= n_) {
    throw std::out_of_range(
        "ArrayCode::apply_column_delta: column out of range");
  }
  if (delta.size() != n_) {
    throw std::invalid_argument(
        "ArrayCode::apply_column_delta: delta must have length n");
  }
  const std::size_t mm = m();
  const std::size_t band = col / mm;
  const std::size_t rem = col % mm;
  // A written column crosses every band: its segment in band g is the
  // column of block (g, band) at offset rem.  Cell (r, rem) sits on leading
  // diagonal (r + rem) mod m and at pre-reflection counter offset
  // (rem - r) mod m: simd::xor_rotated by rem, plain and reflected, with
  // each piece's landing offsets shared by every band.
  const std::uint64_t* d = delta.words().data();
  const std::size_t bps = blocks_per_side();
  for (std::size_t i = 0; i < mm; i += 64) {
    const std::size_t len = std::min<std::size_t>(64, mm - i);
    const std::size_t lead_at = i + rem < mm ? i + rem : i + rem - mm;
    std::size_t cnt_at = rem + 1 + mm - i - len;
    if (cnt_at >= mm) cnt_at -= mm;
    for (std::size_t g = 0; g < bps; ++g) {
      const std::uint64_t v = util::simd::extract(d, g * mm + i, len);
      util::simd::xor_wrapped(lead_row(g), band * mm, mm, lead_at, v, len);
      util::simd::xor_wrapped(cnt_row(g), band * mm, mm, cnt_at,
                              util::simd::bit_reverse(v) >> (64 - len), len);
    }
  }
}

bool ArrayCode::consistent_with(const util::BitMatrix& data) const {
  require_shape(data);
  Scratch<std::uint64_t, 128> syndrome(2 * words_);
  std::uint64_t* lead = syndrome.data();
  std::uint64_t* cnt = lead + words_;
  const std::size_t bps = blocks_per_side();
  for (std::size_t br = 0; br < bps; ++br) {
    band_syndrome(data, br, lead, cnt);
    for (std::size_t w = 0; w < words_; ++w) {
      if ((lead[w] | cnt[w]) != 0) return false;
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
    const DiagonalPair d = geometry_.diagonals(w.r % m(), w.c % m());
    const std::size_t lead_slot = (block * 2 + 0) * m() + d.leading;
    const std::size_t cnt_slot = (block * 2 + 1) * m() + d.counter;
    if (touched[lead_slot] || touched[cnt_slot]) return false;
    touched[lead_slot] = true;
    touched[cnt_slot] = true;
  }
  return true;
}

}  // namespace pimecc::ecc
