#include "xbar/crossbar.hpp"

#include <algorithm>
#include <array>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>

#include "util/simd.hpp"

namespace pimecc::xbar {

void check_row_program(std::span<const RowOp> ops, const RowIo& io,
                       std::size_t rows, std::size_t cols) {
  const auto require_column = [cols](std::uint32_t line, const char* what) {
    if (line >= cols) {
      throw std::out_of_range(std::string("row program: ") + what +
                              " column out of range");
    }
  };
  for (const RowOp& op : ops) {
    if (op.kind == RowOp::Kind::kInit) {
      LineSet seen(cols);
      for (const std::uint32_t line : op.lines) {
        require_column(line, "init");
        if (!seen.insert(line)) {
          throw std::invalid_argument("row program: duplicate init column");
        }
      }
      continue;
    }
    for (const std::uint32_t line : op.lines) require_column(line, "input");
    require_column(op.out, "output");
    if (op.lines.empty()) {
      throw std::invalid_argument("row program: a NOR needs at least one input");
    }
    if (std::find(op.lines.begin(), op.lines.end(), op.out) != op.lines.end()) {
      throw std::invalid_argument("row program: output column overlaps an input");
    }
  }
  LineSet written(cols);
  for (const auto list : {io.input_cols, io.one_cols, io.zero_cols}) {
    for (const std::uint32_t line : list) {
      require_column(line, "written");
      if (!written.insert(line)) {
        throw std::invalid_argument("row program: a column is written twice");
      }
    }
  }
  for (const std::uint32_t line : io.output_cols) require_column(line, "read");
  const auto shape_ok = [rows](const util::BitMatrix* m, std::size_t width) {
    return m == nullptr ? width == 0 : m->rows() == rows && m->cols() == width;
  };
  if (!shape_ok(io.inputs, io.input_cols.size()) ||
      !shape_ok(io.outputs, io.output_cols.size())) {
    throw std::invalid_argument(
        "row program: I/O matrices must be rows x their column counts");
  }
}

Crossbar::Crossbar(std::size_t n_rows, std::size_t n_cols) : mat_(n_rows, n_cols) {
  if (n_rows == 0 || n_cols == 0) {
    throw std::invalid_argument("Crossbar: dimensions must be positive");
  }
  ones_cols_ = util::BitVector(n_cols, true);
  row_activation_extra_.assign(n_rows, 0);
}

void Crossbar::write_row(std::size_t r, const util::BitVector& data) {
  if (r >= rows()) {
    throw std::out_of_range("Crossbar::write_row: row out of range");
  }
  if (data.size() != cols()) {
    throw std::invalid_argument("Crossbar::write_row: size mismatch");
  }
  mat_.row(r) = data;
  ++row_activation_extra_[r];
  ++cycles_;
}

void Crossbar::write_column(std::size_t c, const util::BitVector& data) {
  if (c >= cols()) {
    throw std::out_of_range("Crossbar::write_column: column out of range");
  }
  if (data.size() != rows()) {
    throw std::invalid_argument("Crossbar::write_column: size mismatch");
  }
  mat_.set_column(c, data);
  ++broadcast_activations_;
  ++cycles_;
}

util::BitVector Crossbar::read_row(std::size_t r) {
  if (r >= rows()) {
    throw std::out_of_range("Crossbar::read_row: row out of range");
  }
  ++row_activation_extra_[r];
  ++cycles_;
  return mat_.row(r);
}

util::BitVector Crossbar::read_column(std::size_t c) {
  if (c >= cols()) {
    throw std::out_of_range("Crossbar::read_column: column out of range");
  }
  ++broadcast_activations_;
  ++cycles_;
  return mat_.column(c);
}

void Crossbar::write_bit(std::size_t r, std::size_t c, bool value) {
  if (r >= rows() || c >= cols()) {
    throw std::out_of_range("Crossbar::write_bit: index out of range");
  }
  mat_.set(r, c, value);
  ++row_activation_extra_[r];
  ++cycles_;
}

bool Crossbar::read_bit(std::size_t r, std::size_t c) {
  if (r >= rows() || c >= cols()) {
    throw std::out_of_range("Crossbar::read_bit: index out of range");
  }
  ++row_activation_extra_[r];
  ++cycles_;
  return mat_.get(r, c);
}

void Crossbar::check_line(Orientation o, std::size_t line, const char* what) const {
  const std::size_t limit = o == Orientation::kRow ? cols() : rows();
  if (line >= limit) {
    throw std::out_of_range(std::string("Crossbar: ") + what + " line out of range");
  }
}

void Crossbar::check_lane(Orientation o, std::size_t lane) const {
  if (lane >= lane_count(o)) {
    throw std::out_of_range("Crossbar: lane out of range");
  }
}

const util::BitVector& Crossbar::col_lane_mask(std::span<const std::size_t> lanes) {
  if (lanes.empty()) return ones_cols_;
  lane_mask_.resize(cols());
  lane_mask_.fill(false);
  for (const std::size_t lane : lanes) {
    check_lane(Orientation::kColumn, lane);
    lane_mask_.set(lane, true);
  }
  return lane_mask_;
}

void Crossbar::check_lanes_distinct(Orientation o,
                                    std::span<const std::size_t> lanes) {
  if (lanes.empty()) return;
  lane_mask_.resize(lane_count(o));
  lane_mask_.fill(false);
  for (const std::size_t lane : lanes) {
    check_lane(o, lane);
    if (lane_mask_.get(lane)) {
      throw std::invalid_argument("Crossbar: duplicate lane");
    }
    lane_mask_.set(lane, true);
  }
}

void Crossbar::magic_init(Orientation o, std::span<const std::size_t> lines,
                          std::span<const std::size_t> lanes) {
  for (const std::size_t line : lines) check_line(o, line, "init");
  for (const std::size_t lane : lanes) check_lane(o, lane);

  if (o == Orientation::kRow) {
    // Lines are columns.  For wide batches, OR one column mask into each
    // selected row (cols/64 word ops per row); for narrow batches a single
    // word-OR per (row, line) touches far less memory.
    const std::span<util::BitVector> row_store = mat_.rows_span();
    if (lines.size() > mat_.cols() / util::BitVector::kWordBits) {
      acc_.resize(cols());
      acc_.fill(false);
      for (const std::size_t line : lines) acc_.set(line, true);
      if (lanes.empty()) {
        for (util::BitVector& row : row_store) row |= acc_;
      } else {
        for (const std::size_t lane : lanes) row_store[lane] |= acc_;
      }
    } else {
      for (const std::size_t line : lines) {
        const std::size_t wi = line / util::BitVector::kWordBits;
        const util::BitVector::Word bit = util::BitVector::Word{1}
                                          << (line % util::BitVector::kWordBits);
        if (lanes.empty()) {
          for (util::BitVector& row : row_store) row.words_mutable()[wi] |= bit;
        } else {
          for (const std::size_t lane : lanes) {
            row_store[lane].words_mutable()[wi] |= bit;
          }
        }
      }
    }
  } else {
    // Lines are rows: OR the lane (column) mask into each selected row.
    const util::BitVector& mask = col_lane_mask(lanes);
    for (const std::size_t line : lines) mat_.row(line) |= mask;
  }
  // Activation accounting: kColumn drives the gate-line wordlines; kRow
  // drives the selected rows' wordlines (all of them when lanes is empty).
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

OpResult Crossbar::magic_nor(Orientation o, std::span<const std::size_t> in_lines,
                             std::size_t out_line,
                             std::span<const std::size_t> lanes,
                             util::BitVector* delta) {
  for (const std::size_t line : in_lines) check_line(o, line, "input");
  check_line(o, out_line, "output");
  check_lanes_distinct(o, lanes);  // leaves lane_mask_ the kColumn lane mask
  if (in_lines.empty()) {
    throw std::invalid_argument("Crossbar::magic_nor: needs at least one input");
  }
  if (std::find(in_lines.begin(), in_lines.end(), out_line) != in_lines.end()) {
    throw std::invalid_argument("Crossbar::magic_nor: output overlaps an input");
  }
  if (delta != nullptr && o != Orientation::kRow) {
    throw std::invalid_argument(
        "Crossbar::magic_nor: a delta is only emitted for kRow orientation");
  }

  OpResult result;
  result.lanes = lanes.empty() ? lane_count(o) : lanes.size();
  if (o == Orientation::kColumn) {
    const util::BitVector& mask = lanes.empty() ? ones_cols_ : lane_mask_;
    // Lanes are columns, lines are rows: one fused, dispatched
    // (scalar/AVX2/AVX-512) pass over the row words computes the physics
    //   out' = out AND NOT(mask AND OR(ins))   [= out AND NOR(ins) in lanes]
    // and the violation count popcount(mask AND NOT out) together, instead
    // of the former copy/OR/invert/count/AND/assign BitVector chain.  The
    // mask's padding words are zero (BitVector invariant), so the output
    // row's padding is preserved verbatim.
    in_ptrs_.clear();
    for (const std::size_t line : in_lines) {
      in_ptrs_.push_back(mat_.row(line).words().data());
    }
    util::BitVector& out = mat_.row(out_line);
    result.violations = util::simd::kernels().nor_column_pass(
        in_ptrs_.data(), in_ptrs_.size(), mask.words().data(),
        out.words_mutable().data(), out.word_count());
  } else {
    // Lanes are rows, lines are columns: one fused pass per selected row --
    // read the input column bits and the output bit from that row's words,
    // apply the physics, write the output bit back, and (when the caller
    // asks) pack old XOR new of the output cell into bit r of `delta`.  The
    // output changes exactly when it was LRS and some input is 1, so the
    // delta bit is out_was_lrs & any -- the protected machine's check-bit
    // update needs no column snapshot.  A single row touch per lane instead
    // of separate gather/scatter column walks.  Word offsets and shifts are
    // resolved once, outside the lane loop; fan-in 1 and 2 (NOT and the
    // dominant NOR shape) get branch-free specializations.  A single op
    // stays scalar at every SIMD dispatch level: each lane reads/writes a
    // handful of scattered single words across independent per-row
    // allocations, and one op has too little work to pay for transposing
    // them.  A program of ops does pay for it: run_rows transposes once per
    // 64-row tile and runs every op on words whose bits are lanes.
    using Word = util::BitVector::Word;
    constexpr std::size_t kWordBits = util::BitVector::kWordBits;
    Word* delta_words = nullptr;
    if (delta != nullptr) {
      delta->resize(rows());
      delta->fill(false);
      delta_words = delta->words_mutable().data();
    }
    const std::span<util::BitVector> row_store = mat_.rows_span();
    const std::size_t out_wi = out_line / kWordBits;
    const unsigned out_shift = static_cast<unsigned>(out_line % kWordBits);
    const Word out_bit_mask = Word{1} << out_shift;
    line_refs_.clear();
    for (const std::size_t line : in_lines) {
      line_refs_.push_back(
          {line / kWordBits, static_cast<unsigned>(line % kWordBits)});
    }
    std::size_t violations = 0;
    // The one lane loop.  Whether lanes are explicit and whether a delta is
    // emitted are compile-time switches, so neither costs a per-row branch.
    const std::size_t lane_total = result.lanes;
    auto lane_pass = [&](auto explicit_lanes, auto emit_delta, auto&& any_of) {
      for (std::size_t i = 0; i < lane_total; ++i) {
        const std::size_t r = explicit_lanes ? lanes[i] : i;
        const std::span<Word> words = row_store[r].words_mutable();
        const Word any = any_of(words);
        const Word out_was_lrs = (words[out_wi] >> out_shift) & 1u;
        violations += static_cast<std::size_t>(out_was_lrs ^ 1u);
        const Word driven = out_was_lrs & (any ^ 1u);
        words[out_wi] = (words[out_wi] & ~out_bit_mask) | (driven << out_shift);
        if constexpr (emit_delta) {
          delta_words[r / kWordBits] |= (out_was_lrs & any) << (r % kWordBits);
        }
      }
    };
    auto run_lanes = [&](auto&& any_of) {
      constexpr std::true_type yes;
      constexpr std::false_type no;
      if (lanes.empty()) {
        delta_words ? lane_pass(no, yes, any_of) : lane_pass(no, no, any_of);
      } else {
        delta_words ? lane_pass(yes, yes, any_of) : lane_pass(yes, no, any_of);
      }
    };
    if (line_refs_.size() == 1) {
      const LineRef a = line_refs_[0];
      run_lanes([a](std::span<const Word> words) -> Word {
        return (words[a.wi] >> a.shift) & 1u;
      });
    } else if (line_refs_.size() == 2) {
      const LineRef a = line_refs_[0];
      const LineRef b = line_refs_[1];
      run_lanes([a, b](std::span<const Word> words) -> Word {
        return ((words[a.wi] >> a.shift) | (words[b.wi] >> b.shift)) & 1u;
      });
    } else {
      run_lanes([this](std::span<const Word> words) -> Word {
        Word any = 0;
        for (const LineRef& in : line_refs_) any |= words[in.wi] >> in.shift;
        return any & 1u;
      });
    }
    result.violations = violations;
  }
  // Activation accounting (see magic_init): kColumn's gate lines are the
  // driven wordlines; kRow drives the selected lane rows.
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

std::uint64_t Crossbar::run_rows(std::span<const RowOp> ops,
                                 const RowDeltaSink& sink, const RowIo& io) {
  check_row_program(ops, io, rows(), cols());
  const bool has_io = !io.empty();
  if (ops.empty() && !has_io) return 0;

  using Word = util::BitVector::Word;
  constexpr std::size_t kWordBits = util::BitVector::kWordBits;
  constexpr std::uint32_t kNoSlot = std::numeric_limits<std::uint32_t>::max();
  const std::size_t words = mat_.row(0).word_count();

  // A 64-column word group that a NOR or the I/O touches is a tile group:
  // it gets a slot of 64 column words in a tile's scratch (ascending), so
  // column c lives at word slot(c / 64) * 64 + c % 64.  A group that only
  // inits touch stays in row space: its inits are one OR mask per row.
  group_slot_.assign(words, kNoSlot);
  std::uint64_t nors = 0;
  for (const RowOp& op : ops) {
    if (op.kind == RowOp::Kind::kInit) continue;
    for (const std::uint32_t line : op.lines) group_slot_[line / kWordBits] = 0;
    group_slot_[op.out / kWordBits] = 0;
    ++nors;
  }
  for (const auto list : {io.input_cols, io.one_cols, io.zero_cols, io.output_cols}) {
    for (const std::uint32_t line : list) group_slot_[line / kWordBits] = 0;
  }
  groups_.clear();
  for (std::size_t w = 0; w < words; ++w) {
    if (group_slot_[w] == kNoSlot) continue;
    group_slot_[w] = static_cast<std::uint32_t>(groups_.size());
    groups_.push_back(w);
  }
  // The op stream (simd::KernelTable::row_walk): every op's tile-group
  // lines resolved to tile columns once, not once per tile.  An init's
  // row-space lines go to row_init_ instead, and an init with no other
  // line leaves no op.
  const std::uint32_t* const slot_of = group_slot_.data();
  const auto column = [slot_of](std::size_t line) {
    return static_cast<std::uint32_t>(slot_of[line / kWordBits] * kWordBits +
                                      line % kWordBits);
  };
  row_init_.assign(words, 0);
  walk_.clear();
  for (const RowOp& op : ops) {
    const std::size_t head = walk_.size();
    walk_.push_back(0);
    if (op.kind == RowOp::Kind::kNor) {
      for (const std::uint32_t line : op.lines) walk_.push_back(column(line));
      walk_.push_back(column(op.out));
      walk_[head] = static_cast<std::uint32_t>(op.lines.size()) << 1 | 1u;
      continue;
    }
    for (const std::uint32_t line : op.lines) {
      if (slot_of[line / kWordBits] == kNoSlot) {
        row_init_[line / kWordBits] |= Word{1} << (line % kWordBits);
      } else {
        walk_.push_back(column(line));
      }
    }
    const auto k = static_cast<std::uint32_t>(walk_.size() - head - 1);
    if (k == 0) {
      walk_.pop_back();
    } else {
      walk_[head] = k << 1;
    }
  }

  // One walk runs `tiles` 64-row tiles: column c of tile t is word
  // c * tiles + t of the 64-byte aligned `cols`.  Each tile goes in and
  // out through its own `block` (64 words per slot), which is `cols` itself
  // when the walk takes one tile.  Between the two, `cols` is cut into
  // chunks of `tiles` columns x `tiles` tiles: a tile's block moves in and
  // out as one `tiles`-word run per chunk (its columns in order), and a
  // word transpose of each chunk turns the runs into the walk's layout and
  // back, so no copy strides word by word across the whole scratch.
  const util::simd::KernelTable& kernels = util::simd::kernels();
  const std::size_t tiles = kernels.walk_tiles;
  const std::size_t tile_words = groups_.size() * kWordBits;
  tile_cols_.resize(tile_words * tiles + 7);
  Word* const cols = reinterpret_cast<Word*>(
      (reinterpret_cast<std::uintptr_t>(tile_cols_.data()) + 63) &
      ~std::uintptr_t{63});
  if (tiles > 1) tile_block_.resize(tile_words);
  Word* const block = tiles > 1 ? tile_block_.data() : cols;
  tile_delta_.resize(kWordBits * words);
  if (has_io) io_block_.resize(kWordBits);
  const std::span<util::BitVector> row_store = mat_.rows_span();

  // Rows [row0, row0 + count) into `block`: slot s holds rows row0.. of
  // group s (zero past the last row), then its columns, with the inputs
  // and constants written in.
  const auto tile_in = [&](std::size_t row0, std::size_t count, Word valid) {
    if (count < kWordBits) std::fill_n(block, tile_words, 0);
    for (std::size_t i = 0; i < count; ++i) {
      const std::span<const Word> row = row_store[row0 + i].words();
      for (std::size_t s = 0; s < groups_.size(); ++s) {
        block[s * kWordBits + i] = row[groups_[s]];
      }
    }
    for (std::size_t s = 0; s < groups_.size(); ++s) {
      kernels.transpose64(block + s * kWordBits);
    }
    // Inputs: each 64-input group of the tile's input rows, transposed, is
    // 64 input column words.
    Word* const in = io_block_.data();
    for (std::size_t g = 0; g * kWordBits < io.input_cols.size(); ++g) {
      const std::span<const util::BitVector> in_rows = io.inputs->rows_span();
      std::fill_n(in + count, kWordBits - count, 0);
      for (std::size_t i = 0; i < count; ++i) {
        in[i] = in_rows[row0 + i].words()[g];
      }
      kernels.transpose64(in);
      const std::size_t width =
          std::min(kWordBits, io.input_cols.size() - g * kWordBits);
      for (std::size_t j = 0; j < width; ++j) {
        block[column(io.input_cols[g * kWordBits + j])] = in[j];
      }
    }
    for (const std::uint32_t line : io.one_cols) block[column(line)] = valid;
    for (const std::uint32_t line : io.zero_cols) block[column(line)] = 0;
  };
  // `block` back to rows [row0, row0 + count): the output columns into
  // `outputs`, the tile groups transposed back, the row-space inits ORed
  // in (row_init_ is zero outside the row-space groups, so one pass over
  // every word does it), and old XOR new to the sink.
  const auto tile_out = [&](std::size_t row0, std::size_t count) {
    // Outputs: 64 output column words, transposed, are the tile's rows of
    // one 64-output word of `outputs` (bits past the last output zero).
    Word* const out = io_block_.data();
    for (std::size_t h = 0; h * kWordBits < io.output_cols.size(); ++h) {
      const std::span<util::BitVector> out_rows = io.outputs->rows_span();
      const std::size_t width =
          std::min(kWordBits, io.output_cols.size() - h * kWordBits);
      for (std::size_t j = 0; j < width; ++j) {
        out[j] = block[column(io.output_cols[h * kWordBits + j])];
      }
      std::fill_n(out + width, kWordBits - width, 0);
      kernels.transpose64(out);
      for (std::size_t i = 0; i < count; ++i) {
        out_rows[row0 + i].words_mutable()[h] = out[i];
      }
    }
    for (std::size_t s = 0; s < groups_.size(); ++s) {
      kernels.transpose64(block + s * kWordBits);
    }
    const Word* const init = row_init_.data();
    for (std::size_t i = 0; i < count; ++i) {
      Word* const row = row_store[row0 + i].words_mutable().data();
      Word* const delta = tile_delta_.data() + i * words;
      for (std::size_t w = 0; w < words; ++w) {
        delta[w] = ~row[w] & init[w];
        row[w] |= init[w];
      }
      for (std::size_t s = 0; s < groups_.size(); ++s) {
        const std::size_t w = groups_[s];
        const Word now = block[s * kWordBits + i];
        delta[w] = row[w] ^ now;
        row[w] = now;
      }
    }
    if (sink) sink(row0, count, tile_delta_.data());
  };

  const auto transpose_chunks = [&] {
    for (Word* chunk = cols; tiles > 1 && chunk != cols + tile_words * tiles;
         chunk += tiles * tiles) {
      for (std::size_t i = 0; i < tiles; ++i) {
        for (std::size_t j = i + 1; j < tiles; ++j) {
          std::swap(chunk[i * tiles + j], chunk[j * tiles + i]);
        }
      }
    }
  };

  std::array<Word, util::simd::kMaxWalkTiles> valid{};
  std::uint64_t violations = 0;
  for (std::size_t row0 = 0; row0 < rows(); row0 += tiles * kWordBits) {
    const auto rows_of = [&](std::size_t t) {
      const std::size_t first = row0 + t * kWordBits;
      return first < rows() ? std::min(kWordBits, rows() - first) : 0;
    };
    for (std::size_t t = 0; t < tiles; ++t) {
      valid[t] = util::simd::low_mask(rows_of(t));
      if (valid[t] == 0) continue;
      tile_in(row0 + t * kWordBits, rows_of(t), valid[t]);
      for (std::size_t c = 0; tiles > 1 && c < tile_words; c += tiles) {
        std::copy_n(block + c, tiles, cols + c * tiles + t * tiles);
      }
    }
    transpose_chunks();
    violations += kernels.row_walk(walk_.data(), walk_.size(), cols, valid.data());
    transpose_chunks();
    for (std::size_t t = 0; t < tiles && valid[t] != 0; ++t) {
      for (std::size_t c = 0; tiles > 1 && c < tile_words; c += tiles) {
        std::copy_n(cols + c * tiles + t * tiles, tiles, block + c);
      }
      tile_out(row0 + t * kWordBits, rows_of(t));
    }
  }
  // Each op is one all-lane cycle, exactly as issued alone.
  cycles_ += ops.size();
  nor_ops_ += nors;
  init_cycles_ += ops.size() - nors;
  broadcast_activations_ += ops.size();
  return violations;
}

void Crossbar::charge_row_writes() noexcept {
  // Every wordline once: the broadcast counter, as for an all-lane op.
  ++broadcast_activations_;
  cycles_ += rows();
}

OpResult Crossbar::magic_not(Orientation o, std::size_t in_line, std::size_t out_line,
                             std::span<const std::size_t> lanes) {
  const std::size_t ins[1] = {in_line};
  return magic_nor(o, ins, out_line, lanes);
}

void Crossbar::reset_counters() noexcept {
  cycles_ = 0;
  nor_ops_ = 0;
  init_cycles_ = 0;
}

std::uint64_t Crossbar::row_activations(std::size_t r) const {
  if (r >= rows()) {
    throw std::out_of_range("Crossbar::row_activations: row out of range");
  }
  return broadcast_activations_ + row_activation_extra_[r];
}

std::vector<std::uint64_t> Crossbar::row_activation_snapshot() const {
  std::vector<std::uint64_t> snapshot(row_activation_extra_);
  for (std::uint64_t& count : snapshot) count += broadcast_activations_;
  return snapshot;
}

void Crossbar::reset_row_activations() noexcept {
  broadcast_activations_ = 0;
  std::fill(row_activation_extra_.begin(), row_activation_extra_.end(), 0);
}

}  // namespace pimecc::xbar
