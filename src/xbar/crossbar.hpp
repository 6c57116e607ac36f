// pimecc -- xbar/crossbar.hpp
//
// Functional + cycle-counting model of a single memristive crossbar array
// executing MAGIC stateful logic (paper Section II-A, Figure 1).
//
// The model is *logical*: each memristor is one bit (LRS=1/HRS=0).  Analog
// non-idealities are out of scope here; soft errors are injected by
// src/fault on top of this state.  Every mutating entry point advances the
// cycle counter exactly like the paper's latency accounting: one cycle per
// parallel NOR, one cycle per batched initialization.
//
// Every MAGIC operation is all-lane, as the paper's throughput argument
// has it: one gate runs in every row (kRow) or every column (kColumn) at
// once.  This is the *word-parallel* engine: a kColumn operation runs
// with 64-bit word operations directly on the row vectors; a single kRow
// operation makes one fused pass over the rows with word offsets
// precomputed per operation, which can also emit the output column's old
// XOR new delta for the protected machine's check-bit update.  A whole
// kRow program (run_rows) is bit-sliced instead: 64 rows at a time are
// transposed into per-column words, every op runs on those words (several
// tiles per op at the wide dispatch levels), and the tile is transposed
// back, so lanes become adjacent bits as in the kColumn path; column
// groups that only inits touch stay in row space.
// The same tile pass can do a program's I/O: the input rows' words, once
// transposed, are the input columns' words, and the output columns' words,
// transposed, are the output rows' words (RowIo).
// Precondition violations are counted via popcount, never per bit.  The
// original bit-serial engine is retained verbatim as a test oracle
// (oracle/reference_crossbar.hpp) and serves as the golden model in
// differential tests.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "util/bitmatrix.hpp"
#include "util/bitvector.hpp"
#include "xbar/magic.hpp"

namespace pimecc::xbar {

/// Result of one parallel MAGIC operation.
struct OpResult {
  std::size_t lanes = 0;          ///< rows (columns) the gate executed in
  std::size_t violations = 0;     ///< output cells that were not LRS-initialized
};

/// One op of a row-orientation program (Crossbar::run_rows): a
/// batched init of the distinct columns `lines` (a line cannot be driven
/// twice in one cycle), or a MAGIC NOR of the input columns `lines` into
/// column `out`.  Column indices are 32-bit, as a mapped program's cells
/// are, so a program's op list can point into its cells.
struct RowOp {
  enum class Kind : std::uint8_t { kInit, kNor };
  Kind kind = Kind::kNor;
  std::uint32_t out = 0;  ///< kNor only
  std::span<const std::uint32_t> lines;
};

/// The I/O a row program (Crossbar::run_rows) does inside its tile pass.
/// Before the ops, row r takes inputs(r, i) in column input_cols[i], 1 in
/// every one_cols column and 0 in every zero_cols column; after them,
/// outputs(r, j) takes row r's column output_cols[j].  The written columns
/// (inputs and constants) must be distinct; output columns may repeat and
/// may be written columns.  `inputs` is rows() x input_cols.size() and
/// `outputs` rows() x output_cols.size(); either may be null when its
/// column list is empty.
struct RowIo {
  std::span<const std::uint32_t> input_cols;
  const util::BitMatrix* inputs = nullptr;
  std::span<const std::uint32_t> one_cols;
  std::span<const std::uint32_t> zero_cols;
  std::span<const std::uint32_t> output_cols;
  util::BitMatrix* outputs = nullptr;

  [[nodiscard]] bool empty() const noexcept {
    return input_cols.empty() && one_cols.empty() && zero_cols.empty() &&
           output_cols.empty();
  }
};

/// The lines one check has seen, as a bitmap: on the stack up to 4,096
/// lines (every design point the serving daemon accepts), so validating a
/// request allocates nothing; on the heap beyond.
class LineSet {
 public:
  explicit LineSet(std::size_t bound) {
    const std::size_t words = (bound + 63) / 64;
    if (bound > kLocalBits) {
      heap_.assign(words, 0);
      bits_ = heap_.data();
    } else {
      std::fill_n(local_.data(), words, 0);
    }
  }
  LineSet(const LineSet&) = delete;
  LineSet& operator=(const LineSet&) = delete;

  /// Adds `line` (below the bound); false if it was already in the set.
  bool insert(std::size_t line) noexcept {
    const std::uint64_t bit = std::uint64_t{1} << (line % 64);
    std::uint64_t& word = bits_[line / 64];
    const bool fresh = (word & bit) == 0;
    word |= bit;
    return fresh;
  }

 private:
  static constexpr std::size_t kLocalBits = 4096;
  std::array<std::uint64_t, kLocalBits / 64> local_;  ///< words below the bound
  std::vector<std::uint64_t> heap_;
  std::uint64_t* bits_ = local_.data();
};

/// The one validation of a row program (`ops` and its `io`) for a
/// `rows` x `cols` crossbar, op by op and then the I/O: an init's columns
/// in range and pairwise distinct; a NOR's inputs and output in range, at
/// least one input, and no input equal to the output; the written I/O
/// columns (inputs, then ones, then zeros) in range and pairwise distinct,
/// the output columns in range, and each matrix rows x its column count
/// (or null with no columns).  Throws std::out_of_range for a column out of
/// range and std::invalid_argument for the rest.
void check_row_program(std::span<const RowOp> ops, const RowIo& io,
                       std::size_t rows, std::size_t cols);

/// Receives a row program's net row delta one tile at a time, in row order:
/// rows [row0, row0 + count), row row0 + i's old XOR new words at
/// delta + i * words (words = the crossbar's words per row).
using RowDeltaSink = std::function<void(
    std::size_t row0, std::size_t count, const util::BitVector::Word* delta)>;

/// A single n_rows x n_cols memristive crossbar with MAGIC execution.  A
/// MAGIC op drives every lane; the controller's only access is a row write
/// (the protected machine's write path), and tests and I/O passes use the
/// cycle-free peek/poke/contents.
///
/// MAGIC preconditions are enforced as the physics dictates: an output cell
/// that was not initialized to LRS yields an undefined device result; the
/// simulator implements the conservative semantics out' = out AND NOR(in)
/// (an HRS output can never be driven back to LRS by a NOR) and reports the
/// violation count so tests can assert clean execution.
///
/// Validation is uniform across every external entry point: indices and
/// sizes are checked *before* any state or cycle-counter mutation, so a
/// throwing call leaves the crossbar untouched.  magic_nor checks its lines
/// in range, then that it has inputs and none is its output; a row program
/// is checked whole, once, by check_row_program, which run_rows calls
/// first and the protected machines rely on.
class Crossbar {
 public:
  Crossbar(std::size_t n_rows, std::size_t n_cols);

  [[nodiscard]] std::size_t rows() const noexcept { return mat_.rows(); }
  [[nodiscard]] std::size_t cols() const noexcept { return mat_.cols(); }

  // --- external (controller) access: counts one write cycle ----------------
  /// Writes a full row image (size must equal cols()).
  void write_row(std::size_t r, const util::BitVector& data);

  // --- zero-cost inspection (test/golden-model access, no cycles) ---------
  [[nodiscard]] bool peek(std::size_t r, std::size_t c) const { return mat_.at(r, c); }
  void poke(std::size_t r, std::size_t c, bool v) { mat_.set(r, c, v); }
  [[nodiscard]] const util::BitMatrix& contents() const noexcept { return mat_; }
  [[nodiscard]] util::BitMatrix& contents_mutable() noexcept { return mat_; }

  // --- MAGIC stateful logic (1 cycle each, every lane) ---------------------
  /// Parallel initialization to LRS (logic 1) of cells at the given
  /// lines: for kRow orientation, initializes column `line` in every row;
  /// for kColumn, row `line` in every column.  Multiple lines may be
  /// initialized in the same cycle (SIMPLER's batched init).
  void magic_init(Orientation o, std::span<const std::size_t> lines);

  /// Parallel MAGIC NOR.
  ///
  /// kRow: out(r, out_line) = NOR_i in(r, in_lines[i]) for every row r.
  /// kColumn: out(out_line, c) = NOR_i in(in_lines[i], c) for every column
  /// c.  1-input NOR is MAGIC NOT.  Output cells must have been
  /// magic_init'ed to LRS; violations are counted in the result (see class
  /// comment).
  ///
  /// kRow only: a non-null `delta` is resized to rows() and receives bit
  /// r = old XOR new of out(r, out_line), computed in the same lane pass.
  /// A non-null `delta` with kColumn throws std::invalid_argument before
  /// any mutation.
  OpResult magic_nor(Orientation o, std::span<const std::size_t> in_lines,
                     std::size_t out_line, util::BitVector* delta = nullptr);

  /// Runs `ops` in order in every row -- the same contents, violation count and
  /// cycle counters as issuing each op alone through magic_init / magic_nor
  /// (kRow) -- and returns the summed violations.  Bit-sliced, with the work
  /// scaled to the columns the program touches:
  ///  * Row-space inits.  A 64-column word group that no NOR and no I/O
  ///    touches is never transposed: its inits are one OR mask per row word
  ///    (row |= mask, delta ~row & mask), applied as each tile goes out.
  ///  * Tile groups.  Each 64-row tile's other touched groups are
  ///    transposed (simd transpose64) into per-column words, and back.
  ///  * A T-tile op walk.  The op list, resolved once per call into a
  ///    compact stream, runs on T tiles at once (simd row_walk: T = 8 at
  ///    AVX-512, 4 at AVX2, 1 at scalar): a NOR is out &= ~OR(ins), its
  ///    violations popcount(~out & valid rows).
  /// A non-empty `sink` receives each tile's old XOR new rows as the tile
  /// goes out, so its scratch stays one tile of rows.
  ///
  /// A non-empty `io` (RowIo) is done in the same pass: the input tile is
  /// transposed straight into the input columns' words and the constant
  /// columns' words become all-ones or zero before the ops, and the output
  /// columns' words are transposed straight into `outputs` after them.  The
  /// I/O columns join the touched word groups, so the sink's delta covers the
  /// writes too.  Like poke/peek, the I/O itself costs no cycles; a caller that
  /// models controller writes charges them (charge_row_writes).  With an empty
  /// `io` and no ops nothing happens.
  ///
  /// The program and its I/O are validated whole (check_row_program)
  /// before any state changes, so a bad op last rejects the program.
  std::uint64_t run_rows(std::span<const RowOp> ops,
                         const RowDeltaSink& sink = {}, const RowIo& io = {});

  /// Charges one controller row write to every row -- rows() cycles, as
  /// write_row on each row -- without touching the contents: the cost of
  /// the rows a run_rows I/O pass wrote, for a caller that models them as
  /// controller writes.
  void charge_row_writes() noexcept { cycles_ += rows(); }

  // --- cycle accounting ----------------------------------------------------
  [[nodiscard]] std::uint64_t cycles() const noexcept { return cycles_; }
  [[nodiscard]] std::uint64_t nor_ops() const noexcept { return nor_ops_; }
  [[nodiscard]] std::uint64_t init_cycles() const noexcept { return init_cycles_; }

  /// Counter snapshot for the checkpoint layer: PimMachine derives its
  /// MEM-cycle accounting from cycles(), so a restored machine must resume
  /// from the saved counter values or its post-resume accounting would
  /// diverge from an uninterrupted run.
  struct Counters {
    std::uint64_t cycles = 0;
    std::uint64_t nor_ops = 0;
    std::uint64_t init_cycles = 0;
    bool operator==(const Counters&) const noexcept = default;
  };
  [[nodiscard]] Counters counters() const noexcept {
    return {cycles_, nor_ops_, init_cycles_};
  }
  void restore_counters(const Counters& counters) noexcept {
    cycles_ = counters.cycles;
    nor_ops_ = counters.nor_ops;
    init_cycles_ = counters.init_cycles;
  }

 private:
  void check_line(Orientation o, std::size_t line, const char* what) const;

  util::BitMatrix mat_;
  std::uint64_t cycles_ = 0;
  std::uint64_t nor_ops_ = 0;
  std::uint64_t init_cycles_ = 0;

  // Scratch buffers reused across operations so the hot path is
  // allocation-free in steady state.
  /// Word offset + shift of one gate line, resolved once per operation.
  struct LineRef {
    std::size_t wi;
    unsigned shift;
  };

  util::BitVector acc_;           ///< init batch mask (kRow magic_init)
  util::BitVector ones_cols_;     ///< all-ones over cols()
  std::vector<LineRef> line_refs_;  ///< per-input offsets (kRow fused path)
  std::vector<const std::uint64_t*> in_ptrs_;  ///< input row words (kColumn)

  // run_rows' scratch.
  std::vector<std::uint32_t> group_slot_;  ///< word group -> slot, or a marker
  std::vector<std::size_t> groups_;        ///< tile word groups, ascending
  std::vector<std::uint64_t> row_init_;    ///< init-only groups' init masks
  std::vector<std::uint32_t> walk_;        ///< the op stream (row_walk)
  std::vector<std::uint64_t> tile_cols_;   ///< 64 column words per slot and tile
  std::vector<std::uint64_t> tile_block_;  ///< one tile's columns, when tiles > 1
  std::vector<std::uint64_t> tile_delta_;  ///< 64 delta rows of one tile
  std::vector<std::uint64_t> io_block_;    ///< one 64 x 64 I/O transpose
};

}  // namespace pimecc::xbar
