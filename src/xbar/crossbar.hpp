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
// This is the *word-parallel* engine: for kColumn orientation a parallel
// MAGIC operation executes all selected lanes at once with 64-bit word
// operations directly on the row vectors; for kRow orientation it makes one
// fused pass per selected lane with word offsets precomputed per operation.
// Precondition violations are counted via popcount, never per bit.  The
// original bit-serial engine is retained verbatim as a test oracle
// (oracle/reference_crossbar.hpp) and serves as the golden model in
// differential tests.
#pragma once

#include <cstddef>
#include <cstdint>
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

/// A single n_rows x n_cols memristive crossbar with MAGIC execution.
///
/// MAGIC preconditions are enforced as the physics dictates: an output cell
/// that was not initialized to LRS yields an undefined device result; the
/// simulator implements the conservative semantics out' = out AND NOR(in)
/// (an HRS output can never be driven back to LRS by a NOR) and reports the
/// violation count so tests can assert clean execution.
///
/// Validation is uniform across every external entry point: indices and
/// sizes are checked *before* any state or cycle-counter mutation, so a
/// throwing call leaves the crossbar untouched.
class Crossbar {
 public:
  Crossbar(std::size_t n_rows, std::size_t n_cols);

  [[nodiscard]] std::size_t rows() const noexcept { return mat_.rows(); }
  [[nodiscard]] std::size_t cols() const noexcept { return mat_.cols(); }

  // --- external (controller) access: counts kWrite/kRead cycles -----------
  /// Writes a full row image (size must equal cols()).
  void write_row(std::size_t r, const util::BitVector& data);
  /// Writes a full column image (size must equal rows()).
  void write_column(std::size_t c, const util::BitVector& data);
  /// Reads a row copy.
  [[nodiscard]] util::BitVector read_row(std::size_t r);
  /// Reads a column copy.
  [[nodiscard]] util::BitVector read_column(std::size_t c);
  /// Writes a single bit (counts one write cycle).
  void write_bit(std::size_t r, std::size_t c, bool value);
  /// Reads a single bit (counts one read cycle).
  [[nodiscard]] bool read_bit(std::size_t r, std::size_t c);

  // --- zero-cost inspection (test/golden-model access, no cycles) ---------
  [[nodiscard]] bool peek(std::size_t r, std::size_t c) const { return mat_.at(r, c); }
  void poke(std::size_t r, std::size_t c, bool v) { mat_.set(r, c, v); }
  [[nodiscard]] const util::BitMatrix& contents() const noexcept { return mat_; }
  [[nodiscard]] util::BitMatrix& contents_mutable() noexcept { return mat_; }

  // --- MAGIC stateful logic (1 cycle each) ---------------------------------
  /// Parallel initialization to LRS (logic 1) of cells at the given
  /// lines: for kRow orientation, initializes column `line` in every
  /// selected row; for kColumn, row `line` in every selected column.
  /// Multiple lines may be initialized in the same cycle (SIMPLER's batched
  /// init).  Empty `lanes` selects all lanes.
  void magic_init(Orientation o, std::span<const std::size_t> lines,
                  std::span<const std::size_t> lanes = {});

  /// Parallel MAGIC NOR.
  ///
  /// kRow: out(r, out_line) = NOR_i in(r, in_lines[i]) for every selected
  /// row r.  kColumn: out(out_line, c) = NOR_i in(in_lines[i], c) for every
  /// selected column c.  1-input NOR is MAGIC NOT.  Empty `lanes` selects
  /// all lanes; explicit lanes must be distinct (a physical lane cannot be
  /// driven twice in one cycle).  Output cells must have been magic_init'ed
  /// to LRS; violations are counted in the result (see class comment).
  OpResult magic_nor(Orientation o, std::span<const std::size_t> in_lines,
                     std::size_t out_line,
                     std::span<const std::size_t> lanes = {});

  /// Convenience single-input NOR (MAGIC NOT).
  OpResult magic_not(Orientation o, std::size_t in_line, std::size_t out_line,
                     std::span<const std::size_t> lanes = {});

  // --- cycle accounting ----------------------------------------------------
  [[nodiscard]] std::uint64_t cycles() const noexcept { return cycles_; }
  [[nodiscard]] std::uint64_t nor_ops() const noexcept { return nor_ops_; }
  [[nodiscard]] std::uint64_t init_cycles() const noexcept { return init_cycles_; }
  void reset_counters() noexcept;

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

  // --- per-row activation accounting (scenario-diversity workloads) --------
  /// How many times row r has been driven as a wordline since the last
  /// reset: controller row/bit accesses plus MAGIC operations whose gate
  /// lines are rows (kColumn orientation counts every in/out/init line).
  /// Operations that drive every wordline at once -- column accesses and
  /// kRow-orientation MAGIC over all lanes -- are tallied in a single
  /// broadcast counter instead of rows() per-row increments, keeping the
  /// hot path O(lines) per operation.  This is campaign-local
  /// observability feeding fault::DisturbanceModel and the
  /// activation-triggered scrub policies; it is deliberately NOT part of
  /// Counters, so checkpoint formats are unchanged and a restored machine
  /// starts its activation history fresh.
  [[nodiscard]] std::uint64_t row_activations(std::size_t r) const;
  /// Dense snapshot (broadcast + per-row extra), length rows().
  [[nodiscard]] std::vector<std::uint64_t> row_activation_snapshot() const;
  void reset_row_activations() noexcept;

 private:
  void check_line(Orientation o, std::size_t line, const char* what) const;
  void check_lane(Orientation o, std::size_t lane) const;
  [[nodiscard]] std::size_t lane_count(Orientation o) const noexcept {
    return o == Orientation::kRow ? rows() : cols();
  }
  /// Builds the column-lane selection mask into lane_mask_ (validating
  /// indices and, when required, distinctness) and returns it; returns the
  /// cached all-ones mask when `lanes` is empty.  kColumn orientation only
  /// -- the kRow engine never materializes a mask.
  const util::BitVector& col_lane_mask(std::span<const std::size_t> lanes,
                                       bool require_distinct);
  /// Validates lane indices and rejects duplicates (no-op for empty lanes);
  /// uses lane_mask_ as the seen-set scratch.
  void check_lanes_distinct(Orientation o, std::span<const std::size_t> lanes);

  util::BitMatrix mat_;
  std::uint64_t cycles_ = 0;
  std::uint64_t nor_ops_ = 0;
  std::uint64_t init_cycles_ = 0;
  std::uint64_t broadcast_activations_ = 0;     ///< all-wordline drives
  std::vector<std::uint64_t> row_activation_extra_;  ///< addressed drives

  // Scratch buffers reused across operations so the hot path is
  // allocation-free in steady state.
  /// Word offset + shift of one gate line, resolved once per operation.
  struct LineRef {
    std::size_t wi;
    unsigned shift;
  };

  util::BitVector lane_mask_;     ///< lane-selection mask for explicit subsets
  util::BitVector acc_;           ///< init batch mask (kRow magic_init)
  util::BitVector ones_cols_;     ///< all-ones over cols()
  std::vector<LineRef> line_refs_;  ///< per-input offsets (kRow fused path)
  std::vector<const std::uint64_t*> in_ptrs_;  ///< input row words (kColumn)
};

}  // namespace pimecc::xbar
