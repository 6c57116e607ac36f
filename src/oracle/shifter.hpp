// pimecc -- oracle/shifter.hpp
//
// Functional model of the barrel-shifter bank between MEM and CMEM (paper
// Section IV-B, Figure 5).
//
// Physical diagonal wires are infeasible (memristors have two terminals),
// so the design reroutes a whole wordline/bitline through per-block
// m-shifters: the n incoming lines are split into n/m groups of m (one per
// block spanned by the line) and each group is rotated by the line's index
// mod m.  After rotation, output position d of every group carries the bit
// lying on diagonal d of its block -- the Figure 2(c) shift pattern.
//
// The shifters are pass transistors only: they reroute, they do not
// compute, so a MEM->CMEM transfer through them costs the same single
// MAGIC-NOT cycle as an in-array copy.
#pragma once

#include <cstddef>
#include <vector>

#include "util/bitvector.hpp"

namespace pimecc::arch {

/// Bank of n/m m-shifters for one transfer direction.
class ShifterBank {
 public:
  /// Throws std::invalid_argument unless m divides n (both positive).
  ShifterBank(std::size_t n, std::size_t m);

  [[nodiscard]] std::size_t n() const noexcept { return n_; }
  [[nodiscard]] std::size_t m() const noexcept { return m_; }
  [[nodiscard]] std::size_t groups() const noexcept { return n_ / m_; }

  /// Routes one full line (length n) with rotation `shift` (the line's
  /// index mod m, per Figure 2(c)).
  ///
  /// Returns m vectors of length n/m; vector d holds, for every block along
  /// the line, the bit that lies on leading diagonal d (for a wordline with
  /// shift = row mod m) or the equivalent counter alignment.
  ///
  /// Concretely: out[d][g] = line[g*m + ((d - shift) mod m)], or with
  /// `reversed` set, out[d][g] = line[g*m + ((-d - shift) mod m)].  The
  /// reversed wiring serves the counter-diagonal family, whose indices run
  /// in the opposite direction along a wordline (Figure 2(c) mirrored).
  [[nodiscard]] std::vector<util::BitVector> route(const util::BitVector& line,
                                                   std::size_t shift,
                                                   bool reversed = false) const;

  /// Inverse of route(): reassembles the line from per-diagonal vectors.
  [[nodiscard]] util::BitVector unroute(
      const std::vector<util::BitVector>& diagonal_vectors, std::size_t shift,
      bool reversed = false) const;

  /// Transistor count of the bank (Table II: one direction is 2*n*m of the
  /// total 4*n*m for both wordline and bitline banks).
  [[nodiscard]] std::size_t transistor_count() const noexcept { return 2 * n_ * m_; }

 private:
  std::size_t n_;
  std::size_t m_;
};

}  // namespace pimecc::arch
