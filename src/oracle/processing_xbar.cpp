#include "oracle/processing_xbar.hpp"

#include <array>
#include <stdexcept>

namespace pimecc::arch {

ProcessingXbar::ProcessingXbar(std::size_t lanes) : xbar_(lanes, kColumns) {
  if (lanes == 0) {
    throw std::invalid_argument("ProcessingXbar: need at least one lane");
  }
}

void ProcessingXbar::init_working_cells() {
  static constexpr std::array<std::size_t, 8> kWorking = {kN1, kN2, kN3, kT,
                                                          kM1, kM2, kM3, kResult};
  xbar_.magic_init(xbar::Orientation::kRow, kWorking);
}

void ProcessingXbar::load_operand(Column slot, const util::BitVector& true_values) {
  if (slot != kA && slot != kB && slot != kC) {
    throw std::invalid_argument("ProcessingXbar: operand slot must be A, B or C");
  }
  if (true_values.size() != lanes()) {
    throw std::invalid_argument("ProcessingXbar: operand length must equal lanes");
  }
  // Inter-crossbar MAGIC NOT: the receiving cells store the complement.
  // Modeled as a one-cycle column write of the inverted vector.
  xbar_.write_column(slot, ~true_values);
}

void ProcessingXbar::compute() {
  using O = xbar::Orientation;
  auto nor2 = [&](std::size_t x, std::size_t y, std::size_t out) {
    const std::size_t ins[2] = {x, y};
    const xbar::OpResult r = xbar_.magic_nor(O::kRow, ins, out);
    if (r.violations != 0) {
      throw std::logic_error(
          "ProcessingXbar::compute: output cell not initialized (call "
          "init_working_cells before compute)");
    }
  };
  // t = XNOR(a, b): NOR(n2, n3) with n2 = a' AND b = ..., classic 4-NOR XNOR.
  nor2(kA, kB, kN1);
  nor2(kA, kN1, kN2);
  nor2(kB, kN1, kN3);
  nor2(kN2, kN3, kT);
  // result = XNOR(t, c).
  nor2(kT, kC, kM1);
  nor2(kT, kM1, kM2);
  nor2(kC, kM1, kM3);
  nor2(kM2, kM3, kResult);
}

util::BitVector ProcessingXbar::result_raw() const {
  return xbar_.contents().column(kResult);
}

util::BitVector ProcessingXbar::writeback_values() const {
  // The write-back transfer is another inverting MAGIC NOT.
  return ~result_raw();
}

util::BitVector xor3_reference(const util::BitVector& a, const util::BitVector& b,
                               const util::BitVector& c) {
  return a ^ b ^ c;
}

}  // namespace pimecc::arch
