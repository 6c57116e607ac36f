#include "arch/params.hpp"

#include <stdexcept>

namespace pimecc::arch {

void ArchParams::validate() const {
  if (n == 0 || m == 0) {
    throw std::invalid_argument("ArchParams: n and m must be positive");
  }
  if (m % 2 == 0) {
    throw std::invalid_argument(
        "ArchParams: m must be odd so wrap-around diagonals uniquely index "
        "cells (paper footnote 1)");
  }
  if (n % m != 0) {
    throw std::invalid_argument("ArchParams: m must divide n");
  }
  if (num_pcs == 0 || num_pcs > kMaxPcs) {
    throw std::invalid_argument(
        "ArchParams: need 1 to 64 processing crossbars (arch::kMaxPcs)");
  }
  if (xor3_cycles == 0 || transfer_cycles == 0 || writeback_cycles == 0) {
    throw std::invalid_argument("ArchParams: cycle costs must be positive");
  }
}

}  // namespace pimecc::arch
