#include "oracle/check_memory.hpp"

#include <stdexcept>

namespace pimecc::arch {

CheckMemory::CheckMemory(const ArchParams& params)
    // Validate before blocks_per_side(): it divides by m, so an invalid
    // m = 0 must throw rather than reach the division.
    : m_((params.validate(), params.m)), blocks_(params.blocks_per_side()) {
  xbars_.reserve(2 * m_);
  for (std::size_t i = 0; i < 2 * m_; ++i) {
    xbars_.emplace_back(blocks_, blocks_);
  }
}

const xbar::Crossbar& CheckMemory::xb(Axis axis, std::size_t diagonal) const {
  if (diagonal >= m_) {
    throw std::out_of_range("CheckMemory: diagonal index out of range");
  }
  return xbars_[(axis == Axis::kLeading ? 0 : m_) + diagonal];
}

xbar::Crossbar& CheckMemory::xb(Axis axis, std::size_t diagonal) {
  return const_cast<xbar::Crossbar&>(
      static_cast<const CheckMemory*>(this)->xb(axis, diagonal));
}

void CheckMemory::require_block(ecc::BlockIndex block) const {
  if (block.block_row >= blocks_ || block.block_col >= blocks_) {
    throw std::out_of_range("CheckMemory: block index out of range");
  }
}

bool CheckMemory::get(Axis axis, std::size_t diagonal, ecc::BlockIndex block) const {
  require_block(block);
  return xb(axis, diagonal).peek(block.block_col, block.block_row);
}

void CheckMemory::set(Axis axis, std::size_t diagonal, ecc::BlockIndex block,
                      bool value) {
  require_block(block);
  xb(axis, diagonal).poke(block.block_col, block.block_row, value);
}

bool CheckMemory::flip(Axis axis, std::size_t diagonal, ecc::BlockIndex block) {
  const bool next = !get(axis, diagonal, block);
  set(axis, diagonal, block, next);
  return next;
}

ecc::CheckBits CheckMemory::gather_block(ecc::BlockIndex block) const {
  ecc::CheckBits bits(m_);
  for (std::size_t d = 0; d < m_; ++d) {
    bits.leading.set(d, get(Axis::kLeading, d, block));
    bits.counter.set(d, get(Axis::kCounter, d, block));
  }
  return bits;
}

void CheckMemory::store_block(ecc::BlockIndex block, const ecc::CheckBits& bits) {
  if (bits.leading.size() != m_ || bits.counter.size() != m_) {
    throw std::invalid_argument("CheckMemory::store_block: wrong check-bit size");
  }
  for (std::size_t d = 0; d < m_; ++d) {
    set(Axis::kLeading, d, block, bits.leading.get(d));
    set(Axis::kCounter, d, block, bits.counter.get(d));
  }
}

void CheckMemory::load_from(const ecc::ArrayCode& code) {
  if (code.m() != m_ || code.blocks_per_side() != blocks_) {
    throw std::invalid_argument("CheckMemory::load_from: geometry mismatch");
  }
  for (std::size_t br = 0; br < blocks_; ++br) {
    for (std::size_t bc = 0; bc < blocks_; ++bc) {
      store_block({br, bc}, code.check_bits({br, bc}));
    }
  }
}

void CheckMemory::store_to(ecc::ArrayCode& code) const {
  if (code.m() != m_ || code.blocks_per_side() != blocks_) {
    throw std::invalid_argument("CheckMemory::store_to: geometry mismatch");
  }
  for (std::size_t br = 0; br < blocks_; ++br) {
    for (std::size_t bc = 0; bc < blocks_; ++bc) {
      code.check_bits_mutable({br, bc}) = gather_block({br, bc});
    }
  }
}

bool CheckMemory::matches(const ecc::ArrayCode& code) const {
  if (code.m() != m_ || code.blocks_per_side() != blocks_) return false;
  for (std::size_t br = 0; br < blocks_; ++br) {
    for (std::size_t bc = 0; bc < blocks_; ++bc) {
      if (!(gather_block({br, bc}) == code.check_bits({br, bc}))) return false;
    }
  }
  return true;
}

util::BitVector CheckMemory::read_diagonal_row(Axis axis, std::size_t diagonal,
                                               std::size_t block_row) const {
  if (block_row >= blocks_) {
    throw std::out_of_range("CheckMemory: block row out of range");
  }
  util::BitVector out(blocks_);
  for (std::size_t bc = 0; bc < blocks_; ++bc) {
    out.set(bc, get(axis, diagonal, {block_row, bc}));
  }
  return out;
}

void CheckMemory::write_diagonal_row(Axis axis, std::size_t diagonal,
                                     std::size_t block_row,
                                     const util::BitVector& values) {
  if (block_row >= blocks_ || values.size() != blocks_) {
    throw std::invalid_argument("CheckMemory::write_diagonal_row: bad arguments");
  }
  for (std::size_t bc = 0; bc < blocks_; ++bc) {
    set(axis, diagonal, {block_row, bc}, values.get(bc));
  }
}

util::BitVector CheckMemory::read_diagonal_col(Axis axis, std::size_t diagonal,
                                               std::size_t block_col) const {
  if (block_col >= blocks_) {
    throw std::out_of_range("CheckMemory: block column out of range");
  }
  util::BitVector out(blocks_);
  for (std::size_t br = 0; br < blocks_; ++br) {
    out.set(br, get(axis, diagonal, {br, block_col}));
  }
  return out;
}

void CheckMemory::write_diagonal_col(Axis axis, std::size_t diagonal,
                                     std::size_t block_col,
                                     const util::BitVector& values) {
  if (block_col >= blocks_ || values.size() != blocks_) {
    throw std::invalid_argument("CheckMemory::write_diagonal_col: bad arguments");
  }
  for (std::size_t br = 0; br < blocks_; ++br) {
    set(axis, diagonal, {br, block_col}, values.get(br));
  }
}

CheckingXbar::CheckingXbar(const ArchParams& params) : n_(params.n), m_(params.m) {
  params.validate();
}

util::BitVector CheckingXbar::nonzero_flags(
    const std::vector<ecc::Syndrome>& syndromes) {
  util::BitVector flags(syndromes.size());
  for (std::size_t b = 0; b < syndromes.size(); ++b) {
    const ecc::Syndrome& s = syndromes[b];
    if (s.leading.size() != m_ || s.counter.size() != m_) {
      throw std::invalid_argument("CheckingXbar: syndrome has wrong size");
    }
    flags.set(b, !s.clean());
  }
  // One multi-input MAGIC NOR per block (row-parallel, 1 cycle for all
  // blocks) + one NOT to obtain the positive flag.
  cycles_ += 2;
  return flags;
}

}  // namespace pimecc::arch
