#include "oracle/reference_block_code.hpp"

#include <stdexcept>

namespace pimecc::ecc {

void ReferenceBlockCodec::require_window(const util::BitMatrix& data,
                                         std::size_t row0, std::size_t col0) const {
  if (row0 + m() > data.rows() || col0 + m() > data.cols()) {
    throw std::out_of_range("ReferenceBlockCodec: block window exceeds matrix bounds");
  }
}

CheckBits ReferenceBlockCodec::encode(const util::BitMatrix& data, std::size_t row0,
                                      std::size_t col0) const {
  require_window(data, row0, col0);
  CheckBits check(m());
  for (std::size_t r = 0; r < m(); ++r) {
    for (std::size_t c = 0; c < m(); ++c) {
      if (data.get(row0 + r, col0 + c)) {
        check.leading.flip(geometry_.leading(r, c));
        check.counter.flip(geometry_.counter(r, c));
      }
    }
  }
  return check;
}

Syndrome ReferenceBlockCodec::compute_syndrome(const util::BitMatrix& data,
                                               std::size_t row0, std::size_t col0,
                                               const CheckBits& stored) const {
  if (stored.leading.size() != m() || stored.counter.size() != m()) {
    throw std::invalid_argument("ReferenceBlockCodec: stored check bits have wrong size");
  }
  const CheckBits fresh = encode(data, row0, col0);
  Syndrome s(m());
  s.leading = fresh.leading ^ stored.leading;
  s.counter = fresh.counter ^ stored.counter;
  return s;
}

DecodeResult ReferenceBlockCodec::classify(const Syndrome& syndrome) const {
  DecodeResult result;
  const std::size_t nl = syndrome.leading.count();
  const std::size_t nc = syndrome.counter.count();
  if (nl == 0 && nc == 0) {
    result.status = DecodeStatus::kClean;
    return result;
  }
  if (nl == 1 && nc == 1) {
    // Single data-bit error: unique intersection of the two diagonals.
    const DiagonalPair pair{syndrome.leading.find_first(),
                            syndrome.counter.find_first()};
    result.status = DecodeStatus::kCorrectedData;
    result.data_error = geometry_.locate(pair);
    return result;
  }
  if (nl == 1 && nc == 0) {
    result.status = DecodeStatus::kCorrectedCheck;
    result.check_error = CheckBitLocation{true, syndrome.leading.find_first()};
    return result;
  }
  if (nl == 0 && nc == 1) {
    result.status = DecodeStatus::kCorrectedCheck;
    result.check_error = CheckBitLocation{false, syndrome.counter.find_first()};
    return result;
  }
  result.status = DecodeStatus::kDetectedUncorrectable;
  return result;
}

DecodeResult ReferenceBlockCodec::check_and_correct(util::BitMatrix& data,
                                                    std::size_t row0,
                                                    std::size_t col0,
                                                    CheckBits& stored) const {
  const Syndrome syndrome = compute_syndrome(data, row0, col0, stored);
  const DecodeResult result = classify(syndrome);
  switch (result.status) {
    case DecodeStatus::kCorrectedData: {
      const Cell cell = *result.data_error;
      data.flip(row0 + cell.r, col0 + cell.c);
      break;
    }
    case DecodeStatus::kCorrectedCheck: {
      const CheckBitLocation loc = *result.check_error;
      if (loc.on_leading_axis) {
        stored.leading.flip(loc.index);
      } else {
        stored.counter.flip(loc.index);
      }
      break;
    }
    case DecodeStatus::kClean:
    case DecodeStatus::kDetectedUncorrectable:
      break;
  }
  return result;
}

void ReferenceBlockCodec::update_for_write(CheckBits& check, std::size_t r,
                                           std::size_t c, bool old_value,
                                           bool new_value) const {
  if (old_value == new_value) return;
  check.leading.flip(geometry_.leading(r, c));
  check.counter.flip(geometry_.counter(r, c));
}

ScrubReport reference_scrub(const ReferenceBlockCodec& ref, util::BitMatrix& data,
                            std::vector<CheckBits>& stored, std::size_t bps) {
  ScrubReport report;
  const std::size_t m = ref.m();
  for (std::size_t br = 0; br < bps; ++br) {
    for (std::size_t bc = 0; bc < bps; ++bc) {
      const DecodeResult r =
          ref.check_and_correct(data, br * m, bc * m, stored[br * bps + bc]);
      ++report.blocks_checked;
      switch (r.status) {
        case DecodeStatus::kClean: ++report.clean; break;
        case DecodeStatus::kCorrectedData: ++report.corrected_data; break;
        case DecodeStatus::kCorrectedCheck: ++report.corrected_check; break;
        case DecodeStatus::kDetectedUncorrectable: ++report.uncorrectable; break;
      }
    }
  }
  return report;
}

MultiCheckBits reference_multislope_encode(const MultiSlopeCodec& codec,
                                           const util::BitMatrix& data,
                                           std::size_t row0, std::size_t col0) {
  const std::size_t m = codec.m();
  if (row0 + m > data.rows() || col0 + m > data.cols()) {
    throw std::out_of_range("reference_multislope_encode: block window exceeds bounds");
  }
  MultiCheckBits check;
  check.family_parity.assign(codec.families(), util::BitVector(m));
  for (std::size_t r = 0; r < m; ++r) {
    for (std::size_t c = 0; c < m; ++c) {
      if (!data.get(row0 + r, col0 + c)) continue;
      for (std::size_t f = 0; f < codec.families(); ++f) {
        check.family_parity[f].flip(codec.line_of(f, r, c));
      }
    }
  }
  return check;
}

bool reference_horizontal_group_parity(const util::BitMatrix& data, std::size_t r,
                                       std::size_t g, std::size_t group_size) {
  bool p = false;
  for (std::size_t i = 0; i < group_size; ++i) {
    p ^= data.at(r, g * group_size + i);
  }
  return p;
}

}  // namespace pimecc::ecc
