// Benchmark `sin`: fixed-point sine approximation (EPFL shape: 24 PI /
// 25 PO).
//
// Spec (implemented identically by netlist and reference, all unsigned):
//   X      : 24-bit input, representing u = X / 2^24 in [0, 1) radians.
//   x_hi   = X >> 12                                  (12 bits)
//   q      = x_hi * x_hi                              (24 bits, ~u^2 * 2^24)
//   q_hi   = q >> 12                                  (12 bits)
//   cube   = q_hi * x_hi                              (24 bits, ~u^3 * 2^24)
//   t      = (cube * 43) >> 8                         (43/256 ~ 1/6)
//   result = X - t  (24-bit difference, plus borrow)
// Output order: result[0..23], borrow -- approximating
// sin(u) ~ u - u^3/6 scaled by 2^24.
#include "bench_circuits/circuits.hpp"

#include "bench_circuits/ref_util.hpp"
#include "simpler/logic.hpp"

namespace pimecc::circuits {

CircuitSpec build_sin() {
  constexpr std::size_t kBits = 24;
  constexpr std::size_t kHalf = 12;
  CircuitSpec spec;
  spec.name = "sin";
  simpler::Netlist netlist("sin");
  simpler::LogicBuilder b(netlist);
  const simpler::Bus x = b.input_bus(kBits);

  const simpler::Bus x_hi(x.begin() + kHalf, x.end());         // 12 bits
  const simpler::Bus q = b.multiply(x_hi, x_hi);               // 24 bits
  const simpler::Bus q_hi(q.begin() + kHalf, q.end());         // 12 bits
  const simpler::Bus cube = b.multiply(q_hi, x_hi);            // 24 bits

  // cube * 43 = cube*32 + cube*8 + cube*2 + cube, over 30 bits.
  auto widen_shift = [&](const simpler::Bus& bus, std::size_t shift,
                         std::size_t width) {
    simpler::Bus out(width, b.constant(false));
    for (std::size_t i = 0; i < bus.size() && i + shift < width; ++i) {
      out[i + shift] = bus[i];
    }
    return out;
  };
  constexpr std::size_t kWide = 30;
  simpler::Bus acc = widen_shift(cube, 0, kWide);
  for (const std::size_t shift : {1u, 3u, 5u}) {  // +2x, +8x, +32x
    acc = b.ripple_add(acc, widen_shift(cube, shift, kWide), b.constant(false)).sum;
  }
  // t = acc >> 8, as a 24-bit value (acc is 30 bits, so t fits in 22).
  simpler::Bus t(kBits, b.constant(false));
  for (std::size_t i = 8; i < kWide; ++i) t[i - 8] = acc[i];

  const simpler::AddResult diff = b.ripple_sub(x, t);
  b.output_bus(diff.sum);
  b.output(diff.carry_out);  // borrow

  spec.netlist = std::move(netlist);
  spec.evaluate = [](const util::BitVector& in, util::BitVector& out) {
    const std::uint64_t x_val = get_bits(in, 0, kBits);
    const std::uint64_t x_hi_val = x_val >> kHalf;
    const std::uint64_t q_val = (x_hi_val * x_hi_val) & 0xFFFFFFu;
    const std::uint64_t q_hi_val = q_val >> kHalf;
    const std::uint64_t cube_val = (q_hi_val * x_hi_val) & 0xFFFFFFu;
    const std::uint64_t t_val = ((cube_val * 43u) >> 8) & 0xFFFFFFu;
    const bool borrow = x_val < t_val;
    const std::uint64_t result = (x_val - t_val) & 0xFFFFFFu;
    reset_bits(out, kBits + 1);
    set_bits(out, 0, kBits, result);
    out.set(kBits, borrow);
  };
  return spec;
}

}  // namespace pimecc::circuits
