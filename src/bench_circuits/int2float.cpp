// Benchmark `int2float`: 11-bit two's-complement integer to a compact
// sign/exp3/man3 float (EPFL shape: 11 PI / 7 PO).
//
// Encoding spec (also implemented verbatim by the reference):
//   v == 0            -> all 7 output bits zero.
//   sign = (v < 0); mag = |v| (11-bit, so |-1024| is representable).
//   p = bit position of mag's MSB (0..10).
//   p >= 8            -> saturate: exp = 7, man = 7.
//   otherwise         -> exp = p, man = the 3 bits directly below the MSB
//                        (zero-padded when p < 3).
// Output order: man[0..2], exp[0..2], sign.
#include "bench_circuits/circuits.hpp"

#include <cstdlib>

#include "bench_circuits/ref_util.hpp"
#include "simpler/logic.hpp"

namespace pimecc::circuits {

CircuitSpec build_int2float() {
  constexpr std::size_t kInBits = 11;
  CircuitSpec spec;
  spec.name = "int2float";
  simpler::Netlist netlist("int2float");
  simpler::LogicBuilder b(netlist);
  const simpler::Bus v = b.input_bus(kInBits);
  const simpler::NodeId sign = v[kInBits - 1];

  // Magnitude: sign ? (~v + 1) : v, over all 11 bits.
  simpler::Bus inverted(kInBits);
  for (std::size_t i = 0; i < kInBits; ++i) inverted[i] = b.not_gate(v[i]);
  const simpler::AddResult negated =
      b.ripple_add(inverted, b.constant_bus(kInBits, 1), b.constant(false));
  const simpler::Bus mag = b.mux_bus(sign, v, negated.sum);

  // Leading-one detection: one_hot[p] = mag[p] AND no higher bit set.
  simpler::Bus any_above(kInBits);  // any_above[p] = OR(mag[p+1..10])
  any_above[kInBits - 1] = b.constant(false);
  for (std::size_t p = kInBits - 1; p-- > 0;) {
    any_above[p] = b.or2(any_above[p + 1], mag[p + 1]);
  }
  simpler::Bus one_hot(kInBits);
  for (std::size_t p = 0; p < kInBits; ++p) {
    one_hot[p] = b.nor2(b.not_gate(mag[p]), any_above[p]);  // AND(mag, none-above)
  }
  const simpler::NodeId saturate =
      b.or_gate(std::span<const simpler::NodeId>(one_hot.data() + 8, 3));

  // exp bits = binary encoding of p (0..7), forced to 7 on saturate.
  simpler::Bus exp(3);
  for (std::size_t j = 0; j < 3; ++j) {
    std::vector<simpler::NodeId> terms;
    for (std::size_t p = 0; p < 8; ++p) {
      if ((p >> j) & 1u) terms.push_back(one_hot[p]);
    }
    terms.push_back(saturate);
    exp[j] = b.or_gate(std::span<const simpler::NodeId>(terms));
  }
  // man = the 3 bits below the MSB: man[k] takes mag[p-3+k] (man[2] is the
  // bit adjacent to the MSB), zero-padded when p < 3; forced to 7 on
  // saturate.
  simpler::Bus man(3);
  for (std::size_t k = 0; k < 3; ++k) {
    std::vector<simpler::NodeId> terms;
    for (std::size_t p = 0; p < 8; ++p) {
      if (p + k >= 3) {
        terms.push_back(b.and2(one_hot[p], mag[p + k - 3]));
      }
    }
    terms.push_back(saturate);
    man[k] = b.or_gate(std::span<const simpler::NodeId>(terms));
  }
  b.output_bus(man);
  b.output_bus(exp);
  b.output(sign);

  spec.netlist = std::move(netlist);
  spec.evaluate = [](const util::BitVector& in, util::BitVector& out) {
    reset_bits(out, 7);
    const std::uint64_t raw = get_bits(in, 0, kInBits);
    const std::int64_t value =
        (raw & (1u << (kInBits - 1))) ? static_cast<std::int64_t>(raw) - 2048
                                      : static_cast<std::int64_t>(raw);
    if (value == 0) return;
    const bool neg = value < 0;
    const std::uint64_t mag_val = static_cast<std::uint64_t>(neg ? -value : value);
    std::size_t p = 0;
    for (std::size_t i = 0; i < kInBits; ++i) {
      if ((mag_val >> i) & 1u) p = i;
    }
    std::uint64_t exp_val, man_val;
    if (p >= 8) {
      exp_val = 7;
      man_val = 7;
    } else {
      exp_val = p;
      man_val = p >= 3 ? (mag_val >> (p - 3)) & 7u : (mag_val << (3 - p)) & 7u;
    }
    set_bits(out, 0, 3, man_val);
    set_bits(out, 3, 3, exp_val);
    out.set(6, neg);
  };
  return spec;
}

}  // namespace pimecc::circuits
