// Benchmark `adder`: 128+128-bit ripple-carry addition (EPFL shape:
// 256 PI / 129 PO).  Each full adder is XOR3 (8 NORs) + majority (4 NORs).
#include "bench_circuits/circuits.hpp"

#include "bench_circuits/ref_util.hpp"
#include "simpler/logic.hpp"

namespace pimecc::circuits {

CircuitSpec build_adder() {
  constexpr std::size_t kWidth = 128;
  CircuitSpec spec;
  spec.name = "adder";
  simpler::Netlist netlist("adder");
  simpler::LogicBuilder b(netlist);
  const simpler::Bus a = b.input_bus(kWidth);
  const simpler::Bus bb = b.input_bus(kWidth);
  const simpler::AddResult r = b.ripple_add(a, bb, b.constant(false));
  b.output_bus(r.sum);
  b.output(r.carry_out);
  spec.netlist = std::move(netlist);
  spec.evaluate = [](const util::BitVector& in, util::BitVector& out) {
    // 128-bit addition as two 64-bit limbs with an explicit carry.
    reset_bits(out, kWidth + 1);
    std::uint64_t carry = 0;
    for (std::size_t limb = 0; limb < kWidth; limb += 64) {
      const std::uint64_t x = get_bits(in, limb, 64);
      const std::uint64_t sum = x + get_bits(in, kWidth + limb, 64);
      const std::uint64_t total = sum + carry;
      carry = (sum < x || total < sum) ? 1 : 0;
      set_bits(out, limb, 64, total);
    }
    out.set(kWidth, carry != 0);
  };
  return spec;
}

}  // namespace pimecc::circuits
