// Benchmark `max`: maximum of four 128-bit unsigned integers plus a 2-bit
// argmax (EPFL shape: 512 PI / 130 PO).  Tournament of three ripple-borrow
// comparators with bus multiplexers; ties resolve to the earlier operand.
#include "bench_circuits/circuits.hpp"

#include "bench_circuits/ref_util.hpp"
#include "simpler/logic.hpp"

namespace pimecc::circuits {

CircuitSpec build_max() {
  constexpr std::size_t kWidth = 128;
  CircuitSpec spec;
  spec.name = "max";
  simpler::Netlist netlist("max");
  simpler::LogicBuilder b(netlist);
  const simpler::Bus a = b.input_bus(kWidth);
  const simpler::Bus bb = b.input_bus(kWidth);
  const simpler::Bus c = b.input_bus(kWidth);
  const simpler::Bus d = b.input_bus(kWidth);

  // Semifinals: ties keep the earlier operand (>=).
  const simpler::NodeId a_ge_b = b.greater_equal(a, bb);
  const simpler::Bus m0 = b.mux_bus(a_ge_b, bb, a);       // winner of {a,b}
  const simpler::NodeId i0 = b.not_gate(a_ge_b);          // 0 if a, 1 if b
  const simpler::NodeId c_ge_d = b.greater_equal(c, d);
  const simpler::Bus m1 = b.mux_bus(c_ge_d, d, c);
  const simpler::NodeId i1 = b.not_gate(c_ge_d);
  // Final.
  const simpler::NodeId m0_ge_m1 = b.greater_equal(m0, m1);
  const simpler::Bus value = b.mux_bus(m0_ge_m1, m1, m0);
  const simpler::NodeId idx_low = b.mux(m0_ge_m1, i1, i0);
  const simpler::NodeId idx_high = b.not_gate(m0_ge_m1);

  b.output_bus(value);
  b.output(idx_low);
  b.output(idx_high);
  spec.netlist = std::move(netlist);
  spec.evaluate = [](const util::BitVector& in, util::BitVector& out) {
    auto word = [&](std::size_t which) {
      // 128-bit operand as two 64-bit halves for comparison.
      const std::uint64_t lo = get_bits(in, which * kWidth, 64);
      const std::uint64_t hi = get_bits(in, which * kWidth + 64, 64);
      return std::pair{hi, lo};
    };
    std::size_t best = 0;
    for (std::size_t i = 1; i < 4; ++i) {
      if (word(i) > word(best)) best = i;
    }
    const auto [hi, lo] = word(best);
    reset_bits(out, kWidth + 2);
    set_bits(out, 0, 64, lo);
    set_bits(out, 64, 64, hi);
    set_bits(out, kWidth, 2, best);
  };
  return spec;
}

}  // namespace pimecc::circuits
