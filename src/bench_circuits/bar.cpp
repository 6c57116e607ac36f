// Benchmark `bar`: 128-bit barrel rotator with a 7-bit amount (EPFL shape:
// 135 PI / 128 PO).  Seven mux stages, stage k rotating left by 2^k.
#include "bench_circuits/circuits.hpp"

#include "bench_circuits/ref_util.hpp"
#include "simpler/logic.hpp"

namespace pimecc::circuits {

CircuitSpec build_bar() {
  constexpr std::size_t kWidth = 128;
  constexpr std::size_t kStages = 7;
  CircuitSpec spec;
  spec.name = "bar";
  simpler::Netlist netlist("bar");
  simpler::LogicBuilder b(netlist);
  const simpler::Bus data = b.input_bus(kWidth);
  const simpler::Bus amount = b.input_bus(kStages);

  simpler::Bus current = data;
  for (std::size_t k = 0; k < kStages; ++k) {
    const std::size_t step = std::size_t{1} << k;
    simpler::Bus rotated(kWidth);
    for (std::size_t i = 0; i < kWidth; ++i) {
      rotated[i] = current[(i + kWidth - step) % kWidth];
    }
    current = b.mux_bus(amount[k], current, rotated);
  }
  b.output_bus(current);
  spec.netlist = std::move(netlist);
  spec.evaluate = [](const util::BitVector& in, util::BitVector& out) {
    const std::size_t amount_val =
        static_cast<std::size_t>(get_bits(in, kWidth, kStages));
    reset_bits(out, kWidth);
    for (std::size_t i = 0; i < kWidth; ++i) {
      out.set((i + amount_val) % kWidth, in.get(i));
    }
  };
  return spec;
}

}  // namespace pimecc::circuits
