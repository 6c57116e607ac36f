// Benchmark `dec`: 8-to-256 one-hot decoder (EPFL shape: 8 PI / 256 PO).
// Classic predecoded structure: two 4-to-16 predecoders feed 256 2-input
// AND gates.  Nearly every gate drives a primary output, which is what
// makes `dec` the paper's worst-case latency benchmark.
#include "bench_circuits/circuits.hpp"

#include "bench_circuits/ref_util.hpp"
#include "simpler/logic.hpp"

namespace pimecc::circuits {

CircuitSpec build_dec() {
  constexpr std::size_t kInBits = 8;
  constexpr std::size_t kOutputs = 256;
  CircuitSpec spec;
  spec.name = "dec";
  simpler::Netlist netlist("dec");
  simpler::LogicBuilder b(netlist);
  const simpler::Bus x = b.input_bus(kInBits);

  simpler::Bus inverted(kInBits);
  for (std::size_t i = 0; i < kInBits; ++i) inverted[i] = b.not_gate(x[i]);

  // 4-to-16 predecoder: line p = AND of 4 literals = NOR of 4 complements.
  auto predecode = [&](std::size_t base) {
    simpler::Bus lines(16);
    for (std::size_t p = 0; p < 16; ++p) {
      std::vector<simpler::NodeId> complements(4);
      for (std::size_t i = 0; i < 4; ++i) {
        const bool want_one = (p >> i) & 1u;
        complements[i] = want_one ? inverted[base + i] : x[base + i];
      }
      lines[p] = b.nor_gate(std::span<const simpler::NodeId>(complements));
    }
    return lines;
  };
  const simpler::Bus low = predecode(0);
  const simpler::Bus high = predecode(4);

  simpler::Bus nlow(16), nhigh(16);
  for (std::size_t p = 0; p < 16; ++p) {
    nlow[p] = b.not_gate(low[p]);
    nhigh[p] = b.not_gate(high[p]);
  }
  for (std::size_t v = 0; v < kOutputs; ++v) {
    b.output(b.nor2(nlow[v & 15], nhigh[v >> 4]));  // AND2 of predecoded lines
  }
  spec.netlist = std::move(netlist);
  spec.evaluate = [](const util::BitVector& in, util::BitVector& out) {
    reset_bits(out, kOutputs);
    out.set(static_cast<std::size_t>(get_bits(in, 0, kInBits)), true);
  };
  return spec;
}

}  // namespace pimecc::circuits
