// Benchmark `priority`: 128-bit priority encoder (EPFL shape: 128 PI /
// 8 PO).  Lowest-index request wins; outputs the 7-bit index plus a valid
// flag.
#include "bench_circuits/circuits.hpp"

#include "bench_circuits/ref_util.hpp"
#include "simpler/logic.hpp"

namespace pimecc::circuits {

CircuitSpec build_priority() {
  constexpr std::size_t kWidth = 128;
  constexpr std::size_t kIndexBits = 7;
  CircuitSpec spec;
  spec.name = "priority";
  simpler::Netlist netlist("priority");
  simpler::LogicBuilder b(netlist);
  const simpler::Bus req = b.input_bus(kWidth);

  // prefix[i] = OR(req[0..i]); grant[i] = req[i] AND NOT prefix[i-1].
  simpler::Bus prefix(kWidth);
  prefix[0] = req[0];
  for (std::size_t i = 1; i < kWidth; ++i) prefix[i] = b.or2(prefix[i - 1], req[i]);
  simpler::Bus grant(kWidth);
  grant[0] = req[0];
  for (std::size_t i = 1; i < kWidth; ++i) {
    grant[i] = b.nor2(b.not_gate(req[i]), prefix[i - 1]);  // AND(req, ~prefix)
  }
  // Index bit j = OR of all grants whose position has bit j set.
  for (std::size_t j = 0; j < kIndexBits; ++j) {
    std::vector<simpler::NodeId> terms;
    for (std::size_t i = 0; i < kWidth; ++i) {
      if ((i >> j) & 1u) terms.push_back(grant[i]);
    }
    b.output(b.or_gate(std::span<const simpler::NodeId>(terms)));
  }
  b.output(prefix[kWidth - 1]);  // valid
  spec.netlist = std::move(netlist);
  spec.evaluate = [](const util::BitVector& in, util::BitVector& out) {
    reset_bits(out, kIndexBits + 1);
    const std::size_t first = in.find_first();
    if (first < kWidth) {
      set_bits(out, 0, kIndexBits, first);
      out.set(kIndexBits, true);
    }
  };
  return spec;
}

}  // namespace pimecc::circuits
