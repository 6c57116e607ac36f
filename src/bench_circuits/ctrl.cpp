// Benchmark `ctrl`: controller decode logic (EPFL shape: 7 PI / 26 PO).
//
// Stands in for the EPFL ALU control unit: a small fixed PLA mapping a
// 7-bit opcode field to 26 control lines (see cavlc.cpp for the
// substitution rationale).
#include "bench_circuits/circuits.hpp"

#include "bench_circuits/pla.hpp"
#include "simpler/logic.hpp"

namespace pimecc::circuits {

CircuitSpec build_ctrl() {
  CircuitSpec spec;
  spec.name = "ctrl";
  const PlaSpec pla = make_table_pla(7, 26, 24, /*seed=*/0xC09ull);
  simpler::Netlist netlist("ctrl");
  simpler::LogicBuilder b(netlist);
  const simpler::Bus inputs = b.input_bus(pla.num_inputs);
  b.output_bus(synthesize_pla(b, inputs, pla));
  spec.netlist = std::move(netlist);
  spec.evaluate = [pla](const util::BitVector& in, util::BitVector& out) {
    eval_pla(pla, in, out);
  };
  return spec;
}

}  // namespace pimecc::circuits
