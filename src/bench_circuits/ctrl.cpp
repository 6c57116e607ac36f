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
  const PlaSpec pla = ctrl_pla();
  simpler::Netlist netlist("ctrl");
  simpler::LogicBuilder b(netlist);
  const simpler::Bus inputs = b.input_bus(pla.num_inputs);
  b.output_bus(synthesize_pla(b, inputs, pla));
  spec.netlist = std::move(netlist);
  spec.evaluate = [table = PlaTable(pla)](const util::BitVector& in,
                                         util::BitVector& out) {
    table.evaluate(in, out);
  };
  return spec;
}

}  // namespace pimecc::circuits
