// Benchmark `cavlc`: coding-table logic (EPFL shape: 10 PI / 11 PO).
//
// The EPFL original is the H.264 CAVLC coeff_token decode table.  Its exact
// table is not redistributable here, so a fixed pseudo-random PLA of the
// same shape stands in: 90 product terms over 10 inputs driving 11 outputs
// (two-level NOR-NOR logic).  Table lookups of this shape exercise the same
// mapped-program structure: a wide flat layer of small-fanin gates followed
// by shallow OR planes, with nearly all gate outputs internal.
#include "bench_circuits/circuits.hpp"

#include "bench_circuits/pla.hpp"
#include "simpler/logic.hpp"

namespace pimecc::circuits {

CircuitSpec build_cavlc() {
  CircuitSpec spec;
  spec.name = "cavlc";
  const PlaSpec pla = cavlc_pla();
  simpler::Netlist netlist("cavlc");
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
