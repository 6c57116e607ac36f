// pimecc -- oracle/reference_eval.hpp
//
// Reference evaluators for the logic the mapper and the benchmark circuits
// build: a gate-by-gate walk of a NOR netlist, and the term loop of a PLA
// spec.  Tests pin the mapped programs' outputs (simpler::run_simd, the
// protected runs) to the netlist walk, and circuits::PlaTable to the term
// loop; neither is on a product path.
#pragma once

#include "bench_circuits/pla.hpp"
#include "simpler/netlist.hpp"
#include "util/bitvector.hpp"

namespace pimecc::simpler {

/// Evaluates `netlist` node by node in id (topological) order on
/// `input_values`, indexed like netlist.inputs(), and returns the outputs
/// in netlist.outputs() order.  Throws std::invalid_argument on a wrong
/// input count.
[[nodiscard]] util::BitVector eval_netlist(const Netlist& netlist,
                                           const util::BitVector& input_values);

}  // namespace pimecc::simpler

namespace pimecc::circuits {

/// Reference evaluation of the PLA spec into `out` (resized to
/// num_outputs, every bit overwritten): the OR of the matching terms'
/// output masks.
void eval_pla(const PlaSpec& spec, const util::BitVector& inputs,
              util::BitVector& out);

}  // namespace pimecc::circuits
