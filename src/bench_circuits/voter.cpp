// Benchmark `voter`: 1001-input majority gate (EPFL shape: 1001 PI / 1 PO).
// A carry-save full-adder reduction tree counts the set inputs; the output
// compares the count against 501.  At ~12k NOR gates with a single output,
// this is the paper's lowest-overhead benchmark regime (the cost is
// dominated by the one-time cancelation of the 1001 input cells as they
// are recycled).
#include "bench_circuits/circuits.hpp"

#include "bench_circuits/ref_util.hpp"
#include "simpler/logic.hpp"

namespace pimecc::circuits {

CircuitSpec build_voter() {
  constexpr std::size_t kInputs = 1001;
  constexpr std::size_t kThreshold = 501;
  CircuitSpec spec;
  spec.name = "voter";
  simpler::Netlist netlist("voter");
  simpler::LogicBuilder b(netlist);
  const simpler::Bus votes = b.input_bus(kInputs);
  simpler::Bus count = b.popcount(votes);
  const simpler::Bus threshold = b.constant_bus(count.size(), kThreshold);
  b.output(b.greater_equal(count, threshold));
  spec.netlist = std::move(netlist);
  spec.evaluate = [](const util::BitVector& in, util::BitVector& out) {
    reset_bits(out, 1);
    out.set(0, in.count() >= kThreshold);
  };
  return spec;
}

}  // namespace pimecc::circuits
