// pimecc -- bench_circuits/circuits.hpp
//
// NOR-netlist generators standing in for the EPFL combinational benchmark
// suite [20] (see DESIGN.md substitution #1).  Each circuit matches the
// EPFL original's primary-input/primary-output counts and implements a
// functionally equivalent computation, paired with a bit-accurate C++
// reference model.  The model is written from the circuit's spec, not by
// evaluating the netlist, so the test suite and the serving path's
// per-lane check both compare two independent computations.  It writes
// into the caller's output vector (CircuitSpec::evaluate), so the serving
// path checks 1,020 lanes with one reused buffer.
//
//   name       PI    PO    computation
//   adder      256   129   128+128-bit ripple-carry addition
//   arbiter    128    65   64-client rotating-priority (round-robin) arbiter
//   bar        135   128   128-bit barrel rotator, 7-bit amount
//   cavlc      10     11   coding-table PLA (two-level NOR-NOR logic)
//   ctrl       7      26   controller decode PLA
//   dec        8     256   8-to-256 one-hot decoder (predecoded)
//   int2float  11      7   11-bit signed int -> compact float (e3m3)
//   max        512   130   max of four 128-bit unsigned + 2-bit argmax
//   priority   128     8   128-bit priority encoder (index + valid)
//   sin        24     25   fixed-point sin approximation (x - x^3/6)
//   voter      1001    1   1001-input majority
//
// Note: `arbiter` uses 64 clients where EPFL uses 128; the quadratic
// pointer-range structure of a flat round-robin arbiter would otherwise
// far exceed the EPFL gate count and distort the Table I latency-overhead
// shape the suite exists to reproduce.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "simpler/netlist.hpp"
#include "util/bitvector.hpp"

namespace pimecc::circuits {

/// A generated benchmark circuit plus its reference model.
struct CircuitSpec {
  std::string name;
  simpler::Netlist netlist;
  /// Bit-accurate reference, in place: overwrites every bit of `out` with
  /// the expected PO values (indexed like netlist.outputs(), `out` resized
  /// to num_outputs()) for the PI assignment `in` (indexed like
  /// netlist.inputs()).  Allocation-free once `out` has held
  /// num_outputs() bits.
  std::function<void(const util::BitVector& in, util::BitVector& out)> evaluate;

  /// evaluate() into a fresh vector.
  [[nodiscard]] util::BitVector reference(const util::BitVector& in) const {
    util::BitVector out;
    evaluate(in, out);
    return out;
  }
};

/// The 11 benchmark names in Table I order.
[[nodiscard]] const std::vector<std::string>& circuit_names();

/// Builds one circuit by name; throws std::invalid_argument for unknown
/// names.
[[nodiscard]] CircuitSpec build_circuit(const std::string& name);

// Individual builders (exposed for focused tests).
[[nodiscard]] CircuitSpec build_adder();
[[nodiscard]] CircuitSpec build_arbiter();
[[nodiscard]] CircuitSpec build_bar();
[[nodiscard]] CircuitSpec build_cavlc();
[[nodiscard]] CircuitSpec build_ctrl();
[[nodiscard]] CircuitSpec build_dec();
[[nodiscard]] CircuitSpec build_int2float();
[[nodiscard]] CircuitSpec build_max();
[[nodiscard]] CircuitSpec build_priority();
[[nodiscard]] CircuitSpec build_sin();
[[nodiscard]] CircuitSpec build_voter();

}  // namespace pimecc::circuits
