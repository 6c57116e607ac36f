// pimecc -- bench_circuits/pla.hpp
//
// Two-level programmable-logic-array synthesis: the substrate for the
// table-driven benchmarks (cavlc, ctrl).  A PLA spec is a list of product
// terms over the inputs; each output is the OR of its terms.  In NOR-only
// form this is the classic NOR-NOR two-level structure.
#pragma once

#include <cstdint>
#include <vector>

#include "simpler/logic.hpp"
#include "util/bitvector.hpp"

namespace pimecc::circuits {

/// One product term: matches when (x & care_mask) == match_value; drives
/// the outputs whose bit is set in output_mask.
struct PlaTerm {
  std::uint32_t care_mask = 0;
  std::uint32_t match_value = 0;
  std::uint32_t output_mask = 0;
};

/// Complete PLA description (up to 32 inputs / 32 outputs).
struct PlaSpec {
  std::size_t num_inputs = 0;
  std::size_t num_outputs = 0;
  std::vector<PlaTerm> terms;
};

/// Synthesizes the PLA into `builder`'s netlist; returns the output nodes
/// (not yet marked as primary outputs).
[[nodiscard]] simpler::Bus synthesize_pla(simpler::LogicBuilder& builder,
                                          const simpler::Bus& inputs,
                                          const PlaSpec& spec);

/// Reference evaluation of the PLA spec into `out` (resized to
/// num_outputs, every bit overwritten): the OR of the matching terms'
/// output masks.
void eval_pla(const PlaSpec& spec, const util::BitVector& inputs,
              util::BitVector& out);

/// Deterministically generates a pseudo-random but fixed PLA with the given
/// shape (used to stand in for the EPFL table-logic benchmarks whose exact
/// tables are not redistributable here).  Same seed => same spec.
[[nodiscard]] PlaSpec make_table_pla(std::size_t num_inputs, std::size_t num_outputs,
                                     std::size_t num_terms, std::uint64_t seed);

}  // namespace pimecc::circuits
