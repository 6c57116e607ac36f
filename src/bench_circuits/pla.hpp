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

/// The PLA's truth table, built once from the spec: entry x is the OR of
/// the output masks of the terms that match the input word x, as eval_pla
/// computes it.  A reference model that is one table read per lane, still
/// derived from the spec alone (never from the netlist or a mapped
/// program).
class PlaTable {
 public:
  /// Inputs a table may have (2^16 entries); wider specs throw
  /// std::invalid_argument.
  static constexpr std::size_t kMaxInputs = 16;

  explicit PlaTable(const PlaSpec& spec);

  /// eval_pla(spec, inputs, out) by one lookup.
  void evaluate(const util::BitVector& inputs, util::BitVector& out) const;

 private:
  std::size_t num_inputs_;
  std::size_t num_outputs_;
  std::vector<std::uint32_t> words_;
};

/// The fixed PLAs behind the `ctrl` (7 inputs, 26 outputs, 24 terms) and
/// `cavlc` (10 inputs, 11 outputs, 90 terms) benchmarks.
[[nodiscard]] PlaSpec ctrl_pla();
[[nodiscard]] PlaSpec cavlc_pla();

/// Deterministically generates a pseudo-random but fixed PLA with the given
/// shape (used to stand in for the EPFL table-logic benchmarks whose exact
/// tables are not redistributable here).  Same seed => same spec.
[[nodiscard]] PlaSpec make_table_pla(std::size_t num_inputs, std::size_t num_outputs,
                                     std::size_t num_terms, std::uint64_t seed);

}  // namespace pimecc::circuits
