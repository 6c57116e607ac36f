#include "bench_circuits/pla.hpp"

#include <stdexcept>

#include "bench_circuits/ref_util.hpp"
#include "util/rng.hpp"

namespace pimecc::circuits {

simpler::Bus synthesize_pla(simpler::LogicBuilder& builder,
                            const simpler::Bus& inputs, const PlaSpec& spec) {
  if (inputs.size() != spec.num_inputs || spec.num_inputs > 32 ||
      spec.num_outputs > 32) {
    throw std::invalid_argument("synthesize_pla: bad spec shape");
  }
  // Shared complemented literals.
  simpler::Bus inverted(inputs.size());
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    inverted[i] = builder.not_gate(inputs[i]);
  }
  // AND plane: term = NOR of the literals that must be 0, i.e. the
  // complement of each required-1 input and the input itself for each
  // required-0 input.
  std::vector<simpler::NodeId> term_nodes;
  term_nodes.reserve(spec.terms.size());
  for (const PlaTerm& term : spec.terms) {
    std::vector<simpler::NodeId> must_be_zero;
    for (std::size_t i = 0; i < spec.num_inputs; ++i) {
      if (!((term.care_mask >> i) & 1u)) continue;
      const bool want_one = (term.match_value >> i) & 1u;
      must_be_zero.push_back(want_one ? inverted[i] : inputs[i]);
    }
    if (must_be_zero.empty()) {
      term_nodes.push_back(builder.constant(true));
    } else {
      term_nodes.push_back(
          builder.nor_gate(std::span<const simpler::NodeId>(must_be_zero)));
    }
  }
  // OR plane.
  simpler::Bus outputs(spec.num_outputs);
  for (std::size_t o = 0; o < spec.num_outputs; ++o) {
    std::vector<simpler::NodeId> contributing;
    for (std::size_t t = 0; t < spec.terms.size(); ++t) {
      if ((spec.terms[t].output_mask >> o) & 1u) contributing.push_back(term_nodes[t]);
    }
    outputs[o] = contributing.empty()
                     ? builder.constant(false)
                     : builder.or_gate(std::span<const simpler::NodeId>(contributing));
  }
  return outputs;
}

PlaTable::PlaTable(const PlaSpec& spec)
    : num_inputs_(spec.num_inputs), num_outputs_(spec.num_outputs) {
  if (spec.num_inputs > kMaxInputs) {
    throw std::invalid_argument("PlaTable: more than 16 inputs");
  }
  // Each term drives exactly the inputs that agree with it on its care
  // bits: its match value with every subset of the other bits (none, if it
  // wants a 1 above the last input).
  words_.assign(std::size_t{1} << spec.num_inputs, 0);
  const auto all = static_cast<std::uint32_t>(words_.size() - 1);
  for (const PlaTerm& term : spec.terms) {
    if ((term.match_value & term.care_mask & ~all) != 0) continue;
    const std::uint32_t free = all & ~term.care_mask;
    const std::uint32_t base = term.match_value & term.care_mask & all;
    for (std::uint32_t sub = free;; sub = (sub - 1) & free) {
      words_[base | sub] |= term.output_mask;
      if (sub == 0) break;
    }
  }
}

void PlaTable::evaluate(const util::BitVector& inputs, util::BitVector& out) const {
  if (inputs.size() != num_inputs_) {
    throw std::invalid_argument("PlaTable: wrong input count");
  }
  reset_bits(out, num_outputs_);
  if (num_outputs_ != 0) out.set_low_word(words_[get_bits(inputs, 0, num_inputs_)]);
}

PlaSpec ctrl_pla() { return make_table_pla(7, 26, 24, /*seed=*/0xC09ull); }

PlaSpec cavlc_pla() { return make_table_pla(10, 11, 90, /*seed=*/0xCA41Cull); }

PlaSpec make_table_pla(std::size_t num_inputs, std::size_t num_outputs,
                       std::size_t num_terms, std::uint64_t seed) {
  if (num_inputs == 0 || num_inputs > 32 || num_outputs == 0 || num_outputs > 32) {
    throw std::invalid_argument("make_table_pla: shape out of range");
  }
  util::Rng rng(seed);
  PlaSpec spec;
  spec.num_inputs = num_inputs;
  spec.num_outputs = num_outputs;
  spec.terms.reserve(num_terms);
  const std::uint32_t in_mask =
      num_inputs == 32 ? ~0u : ((1u << num_inputs) - 1u);
  const std::uint32_t out_mask =
      num_outputs == 32 ? ~0u : ((1u << num_outputs) - 1u);
  for (std::size_t t = 0; t < num_terms; ++t) {
    PlaTerm term;
    // Each term cares about roughly half the inputs and drives 1-3 outputs.
    do {
      term.care_mask = static_cast<std::uint32_t>(rng.next()) & in_mask;
    } while (term.care_mask == 0);
    term.match_value = static_cast<std::uint32_t>(rng.next()) & term.care_mask;
    do {
      term.output_mask = static_cast<std::uint32_t>(rng.next()) &
                         static_cast<std::uint32_t>(rng.next()) & out_mask;
    } while (term.output_mask == 0);
    spec.terms.push_back(term);
  }
  return spec;
}

}  // namespace pimecc::circuits
