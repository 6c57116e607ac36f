#include "oracle/reference_eval.hpp"

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "bench_circuits/ref_util.hpp"

namespace pimecc::simpler {

util::BitVector eval_netlist(const Netlist& netlist,
                             const util::BitVector& input_values) {
  if (input_values.size() != netlist.num_inputs()) {
    throw std::invalid_argument("eval_netlist: wrong number of input values");
  }
  std::vector<bool> value(netlist.num_nodes(), false);
  std::size_t next_input = 0;
  for (NodeId id = 0; id < netlist.num_nodes(); ++id) {
    const Node& node = netlist.node(id);
    switch (node.type) {
      case NodeType::kInput:
        value[id] = input_values.get(next_input++);
        break;
      case NodeType::kConstZero:
        value[id] = false;
        break;
      case NodeType::kConstOne:
        value[id] = true;
        break;
      case NodeType::kNor: {
        bool any = false;
        for (const NodeId f : node.fanins) any = any || value[f];
        value[id] = !any;
        break;
      }
    }
  }
  const std::vector<NodeId>& outputs = netlist.outputs();
  util::BitVector out(outputs.size());
  for (std::size_t i = 0; i < outputs.size(); ++i) out.set(i, value[outputs[i]]);
  return out;
}

}  // namespace pimecc::simpler

namespace pimecc::circuits {

void eval_pla(const PlaSpec& spec, const util::BitVector& inputs,
              util::BitVector& out) {
  if (inputs.size() != spec.num_inputs) {
    throw std::invalid_argument("eval_pla: wrong input count");
  }
  const auto x = static_cast<std::uint32_t>(get_bits(inputs, 0, spec.num_inputs));
  // Branch-free: on random inputs a term's match is a coin flip.
  std::uint32_t driven = 0;
  for (const PlaTerm& term : spec.terms) {
    const bool match = ((x ^ term.match_value) & term.care_mask) == 0;
    driven |= term.output_mask & (0u - static_cast<std::uint32_t>(match));
  }
  reset_bits(out, spec.num_outputs);
  if (spec.num_outputs != 0) out.set_low_word(driven);  // drops bits >= num_outputs
}

}  // namespace pimecc::circuits
