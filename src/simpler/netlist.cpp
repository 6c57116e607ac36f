#include "simpler/netlist.hpp"

#include <stdexcept>

namespace pimecc::simpler {

NodeId Netlist::add_input() {
  const NodeId id = static_cast<NodeId>(nodes_.size());
  nodes_.push_back({NodeType::kInput, {}});
  inputs_.push_back(id);
  return id;
}

NodeId Netlist::add_nor(std::span<const NodeId> fanins) {
  if (fanins.empty()) {
    throw std::invalid_argument("Netlist::add_nor: NOR needs at least one fanin");
  }
  const NodeId id = static_cast<NodeId>(nodes_.size());
  for (const NodeId f : fanins) {
    if (f >= id) {
      throw std::invalid_argument("Netlist::add_nor: fanin references unknown node");
    }
  }
  nodes_.push_back({NodeType::kNor, {fanins.begin(), fanins.end()}});
  ++gate_count_;
  return id;
}

NodeId Netlist::add_const(bool value) {
  const NodeId id = static_cast<NodeId>(nodes_.size());
  nodes_.push_back({value ? NodeType::kConstOne : NodeType::kConstZero, {}});
  return id;
}

void Netlist::mark_output(NodeId id) {
  if (id >= nodes_.size()) {
    throw std::out_of_range("Netlist::mark_output: unknown node");
  }
  // A node may drive several output pins (e.g. shared constants feeding a
  // constant bus); each mark adds one pin.
  outputs_.push_back(id);
}

}  // namespace pimecc::simpler
