// pimecc -- simpler/netlist.hpp
//
// NOR-only combinational netlist IR.
//
// SIMPLER MAGIC [13] maps logic synthesized into NOR/NOT form (MAGIC's
// functionally-complete gate set) onto a single crossbar row.  This IR is
// the input to that mapper: a DAG of k-input NOR nodes over primary
// inputs, with designated primary outputs.  NOT is a 1-input NOR; MAGIC
// executes a k-input NOR in one cycle for any k that fits in a row.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace pimecc::simpler {

using NodeId = std::uint32_t;

enum class NodeType : std::uint8_t {
  kInput,
  kNor,        ///< k-input NOR, k >= 1 (k == 1 is NOT)
  kConstZero,  ///< constant 0 (an HRS cell)
  kConstOne,   ///< constant 1 (an LRS cell)
};

/// One netlist node.  Fanins always reference lower node ids, so node order
/// is topological by construction.
struct Node {
  NodeType type = NodeType::kNor;
  std::vector<NodeId> fanins;
};

/// Immutable-after-build combinational netlist.
class Netlist {
 public:
  explicit Netlist(std::string name = "netlist") : name_(std::move(name)) {}

  [[nodiscard]] const std::string& name() const noexcept { return name_; }

  NodeId add_input();
  /// Adds a k-input NOR; all fanins must be existing nodes.
  NodeId add_nor(std::span<const NodeId> fanins);
  NodeId add_nor(std::initializer_list<NodeId> fanins) {
    return add_nor(std::span<const NodeId>(fanins.begin(), fanins.size()));
  }
  NodeId add_const(bool value);
  /// Marks a node as primary output (a node may be marked once).
  void mark_output(NodeId id);

  [[nodiscard]] std::size_t num_nodes() const noexcept { return nodes_.size(); }
  [[nodiscard]] std::size_t num_inputs() const noexcept { return inputs_.size(); }
  [[nodiscard]] std::size_t num_outputs() const noexcept { return outputs_.size(); }
  /// Number of NOR gates (excludes inputs and constants).
  [[nodiscard]] std::size_t num_gates() const noexcept { return gate_count_; }

  [[nodiscard]] const Node& node(NodeId id) const { return nodes_.at(id); }
  [[nodiscard]] const std::vector<NodeId>& inputs() const noexcept { return inputs_; }
  [[nodiscard]] const std::vector<NodeId>& outputs() const noexcept {
    return outputs_;
  }

 private:
  std::string name_;
  std::vector<Node> nodes_;
  std::vector<NodeId> inputs_;
  std::vector<NodeId> outputs_;
  std::size_t gate_count_ = 0;
};

}  // namespace pimecc::simpler
