// pimecc -- simpler/logic.hpp
//
// Gate-library builder over the NOR-only netlist IR: the synthesis
// front-end used by the EPFL-like benchmark generators.  Every helper
// decomposes to MAGIC-executable NOR gates; fan-in above the configured cap
// is decomposed into trees.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "simpler/netlist.hpp"

namespace pimecc::simpler {

/// Multi-bit signal: bit 0 is the least significant bit.
using Bus = std::vector<NodeId>;

/// Sum/carry pair returned by adders.
struct AddResult {
  Bus sum;
  NodeId carry_out;
};

/// NOR-level logic builder.
class LogicBuilder {
 public:
  /// `max_fanin` caps NOR width; wider ORs/ANDs become gate trees.
  explicit LogicBuilder(Netlist& netlist, std::size_t max_fanin = 4);

  [[nodiscard]] Netlist& netlist() noexcept { return netlist_; }

  // --- primitives -----------------------------------------------------------
  NodeId input() { return netlist_.add_input(); }
  Bus input_bus(std::size_t width);
  NodeId constant(bool value);
  void output(NodeId id) { netlist_.mark_output(id); }
  void output_bus(const Bus& bus);

  NodeId nor_gate(std::span<const NodeId> ins);
  NodeId not_gate(NodeId a);
  NodeId or_gate(std::span<const NodeId> ins);
  NodeId and_gate(std::span<const NodeId> ins);

  NodeId nor2(NodeId a, NodeId b) { return nor_gate(pair(a, b)); }
  NodeId or2(NodeId a, NodeId b) { return or_gate(pair(a, b)); }
  NodeId and2(NodeId a, NodeId b) { return and_gate(pair(a, b)); }

  /// XNOR via the canonical 4-NOR structure (same dataflow as the CMEM's
  /// processing crossbars).
  NodeId xnor2(NodeId a, NodeId b);
  NodeId xor2(NodeId a, NodeId b) { return not_gate(xnor2(a, b)); }
  /// XOR3 = XNOR(XNOR(a,b),c): exactly 8 NORs.
  NodeId xor3(NodeId a, NodeId b, NodeId c) { return xnor2(xnor2(a, b), c); }

  /// 2:1 multiplexer: sel ? hi : lo.
  NodeId mux(NodeId sel, NodeId lo, NodeId hi);
  /// Bitwise mux over equal-width buses.
  Bus mux_bus(NodeId sel, const Bus& lo, const Bus& hi);

  /// Majority of three (carry function): 4 NORs.
  NodeId majority3(NodeId a, NodeId b, NodeId c);

  // --- arithmetic ------------------------------------------------------------
  /// Ripple-carry addition of equal-width buses: per bit, sum = XOR3 of
  /// the bits and the carry, carry = maj3.
  AddResult ripple_add(const Bus& a, const Bus& b, NodeId carry_in);
  /// a - b borrow-ripple; returns difference and borrow_out (1 iff a < b).
  AddResult ripple_sub(const Bus& a, const Bus& b);
  /// Unsigned comparison a >= b (via subtract-borrow).
  NodeId greater_equal(const Bus& a, const Bus& b);
  /// Popcount: adds `bits.size()` single bits into a ceil(log2)+1-wide bus
  /// using a full-adder reduction tree (the voter's substrate).
  Bus popcount(const std::vector<NodeId>& bits);
  /// Unsigned multiply (shift-and-add array), result width = wa + wb.
  Bus multiply(const Bus& a, const Bus& b);

  /// Constant bus of `width` from the low bits of `value`.
  Bus constant_bus(std::size_t width, std::uint64_t value);

 private:
  [[nodiscard]] std::span<const NodeId> pair(NodeId a, NodeId b) {
    pair_[0] = a;
    pair_[1] = b;
    return {pair_.data(), 2};
  }

  Netlist& netlist_;
  std::size_t max_fanin_;
  std::vector<NodeId> pair_ = {0, 0};
  NodeId const_zero_ = 0;
  NodeId const_one_ = 0;
  bool have_consts_ = false;
};

}  // namespace pimecc::simpler
