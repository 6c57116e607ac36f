#include "simpler/logic.hpp"

#include <algorithm>
#include <stdexcept>

namespace pimecc::simpler {

LogicBuilder::LogicBuilder(Netlist& netlist, std::size_t max_fanin)
    : netlist_(netlist), max_fanin_(max_fanin) {
  if (max_fanin < 2) {
    throw std::invalid_argument("LogicBuilder: max_fanin must be >= 2");
  }
}

Bus LogicBuilder::input_bus(std::size_t width) {
  Bus bus(width);
  for (auto& bit : bus) bit = input();
  return bus;
}

NodeId LogicBuilder::constant(bool value) {
  if (!have_consts_) {
    const_zero_ = netlist_.add_const(false);
    const_one_ = netlist_.add_const(true);
    have_consts_ = true;
  }
  return value ? const_one_ : const_zero_;
}

void LogicBuilder::output_bus(const Bus& bus) {
  for (const NodeId bit : bus) output(bit);
}

NodeId LogicBuilder::nor_gate(std::span<const NodeId> ins) {
  if (ins.empty()) {
    throw std::invalid_argument("LogicBuilder::nor_gate: empty input list");
  }
  if (ins.size() <= max_fanin_) return netlist_.add_nor(ins);
  // NOR(wide) = NOT(OR(wide)): build the OR as a tree, invert once.
  return not_gate(or_gate(ins));
}

NodeId LogicBuilder::not_gate(NodeId a) { return netlist_.add_nor({a}); }

NodeId LogicBuilder::or_gate(std::span<const NodeId> ins) {
  if (ins.empty()) {
    throw std::invalid_argument("LogicBuilder::or_gate: empty input list");
  }
  if (ins.size() == 1) return not_gate(not_gate(ins[0]));
  if (ins.size() <= max_fanin_) return not_gate(netlist_.add_nor(ins));
  // Tree reduction: fold chunks of max_fanin_ into NORs, invert, recurse.
  std::vector<NodeId> level(ins.begin(), ins.end());
  while (level.size() > max_fanin_) {
    std::vector<NodeId> next;
    for (std::size_t i = 0; i < level.size(); i += max_fanin_) {
      const std::size_t take = std::min(max_fanin_, level.size() - i);
      if (take == 1) {
        next.push_back(level[i]);
      } else {
        next.push_back(not_gate(netlist_.add_nor(
            std::span<const NodeId>(level.data() + i, take))));
      }
    }
    level = std::move(next);
  }
  return not_gate(netlist_.add_nor(std::span<const NodeId>(level)));
}

NodeId LogicBuilder::and_gate(std::span<const NodeId> ins) {
  // AND(x...) = NOR(x'...).
  std::vector<NodeId> inverted;
  inverted.reserve(ins.size());
  for (const NodeId x : ins) inverted.push_back(not_gate(x));
  return nor_gate(std::span<const NodeId>(inverted));
}

NodeId LogicBuilder::xnor2(NodeId a, NodeId b) {
  const NodeId n1 = nor2(a, b);
  const NodeId n2 = nor2(a, n1);
  const NodeId n3 = nor2(b, n1);
  return nor2(n2, n3);
}

NodeId LogicBuilder::mux(NodeId sel, NodeId lo, NodeId hi) {
  // sel ? hi : lo = NOR(NOR(hi, sel'), NOR(lo, sel))'.
  const NodeId nsel = not_gate(sel);
  const NodeId hi_term = nor2(hi, nsel);  // (hi + sel')' = hi' sel ... selects hi
  const NodeId lo_term = nor2(lo, sel);
  return nor2(hi_term, lo_term);
}

Bus LogicBuilder::mux_bus(NodeId sel, const Bus& lo, const Bus& hi) {
  if (lo.size() != hi.size()) {
    throw std::invalid_argument("LogicBuilder::mux_bus: width mismatch");
  }
  const NodeId nsel = not_gate(sel);
  Bus out(lo.size());
  for (std::size_t i = 0; i < lo.size(); ++i) {
    out[i] = nor2(nor2(hi[i], nsel), nor2(lo[i], sel));
  }
  return out;
}

NodeId LogicBuilder::majority3(NodeId a, NodeId b, NodeId c) {
  // maj = ((a+b)(a+c)(b+c)) = NOR(NOR(a,b), NOR(a,c), NOR(b,c)).
  const NodeId ab = nor2(a, b);
  const NodeId ac = nor2(a, c);
  const NodeId bc = nor2(b, c);
  return netlist_.add_nor({ab, ac, bc});
}

AddResult LogicBuilder::ripple_add(const Bus& a, const Bus& b, NodeId carry_in) {
  if (a.size() != b.size()) {
    throw std::invalid_argument("LogicBuilder::ripple_add: width mismatch");
  }
  AddResult out;
  out.sum.resize(a.size());
  NodeId carry = carry_in;
  for (std::size_t i = 0; i < a.size(); ++i) {
    out.sum[i] = xor3(a[i], b[i], carry);
    carry = majority3(a[i], b[i], carry);
  }
  out.carry_out = carry;
  return out;
}

AddResult LogicBuilder::ripple_sub(const Bus& a, const Bus& b) {
  if (a.size() != b.size()) {
    throw std::invalid_argument("LogicBuilder::ripple_sub: width mismatch");
  }
  // a - b = a + ~b + 1; borrow_out = NOT(carry_out).
  AddResult out;
  out.sum.resize(a.size());
  NodeId carry = constant(true);
  for (std::size_t i = 0; i < a.size(); ++i) {
    const NodeId nb = not_gate(b[i]);
    out.sum[i] = xor3(a[i], nb, carry);
    carry = majority3(a[i], nb, carry);
  }
  out.carry_out = not_gate(carry);  // borrow: 1 iff a < b
  return out;
}

NodeId LogicBuilder::greater_equal(const Bus& a, const Bus& b) {
  return not_gate(ripple_sub(a, b).carry_out);
}

Bus LogicBuilder::popcount(const std::vector<NodeId>& bits) {
  if (bits.empty()) return {constant(false)};
  // Carry-save reduction: compress triples of equal-weight bits with full
  // adders until each weight holds at most one bit.  Higher weights are
  // compressed as soon as they accumulate three bits (before returning to
  // weight 0) so that carry values are consumed promptly -- this keeps the
  // number of simultaneously-live values bounded, which the single-row
  // mapper depends on for wide inputs like the 1001-bit voter.
  std::vector<std::vector<NodeId>> columns(1, bits);
  auto compress_step = [&]() -> bool {
    for (std::size_t w = columns.size(); w-- > 0;) {
      if (columns[w].size() >= 3) {
        // FIFO: consume the oldest three bits of this weight.
        const NodeId a = columns[w][0];
        const NodeId b = columns[w][1];
        const NodeId c = columns[w][2];
        columns[w].erase(columns[w].begin(), columns[w].begin() + 3);
        columns[w].push_back(xor3(a, b, c));
        if (w + 1 == columns.size()) columns.emplace_back();
        columns[w + 1].push_back(majority3(a, b, c));
        return true;
      }
    }
    for (std::size_t w = columns.size(); w-- > 0;) {
      if (columns[w].size() == 2) {
        const NodeId a = columns[w][0];
        const NodeId b = columns[w][1];
        columns[w].clear();
        columns[w].push_back(not_gate(xnor2(a, b)));  // half-adder sum
        if (w + 1 == columns.size()) columns.emplace_back();
        columns[w + 1].push_back(and2(a, b));  // half-adder carry
        return true;
      }
    }
    return false;
  };
  while (compress_step()) {
  }
  Bus out(columns.size());
  for (std::size_t w = 0; w < columns.size(); ++w) {
    out[w] = columns[w].empty() ? constant(false) : columns[w].front();
  }
  return out;
}

Bus LogicBuilder::multiply(const Bus& a, const Bus& b) {
  if (a.empty() || b.empty()) {
    throw std::invalid_argument("LogicBuilder::multiply: empty operand");
  }
  const std::size_t width = a.size() + b.size();
  Bus acc = constant_bus(width, 0);
  for (std::size_t j = 0; j < b.size(); ++j) {
    // Partial product (a << j) AND b[j], added into the accumulator.
    Bus partial = constant_bus(width, 0);
    for (std::size_t i = 0; i < a.size(); ++i) {
      partial[i + j] = and2(a[i], b[j]);
    }
    acc = ripple_add(acc, partial, constant(false)).sum;
  }
  return acc;
}

Bus LogicBuilder::constant_bus(std::size_t width, std::uint64_t value) {
  Bus bus(width);
  for (std::size_t i = 0; i < width; ++i) {
    bus[i] = constant(i < 64 && ((value >> i) & 1u));
  }
  return bus;
}

}  // namespace pimecc::simpler
