#include "simpler/mapper.hpp"

#include <algorithm>
#include <stdexcept>

namespace pimecc::simpler {

std::vector<std::uint32_t> compute_cell_usage(const Netlist& netlist) {
  std::vector<std::uint32_t> cu(netlist.num_nodes(), 0);
  for (NodeId id = 0; id < netlist.num_nodes(); ++id) {
    const Node& node = netlist.node(id);
    if (node.type != NodeType::kNor) {
      cu[id] = 1;
      continue;
    }
    std::vector<std::uint32_t> child_cu;
    child_cu.reserve(node.fanins.size());
    for (const NodeId f : node.fanins) child_cu.push_back(cu[f]);
    std::sort(child_cu.begin(), child_cu.end(), std::greater<>());
    std::uint32_t need = 1;
    for (std::size_t i = 0; i < child_cu.size(); ++i) {
      need = std::max(need, child_cu[i] + static_cast<std::uint32_t>(i));
    }
    cu[id] = need;
  }
  return cu;
}

namespace {

/// Post-order over the gate DAG, children visited in descending-CU order
/// (the Sethi-Ullman evaluation order SIMPLER derives its schedule from).
std::vector<NodeId> evaluation_order(const Netlist& netlist,
                                     const std::vector<std::uint32_t>& cu) {
  enum : std::uint8_t { kUnvisited = 0, kInProgress = 1, kDone = 2 };
  std::vector<std::uint8_t> state(netlist.num_nodes(), kUnvisited);
  std::vector<NodeId> order;
  order.reserve(netlist.num_gates());

  // Visit outputs in descending CU so deep cones evaluate first.
  std::vector<NodeId> roots = netlist.outputs();
  std::stable_sort(roots.begin(), roots.end(),
                   [&](NodeId a, NodeId b) { return cu[a] > cu[b]; });

  std::vector<NodeId> stack;
  for (const NodeId root : roots) {
    stack.push_back(root);
    while (!stack.empty()) {
      const NodeId v = stack.back();
      if (state[v] == kDone) {
        stack.pop_back();
        continue;
      }
      if (state[v] == kInProgress) {
        state[v] = kDone;
        if (netlist.node(v).type == NodeType::kNor) order.push_back(v);
        stack.pop_back();
        continue;
      }
      state[v] = kInProgress;
      // Push children in ascending CU so the highest-CU child is expanded
      // first (it ends nearest the top of the stack).
      std::vector<NodeId> kids = netlist.node(v).fanins;
      std::stable_sort(kids.begin(), kids.end(),
                       [&](NodeId a, NodeId b) { return cu[a] < cu[b]; });
      for (const NodeId k : kids) {
        if (state[k] == kUnvisited) stack.push_back(k);
      }
    }
  }
  return order;
}

}  // namespace

namespace {

/// Allocation simulation over one candidate evaluation order; throws
/// RowOverflowError on row overflow.
MappedProgram allocate_row(const Netlist& netlist, const MapperOptions& options,
                           const std::vector<NodeId>& order) {
  // Fanout over *live* consumers only: gates unreachable from any output
  // are never executed (dead logic), so edges into them must not pin their
  // operand cells.  `order` is exactly the reachable gate set.
  std::vector<std::uint32_t> fanout(netlist.num_nodes(), 0);
  for (const NodeId gate : order) {
    for (const NodeId f : netlist.node(gate).fanins) ++fanout[f];
  }
  for (const NodeId out : netlist.outputs()) ++fanout[out];

  constexpr CellIndex kNoCell = ~CellIndex{0};
  std::vector<CellIndex> cell_of(netlist.num_nodes(), kNoCell);
  std::vector<bool> is_output(netlist.num_nodes(), false);
  for (const NodeId out : netlist.outputs()) is_output[out] = true;

  MappedProgram program;
  program.row_width = options.row_width;

  // Pre-place inputs and constants at the start of the row.
  CellIndex next_fixed = 0;
  for (const NodeId in : netlist.inputs()) {
    cell_of[in] = next_fixed++;
    program.input_cells.push_back(cell_of[in]);
  }
  for (NodeId id = 0; id < netlist.num_nodes(); ++id) {
    const NodeType t = netlist.node(id).type;
    if (t == NodeType::kConstZero || t == NodeType::kConstOne) {
      cell_of[id] = next_fixed++;
      (t == NodeType::kConstOne ? program.one_cells : program.zero_cells)
          .push_back(cell_of[id]);
    }
  }
  // The fit check precedes every write indexed by a cell.
  if (next_fixed > options.row_width) {
    throw RowOverflowError("map_to_row: inputs do not fit in the row");
  }
  std::vector<bool> covered_cell(options.row_width, false);
  for (const CellIndex c : program.input_cells) covered_cell[c] = true;

  // All remaining cells are batch-initialized once up front.
  std::vector<CellIndex> ready;
  for (CellIndex c = next_fixed; c < options.row_width; ++c) ready.push_back(c);
  // Allocate from the low end first (ready acts as a stack; reverse so the
  // lowest cells pop first -- purely cosmetic determinism).
  std::reverse(ready.begin(), ready.end());
  {
    MappedOp init;
    init.kind = MappedOp::Kind::kInit;
    init.init_cells.assign(ready.rbegin(), ready.rend());
    program.ops.push_back(std::move(init));
    ++program.init_cycles;
  }

  std::vector<CellIndex> dirty;
  std::vector<CellIndex> dirty_covered;  // subset of dirty holding input data
  std::size_t live = next_fixed;
  program.peak_cells_used = live;

  for (const NodeId gate : order) {
    const Node& node = netlist.node(gate);
    // Acquire an initialized cell, batching a re-init cycle if needed.
    if (ready.empty()) {
      if (dirty.empty()) {
        throw RowOverflowError(
            "map_to_row: row width exceeded (netlist " + netlist.name() +
            ", live values " + std::to_string(live) + " of " +
            std::to_string(options.row_width) + " cells)");
      }
      MappedOp init;
      init.kind = MappedOp::Kind::kInit;
      init.init_cells = dirty;
      init.covered_cells = dirty_covered;
      for (const CellIndex c : dirty_covered) covered_cell[c] = false;
      program.ops.push_back(std::move(init));
      ++program.init_cycles;
      ready.assign(dirty.rbegin(), dirty.rend());
      dirty.clear();
      dirty_covered.clear();
    }
    const CellIndex out_cell = ready.back();
    ready.pop_back();
    ++live;
    program.peak_cells_used = std::max(program.peak_cells_used, live);

    MappedOp op;
    op.kind = MappedOp::Kind::kGate;
    op.node = gate;
    op.cell = out_cell;
    op.writes_output = is_output[gate];
    op.in_cells.reserve(node.fanins.size());
    for (const NodeId f : node.fanins) {
      if (cell_of[f] == kNoCell) {
        throw std::logic_error("map_to_row: fanin not resident (order bug)");
      }
      op.in_cells.push_back(cell_of[f]);
    }
    cell_of[gate] = out_cell;
    program.ops.push_back(std::move(op));
    ++program.gate_cycles;

    // Release fanins whose last consumer this was.
    for (const NodeId f : node.fanins) {
      if (--fanout[f] == 0) {
        const bool is_input_cell = netlist.node(f).type == NodeType::kInput;
        if (is_input_cell && !options.allow_input_recycling) continue;
        // Outputs were given an extra pin in fanout_counts(), so they can
        // never reach zero here.
        dirty.push_back(cell_of[f]);
        if (is_input_cell && covered_cell[cell_of[f]]) {
          dirty_covered.push_back(cell_of[f]);
        }
        cell_of[f] = kNoCell;
        --live;
      }
    }
  }

  for (const NodeId out : netlist.outputs()) {
    if (cell_of[out] == kNoCell) {
      throw std::logic_error("map_to_row: output not resident at end");
    }
    program.output_cells.push_back(cell_of[out]);
  }
  return program;
}

}  // namespace

MappedProgram map_to_row(const Netlist& netlist, const MapperOptions& options) {
  const std::vector<std::uint32_t> cu = compute_cell_usage(netlist);
  // Primary order: Sethi-Ullman-style CU-driven DFS (SIMPLER's heuristic).
  try {
    return allocate_row(netlist, options, evaluation_order(netlist, cu));
  } catch (const RowOverflowError&) {
    // Fall through to the construction-order schedule.
  }
  // Fallback: reachable gates in id (construction/topological) order.  For
  // wide-input reduction netlists (e.g. the 1001-bit voter) the
  // output-driven DFS parks every cross-cone value (all the carry bits)
  // while it chases one output cone; construction order interleaves the
  // cones and keeps liveness bounded.
  std::vector<bool> reachable(netlist.num_nodes(), false);
  {
    std::vector<NodeId> stack = netlist.outputs();
    for (const NodeId out : stack) reachable[out] = true;
    while (!stack.empty()) {
      const NodeId v = stack.back();
      stack.pop_back();
      for (const NodeId f : netlist.node(v).fanins) {
        if (!reachable[f]) {
          reachable[f] = true;
          stack.push_back(f);
        }
      }
    }
  }
  std::vector<NodeId> id_order;
  id_order.reserve(netlist.num_gates());
  for (NodeId id = 0; id < netlist.num_nodes(); ++id) {
    if (reachable[id] && netlist.node(id).type == NodeType::kNor) {
      id_order.push_back(id);
    }
  }
  return allocate_row(netlist, options, id_order);
}

}  // namespace pimecc::simpler
