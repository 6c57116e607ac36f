#include "simpler/netlist_io.hpp"

#include <istream>
#include <limits>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <vector>

namespace pimecc::simpler {

namespace {

[[noreturn]] void fail(std::size_t line_no, const std::string& what) {
  throw std::runtime_error("netlist parse error at line " +
                           std::to_string(line_no) + ": " + what);
}

}  // namespace

void write_netlist(std::ostream& os, const Netlist& netlist) {
  os << ".model " << netlist.name() << '\n';
  // Inputs forming a dense prefix are batched; stragglers (inputs added
  // after gates) are emitted individually.
  NodeId prefix = 0;
  while (prefix < netlist.num_nodes() &&
         netlist.node(prefix).type == NodeType::kInput) {
    ++prefix;
  }
  os << ".inputs " << prefix << '\n';
  for (NodeId id = prefix; id < netlist.num_nodes(); ++id) {
    const Node& node = netlist.node(id);
    switch (node.type) {
      case NodeType::kInput:
        os << ".input " << id << '\n';
        break;
      case NodeType::kConstZero:
        os << ".const0 " << id << '\n';
        break;
      case NodeType::kConstOne:
        os << ".const1 " << id << '\n';
        break;
      case NodeType::kNor:
        os << ".nor " << id;
        for (const NodeId f : node.fanins) os << ' ' << f;
        os << '\n';
        break;
    }
  }
  os << ".outputs";
  for (const NodeId out : netlist.outputs()) os << ' ' << out;
  os << '\n';
  os << ".end\n";
}

std::string write_netlist_text(const Netlist& netlist) {
  std::ostringstream os;
  write_netlist(os, netlist);
  return os.str();
}

Netlist read_netlist(std::istream& is) {
  std::string model_name = "netlist";
  Netlist netlist(model_name);
  bool saw_model = false;
  bool saw_inputs = false;
  bool saw_end = false;
  NodeId next_id = 0;
  std::vector<NodeId> pending_outputs;

  std::string line;
  std::size_t line_no = 0;
  while (std::getline(is, line)) {
    ++line_no;
    const std::size_t comment = line.find('#');
    if (comment != std::string::npos) line.resize(comment);
    std::istringstream tokens(line);
    std::string directive;
    if (!(tokens >> directive)) continue;  // blank line
    if (saw_end) fail(line_no, "content after .end");

    if (directive == ".model") {
      if (saw_model) fail(line_no, "duplicate .model");
      if (!(tokens >> model_name)) fail(line_no, ".model needs a name");
      netlist = Netlist(model_name);
      saw_model = true;
    } else if (directive == ".inputs") {
      if (!saw_model) fail(line_no, ".inputs before .model");
      if (saw_inputs) fail(line_no, "duplicate .inputs");
      // A leading '-' would wrap to a huge unsigned count, and a huge count
      // would loop add_input() into bad_alloc (or truncate the ids beyond
      // NodeId): reject both before any add_input().
      static_assert(kMaxNetlistInputs <= std::numeric_limits<NodeId>::max());
      std::size_t count = 0;
      if ((tokens >> std::ws).peek() == '-') {
        fail(line_no, ".inputs count must not be negative");
      }
      if (!(tokens >> count)) fail(line_no, ".inputs needs a count");
      if (count > kMaxNetlistInputs) {
        std::string what(".inputs count exceeds the cap of ");
        what += std::to_string(kMaxNetlistInputs);
        fail(line_no, what);
      }
      for (std::size_t i = 0; i < count; ++i) netlist.add_input();
      next_id = static_cast<NodeId>(count);
      saw_inputs = true;
    } else if (directive == ".input") {
      NodeId id = 0;
      if (!(tokens >> id)) fail(line_no, ".input needs an id");
      if (id != next_id) fail(line_no, "ids must be dense and ascending");
      netlist.add_input();
      ++next_id;
    } else if (directive == ".const0" || directive == ".const1") {
      NodeId id = 0;
      if (!(tokens >> id)) fail(line_no, directive + " needs an id");
      if (id != next_id) fail(line_no, "ids must be dense and ascending");
      netlist.add_const(directive == ".const1");
      ++next_id;
    } else if (directive == ".nor") {
      NodeId id = 0;
      if (!(tokens >> id)) fail(line_no, ".nor needs an id");
      if (id != next_id) fail(line_no, "ids must be dense and ascending");
      std::vector<NodeId> fanins;
      NodeId f = 0;
      while (tokens >> f) fanins.push_back(f);
      if (fanins.empty()) fail(line_no, ".nor needs at least one fanin");
      try {
        netlist.add_nor(std::span<const NodeId>(fanins));
      } catch (const std::invalid_argument& e) {
        fail(line_no, e.what());
      }
      ++next_id;
    } else if (directive == ".outputs") {
      NodeId out = 0;
      while (tokens >> out) pending_outputs.push_back(out);
    } else if (directive == ".end") {
      saw_end = true;
    } else {
      fail(line_no, "unknown directive '" + directive + "'");
    }
  }
  if (!saw_end) fail(line_no, "missing .end");
  for (const NodeId out : pending_outputs) {
    if (out >= netlist.num_nodes()) {
      fail(line_no, "output references unknown node");
    }
    netlist.mark_output(out);
  }
  return netlist;
}

Netlist read_netlist_text(const std::string& text) {
  std::istringstream is(text);
  return read_netlist(is);
}

}  // namespace pimecc::simpler
