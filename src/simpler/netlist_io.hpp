// pimecc -- simpler/netlist_io.hpp
//
// Text serialization of NOR netlists, in the spirit of BLIF but restricted
// to the NOR-only IR SIMPLER consumes.  Format ("pnl" -- pimecc netlist):
//
//   # comment
//   .model <name>
//   .inputs <count>
//   .const0 <id>            (optional, at most one)
//   .const1 <id>            (optional, at most one)
//   .nor <id> <fanin> [<fanin> ...]
//   .outputs <id> [<id> ...]
//   .end
//
// Node ids must be dense and ascending: inputs occupy 0..count-1 and every
// later directive must declare the next id in sequence (this mirrors the
// in-memory invariant that fanins reference earlier nodes).  Lines may
// appear in any order only for `.outputs`; everything else is positional.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>

#include "simpler/netlist.hpp"

namespace pimecc::simpler {

/// Serializes `netlist` into the .pnl text format.
[[nodiscard]] std::string write_netlist_text(const Netlist& netlist);
void write_netlist(std::ostream& os, const Netlist& netlist);

/// Largest `.inputs` count a .pnl document may declare: a count is read
/// before any node exists, so without a cap one line could make the parser
/// add billions of inputs.  The largest builtin netlist (voter) has 1,001.
inline constexpr std::size_t kMaxNetlistInputs = 65536;

/// Parses a .pnl document; throws std::runtime_error with a line number on
/// malformed input, including an `.inputs` count above kMaxNetlistInputs.
[[nodiscard]] Netlist read_netlist(std::istream& is);
[[nodiscard]] Netlist read_netlist_text(const std::string& text);

}  // namespace pimecc::simpler
