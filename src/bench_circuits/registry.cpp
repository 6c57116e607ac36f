#include "bench_circuits/circuits.hpp"

#include <stdexcept>

namespace pimecc::circuits {

const std::vector<std::string>& circuit_names() {
  static const std::vector<std::string> kNames = {
      "adder", "arbiter", "bar",      "cavlc", "ctrl",  "dec",
      "int2float", "max", "priority", "sin",   "voter",
  };
  return kNames;
}

CircuitSpec build_circuit(const std::string& name) {
  if (name == "adder") return build_adder();
  if (name == "arbiter") return build_arbiter();
  if (name == "bar") return build_bar();
  if (name == "cavlc") return build_cavlc();
  if (name == "ctrl") return build_ctrl();
  if (name == "dec") return build_dec();
  if (name == "int2float") return build_int2float();
  if (name == "max") return build_max();
  if (name == "priority") return build_priority();
  if (name == "sin") return build_sin();
  if (name == "voter") return build_voter();
  throw std::invalid_argument("build_circuit: unknown circuit '" + name + "'");
}

}  // namespace pimecc::circuits
