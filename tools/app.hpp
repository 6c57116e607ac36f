// pimecc -- tools/app.hpp
//
// Scaffolding of the `pimecc` command line: checked flag parsing on top of
// util/parse -- a malformed numeric value raises UsageError, which main()
// turns into a usage message and exit status 1, never an uncaught
// std::stoull std::invalid_argument and a std::terminate -- plus the
// `pimecc map` implementation.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>

namespace pimecc::tools {

/// Any bad command-line input.  Tool mains catch it, print the message and
/// the tool's usage to stderr, and exit 1.
class UsageError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Strict flag-value parsers: throw UsageError naming the flag unless the
/// whole value is a valid in-range literal.
[[nodiscard]] std::uint64_t flag_u64(std::string_view flag,
                                     std::string_view value);
[[nodiscard]] std::size_t flag_size(std::string_view flag,
                                    std::string_view value);
[[nodiscard]] double flag_double(std::string_view flag, std::string_view value);

/// argv[i + 1] as the value of flag argv[i]; advances i.  Throws UsageError
/// when the value is missing.
[[nodiscard]] std::string flag_value(int argc, char** argv, int& i,
                                     std::string_view flag);

/// `pimecc map [options] <netlist.pnl | builtin:NAME>`: maps a netlist and
/// schedules it under the ECC architecture.  `argv[2..argc)` are the map
/// options:
///
///   --row-width N      crossbar row width (default 1020)
///   --block N          ECC block size m, odd (default 15)
///   --pcs K            processing crossbars (default 3)
///   --coverage MODE    outputs | both (default both)
///   --emit-netlist     print the parsed netlist back out (canonical .pnl)
///   --timeline N       print the first N scheduled resource events
///   --quiet            stats line only
///
/// `builtin:NAME` loads one of the bundled EPFL-like benchmarks (adder,
/// arbiter, bar, cavlc, ctrl, dec, int2float, max, priority, sin, voter).
/// Exit status: 0 success, 1 usage/parse error, 2 netlist does not fit the
/// row.
int run_map_tool(int argc, char** argv);

}  // namespace pimecc::tools
