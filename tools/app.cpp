#include "app.hpp"

#include <algorithm>
#include <fstream>
#include <iostream>
#include <vector>

#include "arch/params.hpp"
#include "arch/scheduler.hpp"
#include "bench_circuits/circuits.hpp"
#include "simpler/ecc_schedule.hpp"
#include "simpler/mapper.hpp"
#include "simpler/netlist_io.hpp"
#include "util/parse.hpp"
#include "util/table.hpp"

namespace pimecc::tools {

std::uint64_t flag_u64(std::string_view flag, std::string_view value) {
  const auto parsed = util::parse_u64(value);
  if (!parsed) {
    throw UsageError(std::string(flag) + ": expected an unsigned integer, got '" +
                     std::string(value) + "'");
  }
  return *parsed;
}

std::size_t flag_size(std::string_view flag, std::string_view value) {
  const auto parsed = util::parse_size(value);
  if (!parsed) {
    throw UsageError(std::string(flag) + ": expected an unsigned integer, got '" +
                     std::string(value) + "'");
  }
  return *parsed;
}

double flag_double(std::string_view flag, std::string_view value) {
  const auto parsed = util::parse_double(value);
  if (!parsed) {
    throw UsageError(std::string(flag) + ": expected a finite number, got '" +
                     std::string(value) + "'");
  }
  return *parsed;
}

std::string flag_value(int argc, char** argv, int& i, std::string_view flag) {
  if (i + 1 >= argc) {
    throw UsageError("missing value for " + std::string(flag));
  }
  return argv[++i];
}

namespace {

constexpr std::string_view kProg = "pimecc map";

void map_usage(std::ostream& os) {
  os << "usage: " << kProg
     << " [--row-width N] [--block M] [--pcs K]\n"
        "                  [--coverage outputs|both] [--emit-netlist]\n"
        "                  [--timeline N] [--quiet] <netlist.pnl | builtin:NAME>\n";
}

}  // namespace

int run_map_tool(int argc, char** argv) {
  arch::ArchParams params;
  auto coverage = simpler::CoveragePolicy::kInputsAndOutputs;
  bool emit_netlist = false;
  bool quiet = false;
  std::size_t timeline_events = 0;
  std::string source;

  try {
    for (int i = 2; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "--row-width") {
        params.n = flag_size(arg, flag_value(argc, argv, i, arg));
      } else if (arg == "--block") {
        params.m = flag_size(arg, flag_value(argc, argv, i, arg));
      } else if (arg == "--pcs") {
        params.num_pcs = flag_size(arg, flag_value(argc, argv, i, arg));
      } else if (arg == "--coverage") {
        const std::string mode = flag_value(argc, argv, i, arg);
        if (mode == "outputs") {
          coverage = simpler::CoveragePolicy::kOutputsOnly;
        } else if (mode == "both") {
          coverage = simpler::CoveragePolicy::kInputsAndOutputs;
        } else {
          throw UsageError("unknown coverage mode '" + mode + "'");
        }
      } else if (arg == "--emit-netlist") {
        emit_netlist = true;
      } else if (arg == "--timeline") {
        timeline_events = flag_size(arg, flag_value(argc, argv, i, arg));
      } else if (arg == "--quiet") {
        quiet = true;
      } else if (arg == "--help" || arg == "-h") {
        map_usage(std::cout);
        return 0;
      } else if (!arg.empty() && arg[0] == '-') {
        throw UsageError("unknown option '" + arg + "'");
      } else if (source.empty()) {
        source = arg;
      } else {
        throw UsageError("more than one netlist argument");
      }
    }
    if (source.empty()) {
      throw UsageError("missing netlist argument");
    }
  } catch (const UsageError& e) {
    std::cerr << kProg << ": " << e.what() << '\n';
    map_usage(std::cerr);
    return 1;
  }

  simpler::Netlist netlist("empty");
  try {
    if (source.rfind("builtin:", 0) == 0) {
      netlist = circuits::build_circuit(source.substr(8)).netlist;
    } else {
      std::ifstream file(source);
      if (!file) {
        std::cerr << kProg << ": cannot open '" << source << "'\n";
        return 1;
      }
      netlist = simpler::read_netlist(file);
    }
  } catch (const std::exception& e) {
    std::cerr << kProg << ": " << e.what() << '\n';
    return 1;
  }

  if (emit_netlist) {
    std::cout << simpler::write_netlist_text(netlist);
    return 0;
  }

  try {
    params.validate();
    simpler::MapperOptions options;
    options.row_width = params.n;
    const simpler::MappedProgram program = simpler::map_to_row(netlist, options);
    std::vector<arch::ScheduledEvent> events;
    const simpler::EccScheduleResult sched = simpler::schedule_with_ecc(
        program, params, coverage, timeline_events > 0 ? &events : nullptr);
    const std::size_t min_pcs = simpler::find_min_pcs(program, params, coverage);

    if (quiet) {
      std::cout << netlist.name() << " baseline=" << sched.baseline_cycles
                << " proposed=" << sched.proposed_cycles << " overhead="
                << util::format_pct(sched.overhead_fraction()) << " min_pcs="
                << min_pcs << '\n';
      return 0;
    }
    util::Table table({"Metric", "Value"});
    table.add_row({"netlist", netlist.name()});
    table.add_row({"inputs / outputs / gates",
                   std::to_string(netlist.num_inputs()) + " / " +
                       std::to_string(netlist.num_outputs()) + " / " +
                       std::to_string(netlist.num_gates())});
    table.add_row({"row width (n)", std::to_string(params.n)});
    table.add_row({"peak cells used", std::to_string(program.peak_cells_used)});
    table.add_row({"baseline cycles (gates + inits)",
                   std::to_string(program.gate_cycles) + " + " +
                       std::to_string(program.init_cycles) + " = " +
                       std::to_string(sched.baseline_cycles)});
    table.add_row({"proposed cycles (with ECC)",
                   std::to_string(sched.proposed_cycles)});
    table.add_row({"latency overhead",
                   util::format_pct(sched.overhead_fraction())});
    table.add_row({"critical ops / cancels",
                   std::to_string(sched.critical_ops) + " / " +
                       std::to_string(sched.cancel_ops)});
    table.add_row({"MEM stall cycles", std::to_string(sched.stall_cycles)});
    table.add_row({"min processing crossbars", std::to_string(min_pcs)});
    std::cout << table;
    if (timeline_events > 0) {
      std::stable_sort(events.begin(), events.end(),
                       [](const arch::ScheduledEvent& a,
                          const arch::ScheduledEvent& b) {
                         return a.cycle < b.cycle;
                       });
      std::cout << "\ntimeline (first " << timeline_events << " events):\n";
      for (std::size_t i = 0; i < events.size() && i < timeline_events; ++i) {
        const arch::ScheduledEvent& e = events[i];
        std::cout << "  [" << e.cycle;
        if (e.span > 1) std::cout << ".." << e.cycle + e.span - 1;
        std::cout << "] " << e.unit_name() << ' ' << e.label << '\n';
      }
    }
    return 0;
  } catch (const std::runtime_error& e) {
    std::cerr << kProg << ": " << e.what() << '\n';
    return 2;
  } catch (const std::exception& e) {
    std::cerr << kProg << ": " << e.what() << '\n';
    return 1;
  }
}

}  // namespace pimecc::tools
