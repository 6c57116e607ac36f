// pimecc -- the serving front end: one binary, PISA-style subcommands.
//
// Usage:
//   pimecc map   [--row-width N] [--block M] [--pcs K] [--coverage MODE]
//                [--emit-netlist] [--timeline N] [--quiet]
//                <netlist.pnl | builtin:NAME>
//   pimecc run   [--circuit NAME] [--n N] [--m M] [--seed S]
//   pimecc mttf  [--fit F] [--period H] [--n N] [--m M] [--gib G]
//                [--simulate] [--trials T] [--crossbars C] [--max-hours H]
//                [--threads K] [--chunk T] [--checkpoint PATH] [--seed S]
//   pimecc sweep [--fit-low F] [--fit-high F] [--ppd N] [--period H]
//                [--n N] [--m M] [--gib G] [--batch B] [--lanes L]
//   pimecc sweep --scenarios [--fit F] [--period H] [--n N] [--m M]
//                [--trials T] [--horizon H] [--seed S] [--batch B] [--lanes L]
//   pimecc serve --trace FILE|- [--batch B] [--lanes L] [--max-pending P]
//                [--stats]
//
// `map` maps a netlist and schedules it under the ECC architecture
// (tools/app.hpp, run_map_tool; exit 2 when it does not fit the row).
// `run` executes one benchmark end-to-end on the ECC-protected
// machine.  `mttf` evaluates the closed-form model; with --simulate it
// also runs the Monte Carlo lifetime engine, resumable via --checkpoint
// (interrupt it, rerun the identical command, and it continues from the
// last completed chunk with bit-identical results).  `sweep` drives one
// analytic mttf request per point of rel::sweep_fits' grid through the
// batched server; with --scenarios it instead drives one Monte Carlo
// scenario request per fault-model x scrub-policy combination
// (reliability/scenario.hpp) and prints the MTTF-vs-scrub-overhead grid.
// `serve` is the daemon loop: it reads request lines (see
// serve/request.hpp for the format) from a trace file or stdin, serves
// them in admission batches on the shared executor, and prints one
// response line per request in submission order.
//
// For run, mttf and sweep, argv is one more spelling of a request line:
// `pimecc run --circuit ctrl --n 60` is the line `run circuit=ctrl n=60`,
// parsed by serve::parse_request and served through submit/drain/take
// like any trace line (argv_request below).  Only the flags that are not
// request keys -- mttf's campaign flags, --batch, --lanes, --scenarios --
// are read here.
//
// Exit status: 0 on success, 1 on bad usage or a failed run/mttf request
// (map keeps its 0/1/2 contract).
#include <algorithm>
#include <csignal>
#include <cstdint>
#include <fstream>
#include <functional>
#include <initializer_list>
#include <iostream>
#include <optional>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "app.hpp"
#include "reliability/analytic.hpp"
#include "reliability/lifetime.hpp"
#include "reliability/scenario.hpp"
#include "serve/server.hpp"
#include "util/chaos.hpp"
#include "util/ckpt_store.hpp"
#include "util/rng.hpp"
#include "util/serialize.hpp"

namespace {

using namespace pimecc;

// Graceful-shutdown latch for `pimecc serve`: SIGINT/SIGTERM request a
// drain-and-exit instead of killing the process mid-batch.
volatile std::sig_atomic_t g_stop_requested = 0;

extern "C" void handle_stop_signal(int) { g_stop_requested = 1; }

void usage(std::ostream& os) {
  os << "usage: pimecc <map|run|mttf|sweep|serve> [options]\n"
        "  map    [--row-width N] [--block M] [--pcs K] [--coverage MODE]\n"
        "         [--emit-netlist] [--timeline N] [--quiet]\n"
        "         <netlist.pnl | builtin:NAME>\n"
        "  run    [--circuit NAME] [--n N] [--m M] [--seed S]\n"
        "  mttf   [--fit F] [--period H] [--n N] [--m M] [--gib G]\n"
        "         [--simulate] [--trials T] [--crossbars C] [--max-hours H]\n"
        "         [--threads K] [--chunk T] [--checkpoint PATH] [--seed S]\n"
        "  sweep  [--fit-low F] [--fit-high F] [--ppd N] [--period H]\n"
        "         [--n N] [--m M] [--gib G] [--batch B] [--lanes L]\n"
        "  sweep  --scenarios [--fit F] [--period H] [--n N] [--m M]\n"
        "         [--trials T] [--horizon H] [--seed S] [--batch B] [--lanes L]\n"
        "  serve  --trace FILE|- [--batch B] [--lanes L] [--max-pending P]\n"
        "         [--stats]\n";
}

int fail_usage(const tools::UsageError& e) {
  std::cerr << "pimecc: " << e.what() << '\n';
  usage(std::cerr);
  return 1;
}

/// Consumes argv[i] (and its value) when it is one of the subcommand's own
/// flags, not a request key; returns false for an unknown flag.
using LocalFlag = std::function<bool(const std::string& flag, int& i)>;

/// The subcommand's argv as one request line: each `--name value` whose
/// name is in `keys` becomes the token `name=value` (hyphens turned into
/// underscores, `--fit-low` -> `fit_low`) of a `kind` line, and `defaults`
/// (`key=value` tokens) are appended for keys argv did not give.  The line
/// reaches serve::Request only through serve::parse_request, so argv and
/// trace lines share one grammar, one set of defaults and one set of
/// checks; a line it rejects is a UsageError carrying its message.  Any
/// other flag goes to `local`.
serve::Request argv_request(std::string_view kind,
                            std::initializer_list<std::string_view> keys,
                            int argc, char** argv, const LocalFlag& local = {},
                            std::initializer_list<std::string_view> defaults = {}) {
  const std::string command = argv[1];
  std::string line(kind);
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0 ||
        std::find(keys.begin(), keys.end(), std::string_view(arg).substr(2)) ==
            keys.end()) {
      if (!local || !local(arg, i)) {
        throw tools::UsageError(command + ": unknown option '" + arg + "'");
      }
      continue;
    }
    const std::string value = tools::flag_value(argc, argv, i, arg);
    // A blank would split the value into tokens of its own (`--circuit
    // "ctrl n=60"` must not set n), so " key=" below only matches a key.
    if (value.find_first_of(" \t\r\n") != std::string::npos) {
      throw tools::UsageError(arg + ": value must not contain whitespace");
    }
    std::string key = arg.substr(2);
    std::replace(key.begin(), key.end(), '-', '_');
    line.append(" ").append(key).append("=").append(value);
  }
  for (const std::string_view token : defaults) {
    const std::string_view key = token.substr(0, token.find('=') + 1);
    if (line.find(std::string(" ").append(key)) == std::string::npos) {
      line.append(" ").append(token);
    }
  }
  serve::Request request;
  std::string error;
  if (!serve::parse_request(line, request, error)) {
    throw tools::UsageError(command + ": " + error);
  }
  return request;
}

/// `--batch B` / `--lanes L`: the server's admission batch and lane cap.
bool server_flag(serve::ServerConfig& config, const std::string& arg,
                 int argc, char** argv, int& i) {
  if (arg == "--batch") {
    config.max_batch =
        tools::flag_size(arg, tools::flag_value(argc, argv, i, arg));
  } else if (arg == "--lanes") {
    config.lanes = tools::flag_size(arg, tools::flag_value(argc, argv, i, arg));
  } else {
    return false;
  }
  return true;
}

/// Serves `requests` through the daemon's one path -- submit, drain, take
/// -- and returns the responses in submission order.
std::vector<serve::Response> serve_all(std::vector<serve::Request> requests,
                                       const serve::ServerConfig& config = {}) {
  serve::Server server(config);
  std::vector<std::uint64_t> tickets;
  for (serve::Request& request : requests) {
    tickets.push_back(server.submit(std::move(request)));
  }
  server.drain();
  std::vector<serve::Response> responses;
  for (const std::uint64_t ticket : tickets) {
    responses.push_back(server.take(ticket));
  }
  return responses;
}

int cmd_run(int argc, char** argv) {
  const serve::Response response =
      serve_all({argv_request("run", {"circuit", "n", "m", "seed"}, argc, argv)})
          .front();
  std::cout << serve::format_response(response) << '\n';
  return response.ok && response.mismatches == 0 ? 0 : 1;
}

int cmd_mttf(int argc, char** argv) {
  // The lifetime campaign's flags; the analytic point is the request.
  bool simulate = false;
  rel::LifetimeConfig config;
  config.trials = 200;
  std::string checkpoint_path;
  std::size_t chunk = 50;
  std::uint64_t seed = 1;
  const LocalFlag campaign_flag = [&](const std::string& arg, int& i) {
    if (arg == "--simulate") {
      simulate = true;
    } else if (arg == "--trials") {
      config.trials =
          tools::flag_size(arg, tools::flag_value(argc, argv, i, arg));
    } else if (arg == "--crossbars") {
      config.crossbars =
          tools::flag_size(arg, tools::flag_value(argc, argv, i, arg));
    } else if (arg == "--max-hours") {
      config.max_hours =
          tools::flag_double(arg, tools::flag_value(argc, argv, i, arg));
    } else if (arg == "--threads") {
      config.threads =
          tools::flag_size(arg, tools::flag_value(argc, argv, i, arg));
    } else if (arg == "--chunk") {
      chunk = tools::flag_size(arg, tools::flag_value(argc, argv, i, arg));
    } else if (arg == "--checkpoint") {
      checkpoint_path = tools::flag_value(argc, argv, i, arg);
    } else if (arg == "--seed") {
      seed = tools::flag_u64(arg, tools::flag_value(argc, argv, i, arg));
    } else {
      return false;
    }
    return true;
  };
  const serve::Request request =
      argv_request("mttf", {"fit", "period", "n", "m", "gib"}, argc, argv,
                   campaign_flag);

  const serve::Response response = serve_all({request}).front();
  std::cout << serve::format_response(response) << '\n';
  if (!response.ok) return 1;
  if (!simulate) return 0;

  config.n = request.n;
  config.m = request.m;
  config.fit_per_bit = request.fit_per_bit;
  config.scrub_period_hours = request.period_hours;

  try {
    rel::LifetimeProgress progress;
    bool resumed = false;
    std::optional<util::CheckpointStore> store;
    if (!checkpoint_path.empty()) {
      store.emplace(checkpoint_path);
      // Recovery scans the rotated generations newest-first and resumes
      // from the latest one that decodes against this config; a torn or
      // corrupted generation is skipped, not fatal.
      rel::LifetimeProgress candidate;
      const auto recovered =
          store->recover([&](std::span<const std::uint8_t> bytes) {
            std::istringstream in(
                std::string(reinterpret_cast<const char*>(bytes.data()),
                            bytes.size()),
                std::ios::binary);
            candidate = rel::load_lifetime_checkpoint(in, config);
            return true;
          });
      if (recovered.has_value()) {
        progress = candidate;
        resumed = true;
        std::cout << "resumed checkpoint: " << progress.trials_done << '/'
                  << config.trials << " trials done (generation "
                  << recovered->generation << ", " << recovered->rejected
                  << " rejected)\n";
      }
    }
    if (!resumed) {
      util::Rng rng(seed);
      progress = rel::begin_lifetime(config, rng);
    }
    while (!rel::lifetime_complete(config, progress)) {
      rel::advance_lifetime(config, progress, chunk);
      if (store.has_value()) {
        std::ostringstream out(std::ios::binary);
        rel::save_lifetime_checkpoint(out, config, progress);
        const std::string blob = out.str();
        try {
          // Atomic temp + fsync + rename into the rotated generations;
          // transient failures retry with backoff inside save().
          store->save(std::span<const std::uint8_t>(
              reinterpret_cast<const std::uint8_t*>(blob.data()),
              blob.size()));
        } catch (const util::chaos::IoError& e) {
          std::cerr << "pimecc: cannot write checkpoint '" << checkpoint_path
                    << "': " << e.what() << '\n';
          return 1;
        }
      }
    }
    const rel::LifetimeResult result = rel::lifetime_result(progress);
    std::cout << "simulated trials=" << result.trials
              << " failures=" << result.failures
              << " scrubs=" << result.scrubs_performed
              << " corrected=" << result.errors_corrected
              << " empirical_mttf_h="
              << result.empirical_mttf_hours(config.max_hours)
              << " analytic_mttf_h=" << rel::analytic_mttf_hours(config)
              << '\n';
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "pimecc: " << e.what() << '\n';
    return 1;
  }
}

int cmd_sweep_scenarios(int argc, char** argv) {
  serve::ServerConfig server_config;
  const serve::Request point = argv_request(
      "scenario", {"fit", "period", "n", "m", "trials", "horizon", "seed"},
      argc, argv,
      [&](const std::string& arg, int& i) {
        return arg == "--scenarios" ||
               server_flag(server_config, arg, argc, argv, i);
      },
      {"n=60"});  // the scenario engine's tractable default, not mttf's 1020

  // One Monte Carlo scenario request per fault-model x scrub-policy cell.
  std::vector<serve::Request> cells;
  for (const std::string_view model : rel::fault_preset_names()) {
    for (const std::string_view policy : rel::scrub_policy_preset_names()) {
      serve::Request cell = point;
      cell.model = std::string(model);
      cell.policy = std::string(policy);
      cells.push_back(std::move(cell));
    }
  }
  const std::vector<serve::Response> responses = serve_all(cells, server_config);
  bool all_ok = true;
  for (std::size_t c = 0; c < cells.size(); ++c) {
    std::cout << "model=" << cells[c].model << " policy=" << cells[c].policy
              << ' ' << serve::format_response(responses[c]) << '\n';
    all_ok = all_ok && responses[c].ok;
  }
  return all_ok ? 0 : 1;
}

int cmd_sweep(int argc, char** argv) {
  for (int i = 2; i < argc; ++i) {
    if (std::string(argv[i]) == "--scenarios") {
      return cmd_sweep_scenarios(argc, argv);
    }
  }
  serve::ServerConfig server_config;
  const serve::Request sweep = argv_request(
      "sweep", {"fit-low", "fit-high", "ppd", "period", "n", "m", "gib"}, argc,
      argv,
      [&](const std::string& arg, int& i) {
        return server_flag(server_config, arg, argc, argv, i);
      });
  // One analytic mttf request per point of the sweep line's grid.
  std::vector<serve::Request> points;
  try {
    for (const double fit : rel::sweep_fits(sweep.fit_low, sweep.fit_high,
                                             sweep.points_per_decade)) {
      serve::Request point = sweep;
      point.kind = serve::RequestKind::kMttf;
      point.fit_per_bit = fit;
      points.push_back(std::move(point));
    }
  } catch (const std::invalid_argument& e) {
    throw tools::UsageError(std::string("sweep: ") + e.what());
  }
  const std::vector<serve::Response> responses = serve_all(points, server_config);
  bool all_ok = true;
  for (std::size_t p = 0; p < points.size(); ++p) {
    std::cout << "fit=" << points[p].fit_per_bit << ' '
              << serve::format_response(responses[p]) << '\n';
    all_ok = all_ok && responses[p].ok;
  }
  return all_ok ? 0 : 1;
}

int cmd_serve(int argc, char** argv) {
  std::string trace_path;
  serve::ServerConfig server_config;
  bool print_stats = false;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--trace") {
      trace_path = tools::flag_value(argc, argv, i, arg);
    } else if (server_flag(server_config, arg, argc, argv, i)) {
      continue;
    } else if (arg == "--max-pending") {
      server_config.max_pending =
          tools::flag_size(arg, tools::flag_value(argc, argv, i, arg));
    } else if (arg == "--stats") {
      print_stats = true;
    } else {
      throw tools::UsageError("serve: unknown option '" + arg + "'");
    }
  }
  if (trace_path.empty()) {
    throw tools::UsageError("serve: --trace FILE|- is required");
  }

  std::ifstream file;
  if (trace_path != "-") {
    file.open(trace_path);
    if (!file) {
      std::cerr << "pimecc: cannot open trace '" << trace_path << "'\n";
      return 1;
    }
  }
  std::istream& in = trace_path == "-" ? std::cin : file;

  // Graceful shutdown: SIGINT/SIGTERM stop admission, already-served work
  // still gets its response lines, queued-but-unserved tickets are
  // reported as cancelled.
  g_stop_requested = 0;
  std::signal(SIGINT, handle_stop_signal);
  std::signal(SIGTERM, handle_stop_signal);

  // The daemon loop: admit requests, serve a batch whenever max_batch are
  // pending (or the trace ends), answer in submission order.  A line that
  // cannot be parsed or admitted gets an immediate error line in its slot
  // (sentinel ticket), so the transcript stays one line per request.
  serve::Server server(server_config);
  constexpr std::uint64_t kNoTicket = ~std::uint64_t{0};
  std::vector<std::uint64_t> tickets;
  std::vector<std::string> early_lines;  // aligned with tickets via sentinel
  std::string line;
  while (g_stop_requested == 0 && std::getline(in, line)) {
    serve::Request request;
    std::string error;
    if (serve::parse_request(line, request, error)) {
      const serve::RequestKind kind = request.kind;
      serve::Admission admission = server.try_submit(std::move(request));
      if (admission.admitted) {
        tickets.push_back(admission.ticket);
        early_lines.emplace_back();
        if (server.pending() >= server_config.max_batch) server.drain_once();
      } else {
        // Backpressure: the rejection is itself the response.
        serve::Response rejected;
        rejected.kind = kind;
        rejected.code = admission.code;
        rejected.error = admission.message;
        tickets.push_back(kNoTicket);
        early_lines.push_back(serve::format_response(rejected));
      }
    } else if (!error.empty()) {
      // No request kind to report: the line never parsed.
      tickets.push_back(kNoTicket);
      early_lines.push_back("error kind=parse code=invalid_argument message=\"" +
                            error + '"');
    }
  }
  std::size_t cancelled = 0;
  if (g_stop_requested != 0) {
    // Stop admitting and fail the queued remainder; whatever a drain has
    // already published still reaches the transcript below.
    cancelled = server.shutdown();
  } else {
    server.drain();
    server.close();
  }
  for (std::size_t i = 0; i < tickets.size(); ++i) {
    if (tickets[i] == kNoTicket) {
      std::cout << early_lines[i] << '\n';
    } else {
      std::cout << serve::format_response(server.take(tickets[i])) << '\n';
    }
  }
  if (g_stop_requested != 0) {
    std::cerr << "pimecc: serve interrupted: " << cancelled
              << " queued request(s) cancelled\n";
  }
  if (print_stats) {
    const serve::RegistryStats stats = server.registry().stats();
    std::cerr << "registry: circuits " << stats.circuit_hits << " hit / "
              << stats.circuit_misses << " miss; programs "
              << stats.program_hits << " hit / " << stats.program_misses
              << " miss; machines " << stats.machine_reuses << " reused / "
              << stats.machine_builds << " built\n";
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    usage(std::cerr);
    return 1;
  }
  const std::string command = argv[1];
  try {
    if (command == "map") {
      return tools::run_map_tool(argc, argv);
    } else if (command == "run") {
      return cmd_run(argc, argv);
    } else if (command == "mttf") {
      return cmd_mttf(argc, argv);
    } else if (command == "sweep") {
      return cmd_sweep(argc, argv);
    } else if (command == "serve") {
      return cmd_serve(argc, argv);
    } else if (command == "--help" || command == "-h") {
      usage(std::cout);
      return 0;
    }
    throw tools::UsageError("unknown command '" + command + "'");
  } catch (const tools::UsageError& e) {
    return fail_usage(e);
  } catch (const std::exception& e) {
    std::cerr << "pimecc: " << e.what() << '\n';
    return 1;
  }
}
