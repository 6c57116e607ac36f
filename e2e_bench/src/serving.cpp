// e2e_bench -- serving.cpp: the run_n1020 and control_mix workloads.
//
// The client is single-threaded and closed-loop, and speaks the daemon's
// text protocol exactly as `pimecc serve` does: it parses a window of
// request lines (serve::parse_request), submits each (Server::submit),
// drains them (Server::drain -> drain_once on the shared executor at full
// lane width), then takes and formats every response in order
// (Server::take, serve::format_response).  The next window is sent only
// when the previous one has been answered.  run_n1020's window is
// max_batch, as when the daemon reads a trace; control_mix's is one
// request, an interactive client.  A request's latency runs from the start
// of its parse to the end of its format; the server runs with its defaults
// (max_batch 32, full-width lanes).
//
// Correctness gate, on every run:
//   - every response is `ok`; every `run` has mismatches=0 and
//     ecc_consistent=1;
//   - each served response line equals the line a fresh Server::execute
//     gives for the same request, executed serially after the timed loop
//     (responses are pure functions of requests);
//   - the traced replay gives the same response lines, and its per-request
//     MachineCounters equal those of simpler::run_program_protected -- the
//     product path -- on a fresh machine with the same request seed.
//
// The traced replay replaces drain_once with util::parallel_for over a
// replica of Server::handle built from the layers' public calls (registry,
// PimMachine, simpler, rel, bench_circuits), with a span around each call.
#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "arch/pim_machine.hpp"
#include "reliability/analytic.hpp"
#include "serve/server.hpp"
#include "simpler/ecc_schedule.hpp"
#include "simpler/protected_vm.hpp"
#include "simpler/row_vm.hpp"
#include "util/executor.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace e2e {
namespace {

using namespace pimecc;

constexpr std::size_t kN = 1020;
constexpr std::size_t kM = 15;

// Circuits the generator may name.  Every one maps onto a 1020-cell row
// (each is also self-checked at set-up).  Smaller n is deliberately absent:
// simpler::allocate_row writes covered_cell for every input before its fit
// check, so e.g. `run circuit=voter n=60` corrupts the heap instead of
// failing -- see NOTES.md.
constexpr std::array<const char*, 5> kCircuits = {"ctrl", "int2float", "cavlc",
                                                  "dec", "priority"};

// Request-ring sizes.  run_n1020 gives every request of a run its own seed
// as long as the run stays under kRunRing requests.
constexpr std::size_t kRunRing = 8192;
constexpr std::size_t kMixRing = 4800;  // 160 blocks of 30 (3 kinds x 10 maps)

// How long a single-threaded loop stays on one CPU before moving on.
constexpr std::int64_t kCpuTurnNs = 50'000'000;

std::string format_line(const char* fmt, auto... args) {
  char buffer[256];
  const int written = std::snprintf(buffer, sizeof(buffer), fmt, args...);
  if (written < 0 || static_cast<std::size_t>(written) >= sizeof(buffer)) {
    throw std::logic_error("request line does not fit its buffer");
  }
  return buffer;
}

std::vector<std::string> make_run_ring(std::uint64_t seed) {
  util::Rng rng(seed ^ 0x52554E5F4E313032ull);
  std::vector<std::string> ring;
  ring.reserve(kRunRing);
  for (std::size_t i = 0; i < kRunRing; ++i) {
    const unsigned long long request_seed = rng.next() >> 16;
    ring.push_back(format_line("run circuit=%s n=%zu m=%zu seed=%llu",
                               kCircuits[i % kCircuits.size()], kN, kM,
                               request_seed));
  }
  return ring;
}

std::vector<std::string> make_mix_ring(std::uint64_t seed) {
  util::Rng rng(seed ^ 0x4D49585F31303230ull);
  constexpr std::array<double, 4> kPeriods = {12.0, 24.0, 48.0, 168.0};
  constexpr std::array<double, 3> kGib = {1.0, 4.0, 16.0};
  // The shares follow bench/bench_serving's mix, an equal rotation of the
  // request kinds, without its `run` (that is run_n1020's workload): map,
  // mttf and sweep a third each, the maps cycling the circuits and
  // alternating minpcs=0/1 in equal shares, each sweep two decades at two
  // points per decade as there.  Every ring holds the same multiset of
  // request shapes, so latency percentiles do not move with the seed; the
  // seed draws the cost-neutral values (fit, period, size) and the order.
  // Sorted by latency the kinds fall mttf < sweep < map, so p50 measures a
  // sweep request and the tail a minpcs map; see NOTES.md.
  std::vector<std::string> ring;
  ring.reserve(kMixRing);
  std::size_t maps = 0;
  for (std::size_t i = 0; i < kMixRing; ++i) {
    const double period = kPeriods[rng.uniform_below(kPeriods.size())];
    const double gib = kGib[rng.uniform_below(kGib.size())];
    if (i % 3 == 0) {
      const std::size_t k = maps++;
      ring.push_back(format_line("map circuit=%s width=%zu n=%zu m=%zu minpcs=%zu",
                                 kCircuits[k % kCircuits.size()], kN, kN, kM,
                                 (k / kCircuits.size()) % 2));
    } else if (i % 3 == 1) {
      const double fit = std::pow(10.0, -5.0 + 6.0 * rng.uniform01());
      ring.push_back(format_line("mttf fit=%.6g period=%g n=%zu m=%zu gib=%g",
                                 fit, period, kN, kM, gib));
    } else {
      const double fit_low = std::pow(10.0, -5.0 + 2.0 * rng.uniform01());
      ring.push_back(format_line(
          "sweep fit_low=%.6g fit_high=%.6g ppd=2 period=%g n=%zu m=%zu gib=%g",
          fit_low, fit_low * 100.0, period, kN, kM, gib));
    }
  }
  for (std::size_t i = ring.size(); i > 1; --i) {  // Fisher-Yates
    std::swap(ring[i - 1], ring[rng.uniform_below(i)]);
  }
  return ring;
}

/// Empty when the response passes the per-response gate.
std::string response_problem(const serve::Response& response) {
  if (!response.ok) return "not ok: " + response.error;
  if (response.kind == serve::RequestKind::kRun &&
      (response.mismatches != 0 || !response.ecc_consistent)) {
    return "run mismatches=" + std::to_string(response.mismatches) +
           " ecc_consistent=" + std::to_string(response.ecc_consistent);
  }
  return {};
}

struct Setup {
  std::unique_ptr<serve::Server> server;
  std::vector<std::string> ring;
};

/// A server with a warm registry and machine pool, the request ring, and
/// the set-up self-check: one request of every distinct (kind, circuit,
/// minpcs) signature in the ring is executed and must answer `ok`.
Setup set_up(const Options& options, bool control_mix, RunResult& result) {
  Setup setup;
  setup.server = std::make_unique<serve::Server>();
  setup.ring = control_mix ? make_mix_ring(options.seed) : make_run_ring(options.seed);
  std::set<std::string> signatures;
  for (const std::string& line : setup.ring) {
    serve::Request request;
    std::string error;
    if (!serve::parse_request(line, request, error)) {
      result.fail("set-up self-check: generated line does not parse: " + line);
      continue;
    }
    std::string signature(serve::kind_name(request.kind));
    if (request.kind == serve::RequestKind::kMap ||
        request.kind == serve::RequestKind::kRun) {
      signature += ' ' + request.circuit + (request.min_pcs ? " minpcs" : "");
    }
    if (!signatures.insert(signature).second) continue;
    const std::string problem = response_problem(setup.server->execute(request));
    if (!problem.empty()) {
      result.fail("set-up self-check rejected '" + line + "': " + problem);
    }
  }
  if (!control_mix) {
    // Warm the machine pool to full executor width.
    std::vector<serve::Registry::MachineLease> leases;
    for (std::size_t i = 0; i < util::Executor::shared().parallelism(); ++i) {
      leases.push_back(setup.server->registry().acquire_machine(kN, kM));
    }
  }
  return setup;
}

/// Response digests and timing of one loop.
struct LoopRecord {
  explicit LoopRecord(std::size_t ring_size) : digests(ring_size) {}
  SlotDigests digests;
  std::uint64_t failed = 0;
  double elapsed_s = 0.0;
  double cpu_s = 0.0;
};

void note_failure(RunResult& result, std::uint64_t& failed, const std::string& what) {
  if (failed++ == 0) result.fail("first failed request: " + what);
}

/// The product path: the daemon loop of `pimecc serve`, `window` requests
/// in flight.  With `timed`, each request's latency goes into result.
LoopRecord product_loop(serve::Server& server, const std::vector<std::string>& ring,
                        std::size_t window, double seconds, bool inject_mismatch,
                        RunResult& result, bool timed) {
  LoopRecord record(ring.size());
  std::vector<std::int64_t> started(window);
  std::vector<std::optional<std::uint64_t>> tickets(window);
  std::vector<std::string> parse_errors(window);
  // One request in flight runs on this thread alone: visit every CPU.
  std::optional<CpuRotation> rotation;
  if (window == 1) rotation.emplace();
  const double cpu0 = process_cpu_seconds();
  const std::int64_t start = now_ns();
  const std::int64_t deadline = start + static_cast<std::int64_t>(seconds * 1e9);
  std::int64_t next_turn = start;
  for (std::int64_t now = start; now < deadline; now = now_ns()) {
    if (rotation && now >= next_turn) {
      rotation->next();
      next_turn = now + kCpuTurnNs;
    }
    for (std::size_t j = 0; j < window; ++j) {
      const std::string& line = ring[(record.digests.ops() + j) % ring.size()];
      started[j] = now_ns();
      tickets[j].reset();
      serve::Request request;
      if (!serve::parse_request(line, request, parse_errors[j])) continue;
      try {
        tickets[j] = server.submit(std::move(request));
      } catch (const std::exception& e) {
        parse_errors[j] = e.what();
      }
    }
    server.drain();
    for (std::size_t j = 0; j < window; ++j) {
      std::string line;
      std::string problem;
      if (tickets[j].has_value()) {
        try {
          const serve::Response response = server.take(*tickets[j]);
          line = serve::format_response(response);
          problem = response_problem(response);
        } catch (const std::exception& e) {
          problem = e.what();
        }
      } else {
        problem = "not admitted: " + parse_errors[j];
      }
      const std::int64_t finished = now_ns();
      if (timed) {
        result.latency.add(static_cast<double>(finished - started[j]) * 1e-6,
                           static_cast<double>(finished - start) * 1e-9);
      }
      if (!problem.empty()) note_failure(result, record.failed, problem);
      if (inject_mismatch && record.digests.ops() == 0) line += " corrupted";
      record.digests.add(fnv1a(line));
    }
  }
  record.elapsed_s = static_cast<double>(now_ns() - start) * 1e-9;
  record.cpu_s = process_cpu_seconds() - cpu0;
  return record;
}

/// Serial re-execution on a fresh server: the line digest Server::execute
/// gives for each of the first `ops` ring slots (at most one per slot).
std::vector<std::uint64_t> serial_hashes(const std::vector<std::string>& ring,
                                         std::uint64_t ops) {
  serve::Server fresh;
  std::vector<std::uint64_t> expected(std::min<std::uint64_t>(ops, ring.size()));
  for (std::size_t s = 0; s < expected.size(); ++s) {
    serve::Request request;
    std::string error;
    std::string line = "unparsable";
    if (serve::parse_request(ring[s], request, error)) {
      line = serve::format_response(fresh.execute(request));
    }
    expected[s] = fnv1a(line);
  }
  return expected;
}


// ------------------------------------------------------------ traced replay

arch::MachineCounters counter_delta(const arch::MachineCounters& after,
                                    const arch::MachineCounters& before) {
  arch::MachineCounters delta;
  delta.mem_cycles = after.mem_cycles - before.mem_cycles;
  delta.cmem_cycles = after.cmem_cycles - before.cmem_cycles;
  delta.critical_ops = after.critical_ops - before.critical_ops;
  delta.checks = after.checks - before.checks;
  delta.scrubs = after.scrubs - before.scrubs;
  return delta;
}

/// One request of a traced batch.
struct Slot {
  serve::Request request;
  bool parsed = false;
  std::string parse_error;
  RequestTrace trace;
  int root = -1;
  std::int64_t submitted_ns = 0;
  std::int64_t exec_start_ns = 0;
  std::int64_t exec_end_ns = 0;
  serve::Response response;
  // run requests: what the unprotected probe and the product-path check need
  std::shared_ptr<const circuits::CircuitSpec> spec;
  std::shared_ptr<const simpler::MappedProgram> program;
  util::BitMatrix inputs;
  util::BitMatrix outputs;
  arch::MachineCounters counters;
  std::size_t nor_ops = 0;
};

std::uint64_t gib_to_bits(double gib) {
  if (!(gib > 0.0) || gib > 1024.0) {
    throw std::invalid_argument("memory size (GiB) out of range (0, 1024]");
  }
  return static_cast<std::uint64_t>(std::llround(gib * 8589934592.0));  // 2^33
}

rel::ReliabilityQuery reliability_query(const serve::Request& request) {
  rel::ReliabilityQuery query;
  query.fit_per_bit = request.fit_per_bit;
  query.check_period_hours = request.period_hours;
  query.n = request.n;
  query.m = request.m;
  query.memory_bits = gib_to_bits(request.memory_gib);
  return query;
}

/// simpler::run_program_protected's steps, one public PimMachine call at
/// a time, inside the `run` handler's steps.
void traced_run(serve::Registry& registry, Slot& slot, int parent,
                serve::Response& response) {
  RequestTrace& trace = slot.trace;
  const serve::Request& request = slot.request;
  std::optional<serve::Registry::MachineLease> lease;
  {
    const Scope span(trace, Layer::kRegistry, parent);
    slot.spec = registry.circuit(request.circuit);
    slot.program = registry.program(request.circuit, request.n);
    lease.emplace(registry.acquire_machine(request.n, request.m));
  }
  arch::PimMachine& machine = lease->machine();
  const simpler::Netlist& netlist = slot.spec->netlist;
  const simpler::MappedProgram& program = *slot.program;
  const std::size_t n = machine.n();

  util::Rng rng(request.seed);
  {
    util::BitMatrix image;
    {
      const Scope span(trace, Layer::kRng, parent);
      image = util::random_bit_matrix(n, n, rng);
    }
    const Scope span(trace, Layer::kLoadEncode, parent);
    machine.load(image);
  }
  // Counters are compared from here on: load() resynchronises mem_cycles
  // with the crossbar, so the delta does not depend on the previous lease.
  const arch::MachineCounters before = machine.counters();
  {
    const Scope span(trace, Layer::kRng, parent);
    slot.inputs = util::random_bit_matrix(n, netlist.num_inputs(), rng);
  }
  if (program.row_width > n || slot.inputs.cols() != program.input_cells.size()) {
    throw std::invalid_argument("run_program_protected: shape mismatch");
  }

  std::size_t corrections = 0;
  {
    const Scope span(trace, Layer::kCheckBeforeUse, parent);
    for (std::size_t band = 0; band < n / machine.m(); ++band) {
      const arch::CheckReport report = machine.check_block_row(band * machine.m());
      corrections += report.corrected_data + report.corrected_check;
    }
  }
  {
    const Scope span(trace, Layer::kProtectedWrite, parent);
    util::BitVector fixed_mask(n);
    util::BitVector row_values(n);
    for (const simpler::CellIndex cell : program.input_cells) fixed_mask.set(cell, true);
    auto next_fixed = static_cast<simpler::CellIndex>(program.input_cells.size());
    for (simpler::NodeId id = 0; id < netlist.num_nodes(); ++id) {
      const simpler::NodeType type = netlist.node(id).type;
      if (type == simpler::NodeType::kConstZero || type == simpler::NodeType::kConstOne) {
        fixed_mask.set(next_fixed, true);
        row_values.set(next_fixed, type == simpler::NodeType::kConstOne);
        ++next_fixed;
      }
    }
    util::BitVector image(n);
    for (std::size_t r = 0; r < n; ++r) {
      for (std::size_t i = 0; i < program.input_cells.size(); ++i) {
        row_values.set(program.input_cells[i], slot.inputs.get(r, i));
      }
      image = machine.data().row(r);
      image.assign_masked(row_values, fixed_mask);
      machine.write_row_protected(r, image);
    }
  }
  slot.nor_ops = 0;
  for (const simpler::MappedOp& op : program.ops) {
    if (op.kind == simpler::MappedOp::Kind::kInit) {
      const std::vector<std::size_t> cols(op.init_cells.begin(), op.init_cells.end());
      const Scope span(trace, Layer::kProtectedInit, parent);
      machine.magic_init_rows_protected(cols);
    } else {
      const std::vector<std::size_t> ins(op.in_cells.begin(), op.in_cells.end());
      const Scope span(trace, Layer::kProtectedNor, parent);
      machine.magic_nor_rows_protected(ins, op.cell);
      ++slot.nor_ops;
    }
  }
  {
    const Scope span(trace, Layer::kOutputRead, parent);
    slot.outputs = util::BitMatrix(n, program.output_cells.size());
    util::BitVector column(n);
    for (std::size_t i = 0; i < program.output_cells.size(); ++i) {
      machine.data().column_into(program.output_cells[i], column);
      slot.outputs.set_column(i, column);
    }
  }
  {
    const Scope span(trace, Layer::kConsistencyCheck, parent);
    response.ecc_consistent = machine.ecc_consistent();
  }
  slot.counters = counter_delta(machine.counters(), before);
  response.lanes = n;
  response.corrections = corrections;
  {
    const Scope span(trace, Layer::kReferenceCheck, parent);
    for (std::size_t r = 0; r < n; ++r) {
      if (!(slot.spec->reference(slot.inputs.row(r)) == slot.outputs.row(r))) {
        ++response.mismatches;
      }
    }
  }
  const Scope span(trace, Layer::kRegistry, parent);
  lease.reset();
}

/// Server::handle for the kinds the serving workloads send, with spans.
serve::Response traced_handle(serve::Registry& registry, Slot& slot) {
  RequestTrace& trace = slot.trace;
  const serve::Request& request = slot.request;
  serve::Response response;
  response.kind = request.kind;
  switch (request.kind) {
    case serve::RequestKind::kMap: {
      const Scope exec(trace, Layer::kExecMap, slot.root);
      arch::ArchParams params;
      params.n = request.n;
      params.m = request.m;
      params.num_pcs = request.pcs;
      params.validate();
      std::shared_ptr<const simpler::MappedProgram> program;
      {
        const Scope span(trace, Layer::kRegistry, exec.index());
        program = registry.program(request.circuit, request.row_width);
      }
      simpler::EccScheduleResult sched;
      {
        const Scope span(trace, Layer::kSchedule, exec.index());
        sched = simpler::schedule_with_ecc(*program, params, request.coverage);
      }
      response.baseline_cycles = sched.baseline_cycles;
      response.proposed_cycles = sched.proposed_cycles;
      response.stall_cycles = sched.stall_cycles;
      response.overhead = sched.overhead_fraction();
      if (request.min_pcs) {
        const Scope span(trace, Layer::kMinPcs, exec.index());
        response.min_pcs = simpler::find_min_pcs(*program, params, request.coverage);
      }
      break;
    }
    case serve::RequestKind::kRun: {
      const Scope exec(trace, Layer::kExecRun, slot.root);
      traced_run(registry, slot, exec.index(), response);
      break;
    }
    case serve::RequestKind::kMttf: {
      const Scope exec(trace, Layer::kExecMttf, slot.root);
      const rel::ReliabilityQuery query = reliability_query(request);
      const Scope span(trace, Layer::kAnalytic, exec.index());
      response.baseline_mttf_hours = rel::evaluate_baseline(query).mttf_hours;
      response.proposed_mttf_hours = rel::evaluate_proposed(query).mttf_hours;
      response.improvement = response.baseline_mttf_hours > 0.0
                                 ? response.proposed_mttf_hours /
                                       response.baseline_mttf_hours
                                 : 0.0;
      break;
    }
    case serve::RequestKind::kSweep: {
      const Scope exec(trace, Layer::kExecSweep, slot.root);
      const rel::ReliabilityQuery base = reliability_query(request);
      const Scope span(trace, Layer::kAnalytic, exec.index());
      const std::vector<rel::SweepPoint> points = rel::sweep_mttf(
          base, request.fit_low, request.fit_high, request.points_per_decade);
      response.sweep_points = points.size();
      bool first = true;
      for (const rel::SweepPoint& point : points) {
        const double improvement = point.improvement();
        if (first || improvement < response.min_improvement) {
          response.min_improvement = improvement;
        }
        if (first || improvement > response.max_improvement) {
          response.max_improvement = improvement;
        }
        first = false;
      }
      break;
    }
    case serve::RequestKind::kScenario:
      throw std::logic_error("scenario requests are not part of the serving workloads");
  }
  response.ok = true;
  return response;
}

/// Server::execute's error taxonomy around traced_handle.
serve::Response traced_execute(serve::Registry& registry, Slot& slot) {
  const auto failure = [&](serve::ErrorCode code, const char* what) {
    serve::Response response;
    response.kind = slot.request.kind;
    response.code = code;
    response.error = what;
    return response;
  };
  try {
    return traced_handle(registry, slot);
  } catch (const serve::ServeError& e) {
    return failure(e.code(), e.what());
  } catch (const std::invalid_argument& e) {
    return failure(serve::ErrorCode::kInvalidArgument, e.what());
  } catch (const std::out_of_range& e) {
    return failure(serve::ErrorCode::kInvalidArgument, e.what());
  } catch (const std::exception& e) {
    return failure(serve::ErrorCode::kInternal, e.what());
  }
}

/// What the traced loop measures beyond the spans.
struct TracedStats {
  std::int64_t busy_ns = 0;  ///< sum of per-request execute time
  std::int64_t lane_ns = 0;  ///< sum of batch wall time x lanes used
  std::uint64_t run_requests = 0;
  std::uint64_t map_requests = 0;
  std::uint64_t nor_ops = 0;
  std::uint64_t corrections = 0;
  /// Per-circuit MachineCounters of one run request (all must agree).
  std::map<std::string, arch::MachineCounters> counters;
};

/// The product path for one run request on a fresh machine, against the
/// traced replay's outputs and counters.
void check_against_product(const Slot& slot, RunResult& result) {
  arch::ArchParams params;
  params.n = slot.request.n;
  params.m = slot.request.m;
  arch::PimMachine machine(params);
  util::Rng rng(slot.request.seed);
  machine.load(util::random_bit_matrix(machine.n(), machine.n(), rng));
  const arch::MachineCounters before = machine.counters();
  const util::BitMatrix inputs =
      util::random_bit_matrix(machine.n(), slot.spec->netlist.num_inputs(), rng);
  const simpler::ProtectedRunResult run = simpler::run_program_protected(
      machine, slot.spec->netlist, *slot.program, inputs);
  const arch::MachineCounters delta = counter_delta(machine.counters(), before);
  if (!(inputs == slot.inputs) || !(run.outputs == slot.outputs) ||
      !(delta == slot.counters) ||
      run.input_check_corrections != slot.response.corrections ||
      run.ecc_consistent_after != slot.response.ecc_consistent) {
    result.fail("traced replay of '" + slot.request.circuit +
                "' differs from simpler::run_program_protected (outputs or "
                "MachineCounters)");
  }
}

LoopRecord traced_loop(serve::Server& server, const std::vector<std::string>& ring,
                       std::size_t window, double seconds, RunResult& result,
                       SpanRecorder& recorder, TracedStats& stats) {
  LoopRecord record(ring.size());
  serve::Registry& registry = server.registry();
  util::Executor& executor = util::Executor::shared();
  const std::size_t lanes_cap =
      server.config().lanes != 0 ? server.config().lanes : executor.parallelism();
  const std::size_t lanes = std::min(window, lanes_cap);
  std::vector<Slot> slots(window);
  RequestTrace probe;
  std::set<std::string> product_checked;
  std::int64_t excluded_ns = 0;  // probe time, not part of the replay
  std::optional<CpuRotation> rotation;  // as in product_loop
  if (window == 1) rotation.emplace();
  const std::int64_t start = now_ns();
  const std::int64_t budget = static_cast<std::int64_t>(seconds * 1e9);
  std::int64_t next_turn = start;
  for (std::int64_t now = start; now - start - excluded_ns < budget; now = now_ns()) {
    if (rotation && now >= next_turn) {
      rotation->next();
      next_turn = now + kCpuTurnNs;
    }
    for (std::size_t j = 0; j < window; ++j) {
      Slot& slot = slots[j];
      const std::string& line = ring[(record.digests.ops() + j) % ring.size()];
      slot.trace.reset(record.digests.ops() + j);
      slot.root = slot.trace.open(Layer::kRequest, -1);
      slot.request = serve::Request{};
      {
        const Scope span(slot.trace, Layer::kParse, slot.root);
        slot.parsed = serve::parse_request(line, slot.request, slot.parse_error);
      }
      slot.submitted_ns = now_ns();
    }
    const std::int64_t batch_start = now_ns();
    util::parallel_for(executor, window, lanes_cap, [&](std::size_t i) {
      Slot& slot = slots[i];
      slot.exec_start_ns = now_ns();
      slot.trace.add(Layer::kQueueWait, slot.root, slot.submitted_ns, slot.exec_start_ns);
      if (slot.parsed) slot.response = traced_execute(registry, slot);
      slot.exec_end_ns = now_ns();
    });
    stats.lane_ns += (now_ns() - batch_start) * static_cast<std::int64_t>(lanes);
    for (std::size_t j = 0; j < window; ++j) {
      Slot& slot = slots[j];
      stats.busy_ns += slot.exec_end_ns - slot.exec_start_ns;
      slot.trace.add(Layer::kTakeWait, slot.root, slot.exec_end_ns, now_ns());
      std::string line;
      std::string problem;
      if (slot.parsed) {
        const Scope span(slot.trace, Layer::kFormat, slot.root);
        line = serve::format_response(slot.response);
        problem = response_problem(slot.response);
      } else {
        problem = "parse: " + slot.parse_error;
      }
      slot.trace.close(slot.root);
      if (!problem.empty()) note_failure(result, record.failed, problem);
      record.digests.add(fnv1a(line));
      recorder.absorb(slot.trace);
    }

    // Probes, outside the replay's clock: the unprotected program on a bare
    // crossbar, and the product-path comparison once per circuit.
    const std::int64_t probe_start = now_ns();
    for (Slot& slot : slots) {
      if (!slot.parsed || !slot.response.ok) continue;
      if (slot.request.kind == serve::RequestKind::kMap) ++stats.map_requests;
      if (slot.request.kind != serve::RequestKind::kRun) continue;
      ++stats.run_requests;
      stats.nor_ops += slot.nor_ops;
      stats.corrections += slot.response.corrections;
      const auto [it, first] = stats.counters.try_emplace(slot.request.circuit, slot.counters);
      if (!(it->second == slot.counters)) {
        result.fail("MachineCounters of '" + slot.request.circuit +
                    "' differ between two run requests");
      }
      if (first && product_checked.insert(slot.request.circuit).second) {
        check_against_product(slot, result);
      }
      xbar::Crossbar bare(slot.request.n, slot.request.n);
      probe.reset(slot.trace.spans().front().request);
      const std::int64_t simd_start = now_ns();
      const simpler::SimdRunResult simd =
          simpler::run_simd(slot.spec->netlist, *slot.program, bare, slot.inputs);
      probe.add(Layer::kUnprotectedOps, -1, simd_start, now_ns());
      recorder.absorb(probe);
      if (simd.violations != 0 || !(simd.outputs == slot.outputs)) {
        result.fail("simpler::run_simd disagrees with the protected run of '" +
                    slot.request.circuit + "'");
      }
    }
    excluded_ns += now_ns() - probe_start;
  }
  record.elapsed_s = static_cast<double>(now_ns() - start - excluded_ns) * 1e-9;
  return record;
}

double per(std::int64_t ns, std::uint64_t count, double scale) {
  return count == 0 ? 0.0 : static_cast<double>(ns) * scale / static_cast<double>(count);
}

void layer_metrics(const SpanRecorder& recorder, const TracedStats& stats,
                   const serve::RegistryStats& registry, double untraced_ops_per_s,
                   double traced_ops_per_s, RunResult& result) {
  const auto mean_us = [&](Layer layer) {
    const LayerTotals& t = recorder.totals(layer);
    return per(t.total_ns, t.spans, 1e-3);
  };
  const auto run_us = [&](Layer layer) {
    return per(recorder.totals(layer).total_ns, stats.run_requests, 1e-3);
  };
  std::vector<Metric>& out = result.per_layer;
  out.push_back({"serve.parse_us", mean_us(Layer::kParse), "us"});
  out.push_back({"serve.format_us", mean_us(Layer::kFormat), "us"});
  out.push_back({"serve.queue_wait_us", mean_us(Layer::kQueueWait), "us"});
  out.push_back({"serve.take_wait_us", mean_us(Layer::kTakeWait), "us"});
  out.push_back({"serve.execute_us.map", mean_us(Layer::kExecMap), "us"});
  out.push_back({"serve.execute_us.mttf", mean_us(Layer::kExecMttf), "us"});
  out.push_back({"serve.execute_us.sweep", mean_us(Layer::kExecSweep), "us"});
  out.push_back({"serve.execute_us.run", mean_us(Layer::kExecRun), "us"});
  out.push_back({"serve.registry_us",
                 per(recorder.totals(Layer::kRegistry).total_ns,
                     stats.run_requests + stats.map_requests, 1e-3),
                 "us"});
  const auto ratio = [](std::uint64_t good, std::uint64_t bad) {
    return good + bad == 0 ? 0.0
                           : static_cast<double>(good) / static_cast<double>(good + bad);
  };
  out.push_back({"serve.registry.hit_ratio",
                 ratio(registry.circuit_hits + registry.program_hits,
                       registry.circuit_misses + registry.program_misses),
                 "ratio"});
  out.push_back({"serve.registry.machine_reuse_ratio",
                 ratio(registry.machine_reuses, registry.machine_builds), "ratio"});
  out.push_back({"util.executor.batch_efficiency",
                 stats.lane_ns > 0 ? static_cast<double>(stats.busy_ns) /
                                         static_cast<double>(stats.lane_ns)
                                   : 0.0,
                 "ratio"});
  out.push_back({"util.rng_us", run_us(Layer::kRng), "us"});
  out.push_back({"arch.load_encode_us", run_us(Layer::kLoadEncode), "us"});
  out.push_back({"arch.check_before_use_us", run_us(Layer::kCheckBeforeUse), "us"});
  out.push_back({"arch.check_corrections", static_cast<double>(stats.corrections), "count"});
  out.push_back({"arch.protected_write_us", run_us(Layer::kProtectedWrite), "us"});
  out.push_back({"arch.protected_init_us", run_us(Layer::kProtectedInit), "us"});
  out.push_back({"arch.protected_nor_us", run_us(Layer::kProtectedNor), "us"});
  out.push_back({"arch.protected_nor_ns_per_lane_op",
                 per(recorder.totals(Layer::kProtectedNor).total_ns,
                     stats.nor_ops * kN, 1.0),
                 "ns"});
  out.push_back({"arch.output_read_us", run_us(Layer::kOutputRead), "us"});
  out.push_back({"arch.consistency_check_us", run_us(Layer::kConsistencyCheck), "us"});
  out.push_back({"bench_circuits.reference_check_us", run_us(Layer::kReferenceCheck), "us"});
  const double unprotected_us = run_us(Layer::kUnprotectedOps);
  out.push_back({"xbar.unprotected_ops_us", unprotected_us, "us"});
  const double protected_us =
      run_us(Layer::kProtectedInit) + run_us(Layer::kProtectedNor);
  out.push_back({"arch.ecc_maintenance_ratio",
                 unprotected_us > 0.0 ? protected_us / unprotected_us : 0.0, "ratio"});
  double mem = 0.0;
  double cmem = 0.0;
  for (const auto& [circuit, counters] : stats.counters) {
    mem += static_cast<double>(counters.mem_cycles);
    cmem += static_cast<double>(counters.cmem_cycles);
  }
  const double circuits = static_cast<double>(std::max<std::size_t>(stats.counters.size(), 1));
  out.push_back({"arch.mem_cycles_per_op", mem / circuits, "cycles"});
  out.push_back({"arch.cmem_cycles_per_op", cmem / circuits, "cycles"});
  out.push_back({"simpler.schedule_us", mean_us(Layer::kSchedule), "us"});
  out.push_back({"simpler.min_pcs_us", mean_us(Layer::kMinPcs), "us"});
  out.push_back({"reliability.analytic_us", mean_us(Layer::kAnalytic), "us"});
  out.push_back({"trace.coverage_min", recorder.coverage_min(), "ratio"});
  out.push_back({"trace.overhead",
                 untraced_ops_per_s > 0.0 ? traced_ops_per_s / untraced_ops_per_s : 0.0,
                 "ratio"});

  result.notes.push_back("traced requests: " + std::to_string(recorder.requests()) +
                         "; named-span coverage: min " +
                         std::to_string(recorder.coverage_min()) + ", aggregate " +
                         std::to_string(recorder.coverage_total()) +
                         "; spans not kept: " + std::to_string(recorder.spans_dropped()));
  result.notes.push_back("layer self time per traced request (us):");
  for (std::size_t i = 0; i < static_cast<std::size_t>(Layer::kCount); ++i) {
    const LayerTotals& t = recorder.totals(static_cast<Layer>(i));
    if (t.spans == 0) continue;
    char line[160];
    std::snprintf(line, sizeof(line), "  %-32s self %12.3f  total %12.3f  spans %llu",
                  layer_name(static_cast<Layer>(i)),
                  per(t.self_ns, recorder.requests(), 1e-3),
                  per(t.total_ns, recorder.requests(), 1e-3),
                  static_cast<unsigned long long>(t.spans));
    result.notes.emplace_back(line);
  }
}

}  // namespace

RunResult run_serving(const Options& options, bool control_mix) {
  RunResult result;
  // run_n1020's requests complete a batch of 32 at a time, so its p99 is
  // the one or two slowest of ~100 batches in a 10 s run: the host's worst
  // moment.  p95 is the fifth or sixth.  control_mix's p99 lies inside its
  // costliest cluster (minpcs maps of ~0.5-1 ms, ~4% of requests), while
  // its p95 lies at the top of the ~70 us maps just below that gap.
  result.tail_percentile = control_mix ? 99.0 : 95.0;
  Setup setup;
  CpuRotation setup_cpus;  // each repetition on the next CPU
  const auto timed_set_up = [&] {
    setup_cpus.next();
    const std::int64_t start = now_ns();
    Setup fresh = set_up(options, control_mix, result);
    result.setup_s.push_back(static_cast<double>(now_ns() - start) * 1e-9);
    setup_cpus.release();
    return fresh;
  };
  repeat_set_up(setup_reps_before(options), [&] {
    setup = Setup{};  // one set-up alive at a time, as in a real process
    setup = timed_set_up();
  });
  if (!result.failures.empty()) return result;
  // run_n1020 pipelines a full batch like the daemon reading a trace;
  // control_mix is an interactive client with one request in flight.
  const std::size_t window = control_mix ? 1 : setup.server->config().max_batch;
  if (options.warmup_seconds > 0.0) {
    (void)product_loop(*setup.server, setup.ring, window, options.warmup_seconds, false,
                       result, false);
  }

  const LoopRecord untraced =
      product_loop(*setup.server, setup.ring, window, options.seconds,
                   options.inject_mismatch, result, !options.trace);
  result.attempted = untraced.digests.ops();
  result.failed = untraced.failed;
  result.elapsed_s = untraced.elapsed_s;
  result.cpu_s = untraced.cpu_s;
  // Verification and the remaining set-ups run with the served objects
  // released, so peak_rss_mib is the workload's, not the checker's.
  setup.server.reset();
  if (!options.trace) {
    check_digests(untraced.digests, serial_hashes(setup.ring, untraced.digests.ops()),
                  "served", setup.ring, result);
    repeat_set_up(options.setup_reps - setup_reps_before(options), [&] { (void)timed_set_up(); });
    return result;
  }

  // Traced replay on a fresh, equally warm server.
  RunResult unused;  // this set-up repeats one that already passed
  Setup traced_setup = set_up(options, control_mix, unused);
  SpanRecorder recorder;
  TracedStats stats;
  const serve::RegistryStats before = traced_setup.server->registry().stats();
  const LoopRecord traced = traced_loop(*traced_setup.server, setup.ring, window,
                                        options.seconds, result, recorder, stats);
  serve::RegistryStats registry = traced_setup.server->registry().stats();
  registry.circuit_hits -= before.circuit_hits;
  registry.circuit_misses -= before.circuit_misses;
  registry.program_hits -= before.program_hits;
  registry.program_misses -= before.program_misses;
  registry.machine_reuses -= before.machine_reuses;
  registry.machine_builds -= before.machine_builds;
  traced_setup.server.reset();
  const std::vector<std::uint64_t> expected = serial_hashes(
      setup.ring, std::max(untraced.digests.ops(), traced.digests.ops()));
  check_digests(untraced.digests, expected, "served", setup.ring, result);
  check_digests(traced.digests, expected, "traced", setup.ring, result);
  result.failed += traced.failed;
  const double untraced_rate =
      static_cast<double>(untraced.digests.ops()) / untraced.elapsed_s;
  const double traced_rate = static_cast<double>(traced.digests.ops()) / traced.elapsed_s;
  layer_metrics(recorder, stats, registry, untraced_rate, traced_rate, result);
  const std::string csv = options.out_dir + "/spans-" + options.workload + ".csv";
  result.notes.push_back(recorder.write_csv(csv) ? "spans written to " + csv
                                                 : "could not write " + csv);
  repeat_set_up(options.setup_reps - setup_reps_before(options), [&] { (void)timed_set_up(); });
  return result;
}

}  // namespace e2e
