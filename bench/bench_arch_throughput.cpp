// Arch-layer throughput harness: measures the word-parallel protected
// machine (PimMachine: differential diagword check updates, ArrayCode band
// walks) against the bit-serial ReferencePimMachine on the three end-to-end
// hot paths and emits machine-readable BENCH_arch.json -- the machine-level
// companion of bench_engine_throughput and bench_codec_throughput.
//
//   1. init: PimMachine::load (controller row writes + whole-array check
//      encode) -- the Table 1 input-setup bandwidth.
//   2. verify: PimMachine::scrub on clean data (the paper's periodic
//      full-memory check).
//   3. simd_gates: protected row-parallel stateful logic -- alternating
//      magic_init_rows_protected / magic_nor_rows_protected pairs, each
//      running the full Section IV critical-operation protocol across all
//      n rows.
//   4. program: one `run` request's machine work per bench circuit at
//      n = 1020, m = 15 -- PimMachine::load plus
//      simpler::run_program_protected (before-use check, then the protected
//      input writes, the mapped program and the output read as one
//      bit-sliced tile pass) on the program's prebuilt ops and a reused
//      outputs matrix, as the serving path runs it -- in requests/s, the
//      median of repeated samples after a warm-up, with the slowest sample
//      and the spread.  The layer evidence for the row-program executor,
//      which e2e's op-by-op replay cannot show.
//
// Every configuration is first cross-checked: the two machines run an
// identical protected program with mid-run fault injection and must agree
// on memory contents, check state, cycle counters, and check reports, or
// the run fails (non-zero exit) -- the same fast-vs-reference gate the
// differential test suite applies, wired into CI via tools/ci.sh.  Each
// timed circuit is cross-checked the same way: one run_program_protected on
// each machine must agree on outputs, check state, MachineCounters and row
// activations, so a wrong closed-form charge of the fused pass fails too.
//
// Usage: bench_arch_throughput [--smoke] [--out=PATH]
//   --smoke    fast CI configuration (n = 60, m in {3, 15}; one program)
//   --out=PATH where to write the JSON (default: BENCH_arch.json in cwd)
#include <array>
#include <iostream>
#include <string>
#include <vector>

#include "arch/pim_machine.hpp"
#include "bench_circuits/circuits.hpp"
#include "harness.hpp"
#include "oracle/reference_pim_machine.hpp"
#include "simpler/mapper.hpp"
#include "simpler/protected_vm.hpp"
#include "simpler/row_vm.hpp"
#include "util/bitmatrix.hpp"
#include "util/rng.hpp"

namespace {

using pimecc::arch::ArchParams;
using pimecc::arch::CheckReport;
using pimecc::arch::PimMachine;
using pimecc::arch::ReferencePimMachine;

ArchParams make_params(std::size_t n, std::size_t m) {
  ArchParams p;
  p.n = n;
  p.m = m;
  return p;
}

/// The fixed protected-gate program both machines execute: `pairs`
/// init+NOR pairs over a deterministic column walk, SIMD across all rows.
template <typename Machine>
void run_gate_program(Machine& machine, std::size_t pairs) {
  const std::size_t n = machine.n();
  for (std::size_t k = 0; k < pairs; ++k) {
    const std::size_t out = (7 + 13 * k) % n;
    std::size_t in1 = (out + 1) % n;
    std::size_t in2 = (out + 5) % n;
    const std::size_t outs[1] = {out};
    const std::size_t ins[2] = {in1, in2};
    machine.magic_init_rows_protected(outs);
    machine.magic_nor_rows_protected(ins, out);
  }
}

/// Fast-vs-reference cross-check: identical protected program with mid-run
/// fault injection; any divergence in contents, check state, counters, or
/// reports fails the run.
bool cross_check(const ArchParams& params, const pimecc::util::BitMatrix& image) {
  PimMachine fast(params);
  ReferencePimMachine ref(params);
  fast.load(image);
  ref.load(image);
  run_gate_program(fast, 8);
  run_gate_program(ref, 8);
  fast.inject_data_error(params.n / 2, params.n / 3);
  ref.inject_data_error(params.n / 2, params.n / 3);
  const CheckReport fr = fast.check_block_row(params.n / 2);
  const CheckReport rr = ref.check_block_row(params.n / 2);
  if (!(fr == rr)) return false;
  const CheckReport fs = fast.scrub();
  const CheckReport rs = ref.scrub();
  if (!(fs == rs)) return false;
  if (!(fast.data() == ref.data())) return false;
  if (!ref.check_memory().matches(fast.check_code())) return false;
  if (!(fast.counters() == ref.counters())) return false;
  return fast.ecc_consistent() && ref.ecc_consistent();
}

/// One protected run of `program` on both machines: outputs, corrections,
/// check state, MachineCounters and row activations must agree.
bool cross_check_program(const ArchParams& params,
                         const pimecc::simpler::Netlist& netlist,
                         const pimecc::simpler::MappedProgram& program,
                         const pimecc::util::BitMatrix& image,
                         const pimecc::util::BitMatrix& inputs) {
  using pimecc::simpler::ProtectedRunResult;
  using pimecc::simpler::run_program_protected;
  PimMachine fast(params);
  ReferencePimMachine ref(params);
  fast.load(image);
  ref.load(image);
  const ProtectedRunResult f = run_program_protected(fast, netlist, program, inputs);
  const ProtectedRunResult r = run_program_protected(ref, netlist, program, inputs);
  return f.outputs == r.outputs &&
         f.input_check_corrections == r.input_check_corrections &&
         f.ecc_consistent_after && r.ecc_consistent_after &&
         ref.check_memory().matches(fast.check_code()) &&
         fast.counters() == ref.counters() &&
         fast.mem_row_activation_snapshot() == ref.mem_row_activation_snapshot();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace pimecc;
  using bench::fmt;

  const bench::Options options =
      bench::parse_options(argc, argv, "BENCH_arch.json");
  const bool smoke = options.smoke;
  bench::Gates gates;

  struct Config {
    std::size_t n;
    std::size_t m;
  };
  const std::vector<Config> configs =
      smoke ? std::vector<Config>{{60, 3}, {60, 15}}
            : std::vector<Config>{{255, 15}, {510, 15}, {1020, 3}, {1020, 15}};
  const double min_seconds = smoke ? 0.02 : 0.2;
  const std::size_t samples = smoke ? 3 : 7;  // program rows
  const std::size_t gate_pairs = smoke ? 8 : 32;

  // Schema 2 added the shared host block (CPU, executor width, SIMD level,
  // build), so the rates say what hardware they were taken on; schema 3
  // makes each program rate repeated samples (median, min, spread).
  bench::Json json("pimecc-bench-arch/3", options);
  json.host();
  // One metric object: reference vs word-parallel rate; returns the speedup.
  auto metric = [&](const char* name, const std::string& unit, double ref_rate,
                    double fast_rate) {
    json.object(name)
        .field("reference_" + unit, ref_rate)
        .field("word_parallel_" + unit, fast_rate)
        .field("speedup", fast_rate / ref_rate)
        .end();
    return fast_rate / ref_rate;
  };
  double init_speedup = 0.0, verify_speedup = 0.0, gates_speedup = 0.0;
  json.array("configs");
  for (const Config& config : configs) {
    const ArchParams params = make_params(config.n, config.m);
    util::Rng rng(0xA2C4'BE7Cull ^ (config.n * 131) ^ config.m);
    const util::BitMatrix image =
        util::random_bit_matrix(config.n, config.n, rng);

    gates.check(cross_check(params, image),
                "fast-vs-reference machine at n=" + std::to_string(config.n) +
                    " m=" + std::to_string(config.m));

    const double cells = static_cast<double>(config.n) * config.n;
    const double gate_line_bits =
        static_cast<double>(2 * gate_pairs) * config.n;
    // Rates of init (cells/s through load: write + encode), verify (cells/s
    // through scrub) and simd_gates (protected line-bits/s, n per op).
    auto rates = [&](auto& machine) {
      return std::array<double, 3>{
          bench::measure_rate(min_seconds, [&] {
            machine.load(image);
            return cells;
          }),
          bench::measure_rate(min_seconds, [&] {
            (void)machine.scrub();
            return cells;
          }),
          bench::measure_rate(min_seconds, [&] {
            run_gate_program(machine, gate_pairs);
            return gate_line_bits;
          })};
    };
    ReferencePimMachine ref_machine(params);
    const std::array<double, 3> ref = rates(ref_machine);
    PimMachine fast_machine(params);
    const std::array<double, 3> fast = rates(fast_machine);

    json.object().field("n", config.n).field("m", config.m);
    init_speedup = metric("init", "cells_per_sec", ref[0], fast[0]);
    verify_speedup = metric("verify", "cells_per_sec", ref[1], fast[1]);
    gates_speedup =
        metric("simd_gates", "line_bits_per_sec", ref[2], fast[2]);
    json.end();
    std::cout << "n=" << config.n << " m=" << config.m << ": init "
              << fmt(init_speedup) << "x, verify " << fmt(verify_speedup)
              << "x, simd_gates " << fmt(gates_speedup) << "x (fast gates "
              << fmt(fast[2] / 1e6) << " Mline-bits/s)\n";
  }
  json.end();

  // Programs: the serve `run` request's machine work at n=1020, m=15.
  const std::vector<const char*> circuits =
      smoke ? std::vector<const char*>{"ctrl"}
            : std::vector<const char*>{"ctrl", "int2float", "cavlc", "dec",
                                       "priority"};
  json.array("program");
  for (const char* name : circuits) {
    const ArchParams params = make_params(1020, 15);
    const circuits::CircuitSpec spec = circuits::build_circuit(name);
    simpler::MapperOptions mapper;
    mapper.row_width = params.n;
    const simpler::MappedProgram program = simpler::map_to_row(spec.netlist, mapper);
    util::Rng rng(0x9A0'6A11ull);
    const util::BitMatrix image = util::random_bit_matrix(params.n, params.n, rng);
    const util::BitMatrix inputs =
        util::random_bit_matrix(params.n, spec.netlist.num_inputs(), rng);
    gates.check(cross_check_program(params, spec.netlist, program, image, inputs),
                std::string("fast-vs-reference protected run of ") + name);
    PimMachine machine(params);
    const std::vector<xbar::RowOp> ops = simpler::row_ops(program);
    util::BitMatrix outputs;
    simpler::ProtectedRunChecks run;
    const bench::RateSamples rate = bench::measure_rate(min_seconds, samples, [&] {
      machine.load(image);
      run = simpler::run_program_protected(machine, spec.netlist, program, ops,
                                           inputs, outputs);
      return 1.0;
    });
    bool outputs_ok = run.ecc_consistent_after;
    for (std::size_t r = 0; r < params.n; ++r) {
      outputs_ok = outputs_ok && spec.reference(inputs.row(r)) == outputs.row(r);
    }
    gates.check(outputs_ok, std::string("protected run of ") + name +
                                " matches the circuit reference");
    json.object()
        .field("circuit", name)
        .field("n", params.n)
        .field("m", params.m)
        .rate("requests_per_sec", rate)
        .end();
    std::cout << "program " << name << " n=1020 m=15: " << fmt(rate.median)
              << " requests/s (min " << fmt(rate.min) << ", spread "
              << fmt(rate.spread) << ")\n";
  }
  json.end();

  json.object("largest_config")
      .field("n", configs.back().n)
      .field("m", configs.back().m)
      .field("init_speedup", init_speedup)
      .field("verify_speedup", verify_speedup)
      .field("simd_gates_speedup", gates_speedup)
      .end();
  return json.finish(gates, "differential_ok");
}
