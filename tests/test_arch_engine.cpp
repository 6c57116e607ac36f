// End-to-end differential machine tests: the word-parallel protected
// machine (PimMachine, diagword differential check updates, ArrayCode band
// walks) pinned to the retained bit-serial composition
// (ReferencePimMachine, shifter-bank + XOR3-microprogram datapath) across
// randomized protected-op programs with mid-run fault injection, full
// ProtectedVm circuit runs from bench_circuits, wide batched inits at every
// SIMD dispatch level, metamorphic consistency checks, cycle-count pinning,
// absolute digests of full protected runs, and the arch layer's
// validate-before-mutate regressions.  Tiny configurations double as the
// `smoke;arch` gate (ArchEngineSmoke suite).
#include <gtest/gtest.h>

#include <algorithm>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <ostream>
#include <set>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "arch/pim_machine.hpp"
#include "arch/scheduler.hpp"
#include "bench_circuits/circuits.hpp"
#include "oracle/pc_controller.hpp"
#include "oracle/reference_pim_machine.hpp"
#include "simpler/mapper.hpp"
#include "simpler/protected_vm.hpp"
#include "util/rng.hpp"
#include "util/serialize.hpp"
#include "util/simd.hpp"

namespace pimecc {
namespace {

using arch::ArchParams;
using arch::Axis;
using arch::CheckReport;
using arch::PimMachine;
using arch::ReferencePimMachine;

ArchParams make_params(std::size_t n, std::size_t m) {
  ArchParams p;
  p.n = n;
  p.m = m;
  return p;
}

util::BitMatrix random_matrix(std::size_t n, util::Rng& rng) {
  return util::random_bit_matrix(n, n, rng);
}

util::BitVector random_vector(std::size_t n, util::Rng& rng) {
  util::BitVector v(n);
  util::fill_random(v, rng);
  return v;
}

/// The twin machines every differential test drives in lockstep.
struct MachinePair {
  PimMachine fast;
  ReferencePimMachine ref;

  explicit MachinePair(const ArchParams& params) : fast(params), ref(params) {}

  void load(const util::BitMatrix& image) {
    fast.load(image);
    ref.load(image);
  }
};

::testing::AssertionResult machines_agree(const MachinePair& pair) {
  if (!(pair.fast.data() == pair.ref.data())) {
    return ::testing::AssertionFailure() << "MEM contents diverge";
  }
  if (!pair.ref.check_memory().matches(pair.fast.check_code())) {
    return ::testing::AssertionFailure() << "check-bit state diverges";
  }
  const arch::MachineCounters& f = pair.fast.counters();
  const arch::MachineCounters& r = pair.ref.counters();
  if (!(f == r)) {
    return ::testing::AssertionFailure()
           << "counters diverge: mem " << f.mem_cycles << "/" << r.mem_cycles
           << " cmem " << f.cmem_cycles << "/" << r.cmem_cycles << " critical "
           << f.critical_ops << "/" << r.critical_ops << " checks " << f.checks
           << "/" << r.checks << " scrubs " << f.scrubs << "/" << r.scrubs;
  }
  return ::testing::AssertionSuccess();
}

/// Restores the process's dispatch level however the test body exits.
class LevelGuard {
 public:
  LevelGuard() : saved_(util::simd::active_level()) {}
  ~LevelGuard() { util::simd::set_level(saved_); }
  LevelGuard(const LevelGuard&) = delete;
  LevelGuard& operator=(const LevelGuard&) = delete;

 private:
  util::simd::Level saved_;
};

/// Drives a randomized sequence of protected operations, controller writes,
/// checks, scrubs, and mid-run fault injections through both machines,
/// asserting full lockstep (contents, check state, counters, reports) after
/// every public operation.
void run_differential_program(std::size_t n, std::size_t m, std::uint64_t seed,
                              int ops) {
  const ArchParams params = make_params(n, m);
  MachinePair pair(params);
  util::Rng rng(seed);
  pair.load(random_matrix(n, rng));
  ASSERT_TRUE(machines_agree(pair));

  for (int i = 0; i < ops; ++i) {
    const std::uint64_t kind = rng.uniform_below(10);
    switch (kind) {
      case 0:
      case 1: {  // row-parallel init + NOR
        const std::size_t out = rng.uniform_below(n);
        std::size_t in1 = rng.uniform_below(n);
        std::size_t in2 = rng.uniform_below(n);
        if (in1 == out) in1 = (in1 + 1) % n;
        if (in2 == out) in2 = (in2 + 2) % n;
        const std::vector<std::size_t> outs{out};
        const std::vector<std::size_t> ins{in1, in2};
        pair.fast.magic_init_rows_protected(outs);
        pair.ref.magic_init_rows_protected(outs);
        pair.fast.magic_nor_rows_protected(ins, out);
        pair.ref.magic_nor_rows_protected(ins, out);
        break;
      }
      case 2:
      case 3: {  // column-parallel init + NOR
        const std::size_t out = rng.uniform_below(n);
        std::size_t in1 = rng.uniform_below(n);
        if (in1 == out) in1 = (in1 + 1) % n;
        const std::vector<std::size_t> outs{out};
        const std::vector<std::size_t> ins{in1};
        pair.fast.magic_init_cols_protected(outs);
        pair.ref.magic_init_cols_protected(outs);
        pair.fast.magic_nor_cols_protected(ins, out);
        pair.ref.magic_nor_cols_protected(ins, out);
        break;
      }
      case 4: {  // controller row write
        const std::size_t r = rng.uniform_below(n);
        const util::BitVector values = random_vector(n, rng);
        pair.fast.write_row_protected(r, values);
        pair.ref.write_row_protected(r, values);
        break;
      }
      case 5: {  // soft data error; sometimes checked right away
        const std::size_t r = rng.uniform_below(n);
        const std::size_t c = rng.uniform_below(n);
        pair.fast.inject_data_error(r, c);
        pair.ref.inject_data_error(r, c);
        if (rng.bernoulli(0.5)) {
          const CheckReport fr = pair.fast.check_block_row(r);
          const CheckReport rr = pair.ref.check_block_row(r);
          EXPECT_EQ(fr, rr) << "op " << i;
        }
        break;
      }
      case 6: {  // soft check-bit error
        const Axis axis = rng.bernoulli(0.5) ? Axis::kLeading : Axis::kCounter;
        const std::size_t diag = rng.uniform_below(m);
        const ecc::BlockIndex block{rng.uniform_below(n / m),
                                    rng.uniform_below(n / m)};
        pair.fast.inject_check_error(axis, diag, block);
        pair.ref.inject_check_error(axis, diag, block);
        if (rng.bernoulli(0.5)) {
          const CheckReport fr = pair.fast.check_block_col(block.block_col * m);
          const CheckReport rr = pair.ref.check_block_col(block.block_col * m);
          EXPECT_EQ(fr, rr) << "op " << i;
        }
        break;
      }
      case 7: {  // periodic full scrub
        const CheckReport fr = pair.fast.scrub();
        const CheckReport rr = pair.ref.scrub();
        EXPECT_EQ(fr, rr) << "op " << i;
        break;
      }
      case 8: {  // double error in one block -> detected uncorrectable
        const std::size_t br = rng.uniform_below(n / m);
        const std::size_t bc = rng.uniform_below(n / m);
        const std::size_t r1 = br * m;
        const std::size_t c1 = bc * m;
        pair.fast.inject_data_error(r1, c1);
        pair.ref.inject_data_error(r1, c1);
        pair.fast.inject_data_error(r1 + 1, c1 + 1);
        pair.ref.inject_data_error(r1 + 1, c1 + 1);
        const CheckReport fr = pair.fast.scrub();
        const CheckReport rr = pair.ref.scrub();
        EXPECT_EQ(fr, rr) << "op " << i;
        break;
      }
      default: {  // before-use band check of a random line
        const std::size_t line = rng.uniform_below(n);
        if (rng.bernoulli(0.5)) {
          EXPECT_EQ(pair.fast.check_block_row(line), pair.ref.check_block_row(line));
        } else {
          EXPECT_EQ(pair.fast.check_block_col(line), pair.ref.check_block_col(line));
        }
        break;
      }
    }
    ASSERT_TRUE(machines_agree(pair)) << "op " << i << " kind " << kind;
  }
}

// ------------------------------------------------- randomized differential

TEST(ArchEngineDifferential, RandomProgramsAgreeN45M9) {
  run_differential_program(45, 9, 0xA1, 120);
}

TEST(ArchEngineDifferential, RandomProgramsAgreeN60M15) {
  // m = 15 (the paper's case study block size); segments straddle the
  // 64-bit word boundary inside every band walk.
  run_differential_program(60, 15, 0xB2, 100);
}

TEST(ArchEngineDifferential, RandomProgramsAgreeN66M3) {
  // Many small blocks; lines span two backing words.
  run_differential_program(66, 3, 0xC3, 100);
}

TEST(ArchEngineDifferential, RandomProgramsAgreeN45M5) {
  run_differential_program(45, 5, 0xD4, 100);
}

/// k distinct columns of [0, n) in random order (partial Fisher-Yates).
std::vector<std::size_t> random_distinct_columns(std::size_t n, std::size_t k,
                                                 util::Rng& rng) {
  std::vector<std::size_t> all(n);
  for (std::size_t i = 0; i < n; ++i) all[i] = i;
  for (std::size_t i = 0; i < k; ++i) {
    std::swap(all[i], all[i + rng.uniform_below(n - i)]);
  }
  all.resize(k);
  return all;
}

/// Batched row-parallel inits of k > n/64 columns (the band-fold path of
/// magic_init_rows_protected), each followed by NORs into the initialized
/// columns (the delta-emitting lane loop), in lockstep with the reference
/// machine at every dispatch level.
/// Every fourth batch is narrow (k <= n/64) so both init paths interleave.
void run_wide_init_program(std::size_t n, std::size_t m, std::uint64_t seed,
                           int batches) {
  const LevelGuard guard;
  for (const util::simd::Level level : util::simd::available_levels()) {
    SCOPED_TRACE(util::simd::to_string(level));
    util::simd::set_level(level);
    MachinePair pair(make_params(n, m));
    util::Rng rng(seed);
    pair.load(random_matrix(n, rng));
    const std::size_t narrow = n / util::BitVector::kWordBits;
    for (int b = 0; b < batches; ++b) {
      const std::size_t k =
          b % 4 == 3 ? 1 + rng.uniform_below(std::max<std::size_t>(narrow, 1))
                     : narrow + 1 + rng.uniform_below(n - narrow - 1);
      const std::vector<std::size_t> cols = random_distinct_columns(n, k, rng);
      pair.fast.magic_init_rows_protected(cols);
      pair.ref.magic_init_rows_protected(cols);
      ASSERT_TRUE(machines_agree(pair)) << "batch " << b << " k " << k;
      for (int g = 0; g < 4; ++g) {
        const std::size_t out = cols[rng.uniform_below(k)];
        std::vector<std::size_t> ins;
        for (std::size_t fan = 1 + rng.uniform_below(3); ins.size() < fan;) {
          const std::size_t in = rng.uniform_below(n);
          if (in != out) ins.push_back(in);
        }
        pair.fast.magic_nor_rows_protected(ins, out);
        pair.ref.magic_nor_rows_protected(ins, out);
        ASSERT_TRUE(machines_agree(pair)) << "batch " << b << " gate " << g;
      }
    }
    EXPECT_TRUE(pair.fast.ecc_consistent());
  }
}

TEST(ArchEngineDifferential, WideInitBatchesAgreeN132M3) {
  run_wide_init_program(132, 3, 0x1A3, 12);
}

TEST(ArchEngineDifferential, WideInitBatchesAgreeN135M9) {
  run_wide_init_program(135, 9, 0x1A9, 12);
}

TEST(ArchEngineDifferential, WideInitBatchesAgreeN150M15) {
  run_wide_init_program(150, 15, 0x1AF, 12);
}

TEST(ArchEngineDifferential, WideInitBatchesAgreeN130M65) {
  // m > 64: the band fold over segments of two and four words.
  run_wide_init_program(130, 65, 0x1B1, 8);
  run_wide_init_program(1020, 85, 0x1B3, 4);
  run_wide_init_program(1020, 255, 0x1B5, 4);
}

// ----------------------------------------------- ProtectedVm end to end

/// Maps `netlist` onto the smallest row width from an m-multiple ladder.
simpler::MappedProgram map_with_ladder(const simpler::Netlist& netlist,
                                       std::size_t m, std::size_t& n_out) {
  for (std::size_t cand = 7 * m; cand <= 35 * m; cand += 7 * m) {
    simpler::MapperOptions options;
    options.row_width = cand;
    try {
      simpler::MappedProgram program = simpler::map_to_row(netlist, options);
      n_out = cand;
      return program;
    } catch (const std::runtime_error&) {
    }
  }
  throw std::runtime_error("circuit does not fit the test ladder");
}

TEST(ArchEngineDifferential, ProtectedVmCircuitRunsAgree) {
  for (const char* name : {"ctrl", "int2float"}) {
    SCOPED_TRACE(name);
    const circuits::CircuitSpec spec = circuits::build_circuit(name);
    std::size_t n = 0;
    const simpler::MappedProgram program = map_with_ladder(spec.netlist, 9, n);
    const ArchParams params = make_params(n, 9);
    MachinePair pair(params);
    util::Rng rng(0xE5);
    pair.load(random_matrix(n, rng));

    util::BitMatrix inputs(n, spec.netlist.num_inputs());
    for (std::size_t r = 0; r < n; ++r) {
      for (std::size_t i = 0; i < inputs.cols(); ++i) {
        inputs.set(r, i, rng.bernoulli(0.5));
      }
    }
    const simpler::ProtectedRunResult fast_result = simpler::run_program_protected(
        pair.fast, spec.netlist, program, inputs);
    const simpler::ProtectedRunResult ref_result = simpler::run_program_protected(
        pair.ref, spec.netlist, program, inputs);

    EXPECT_EQ(fast_result.outputs, ref_result.outputs);
    EXPECT_EQ(fast_result.input_check_corrections, ref_result.input_check_corrections);
    EXPECT_TRUE(fast_result.ecc_consistent_after);
    EXPECT_TRUE(ref_result.ecc_consistent_after);
    EXPECT_TRUE(machines_agree(pair));
    for (std::size_t r = 0; r < n; ++r) {
      ASSERT_EQ(fast_result.outputs.row(r), spec.reference(inputs.row(r)))
          << "row " << r;
    }
  }
}

TEST(ArchEngineDifferential, ProtectedVmRepairsPreRunFaultIdentically) {
  const circuits::CircuitSpec spec = circuits::build_circuit("ctrl");
  std::size_t n = 0;
  const simpler::MappedProgram program = map_with_ladder(spec.netlist, 9, n);
  MachinePair pair(make_params(n, 9));
  util::Rng rng(0xF6);
  pair.load(random_matrix(n, rng));

  // A soft error lands on an input cell before the run; the VM's before-use
  // check must repair it on both machines and the computation proceed.
  pair.fast.inject_data_error(3, program.input_cells[0]);
  pair.ref.inject_data_error(3, program.input_cells[0]);

  util::BitMatrix inputs(n, spec.netlist.num_inputs());
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t i = 0; i < inputs.cols(); ++i) {
      inputs.set(r, i, rng.bernoulli(0.5));
    }
  }
  const simpler::ProtectedRunResult fast_result =
      simpler::run_program_protected(pair.fast, spec.netlist, program, inputs);
  const simpler::ProtectedRunResult ref_result =
      simpler::run_program_protected(pair.ref, spec.netlist, program, inputs);
  EXPECT_EQ(fast_result.input_check_corrections, 1u);
  EXPECT_EQ(ref_result.input_check_corrections, 1u);
  EXPECT_EQ(fast_result.outputs, ref_result.outputs);
  EXPECT_TRUE(machines_agree(pair));
}

// ---------------------------------------------------- cycle-count pinning

/// Table 1 guard: a full ProtectedVm run of a bench_circuits netlist must
/// cost the exact same cycle counters on the fast and reference machines --
/// any drift in either engine's protocol accounting fails the pin.
class CyclePinningTest : public ::testing::TestWithParam<const char*> {};

TEST_P(CyclePinningTest, ProtectedVmCyclesAgreeExactly) {
  const circuits::CircuitSpec spec = circuits::build_circuit(GetParam());
  const std::size_t m = 15;
  std::size_t n = 0;
  const simpler::MappedProgram program = map_with_ladder(spec.netlist, m, n);
  MachinePair pair(make_params(n, m));
  util::Rng rng(0x715);
  pair.load(random_matrix(n, rng));

  util::BitMatrix inputs(n, spec.netlist.num_inputs());
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t i = 0; i < inputs.cols(); ++i) {
      inputs.set(r, i, rng.bernoulli(0.5));
    }
  }
  const simpler::ProtectedRunResult fast_result =
      simpler::run_program_protected(pair.fast, spec.netlist, program, inputs);
  const simpler::ProtectedRunResult ref_result =
      simpler::run_program_protected(pair.ref, spec.netlist, program, inputs);

  const arch::MachineCounters& f = pair.fast.counters();
  EXPECT_EQ(f, pair.ref.counters());
  // The run must have actually exercised the protocol: one critical op per
  // protected row load, init cycle, and gate.
  EXPECT_GE(f.critical_ops, n + program.ops.size());
  EXPECT_EQ(f.checks, n / m);  // the before-use check of every band
  EXPECT_EQ(fast_result.outputs, ref_result.outputs);
  for (std::size_t r = 0; r < n; ++r) {
    ASSERT_EQ(fast_result.outputs.row(r), spec.reference(inputs.row(r)))
        << "row " << r;
  }
}

INSTANTIATE_TEST_SUITE_P(BenchCircuits, CyclePinningTest,
                         ::testing::Values("ctrl", "cavlc", "int2float", "dec"));

// ------------------------------------------------------ absolute pins

/// Golden digests of full protected circuit runs: the output image, every
/// block's check words, and the machine counters, recorded once and
/// compared verbatim.  The differential suites above are relational (fast ==
/// reference); these pins also catch a change that shifts both engines, or
/// any dispatch level, the same way.
struct ProtectedRunPin {
  const char* circuit;
  std::size_t n;
  std::size_t m;
  std::uint64_t outputs_crc;
  std::uint64_t check_crc;
  arch::MachineCounters counters;
};

std::uint64_t outputs_crc(const util::BitMatrix& outputs) {
  util::ByteWriter w;
  for (const util::BitVector& row : outputs.rows_span()) {
    for (const std::uint64_t word : row.words()) w.u64(word);
  }
  return util::crc64(w.data());
}

std::uint64_t check_crc(const ecc::ArrayCode& code) {
  util::ByteWriter w;
  for (std::size_t br = 0; br < code.blocks_per_side(); ++br) {
    for (std::size_t bc = 0; bc < code.blocks_per_side(); ++bc) {
      const ecc::CheckBits& bits = code.check_bits({br, bc});
      for (const std::uint64_t word : bits.leading.words()) w.u64(word);
      for (const std::uint64_t word : bits.counter.words()) w.u64(word);
    }
  }
  return util::crc64(w.data());
}

void PrintTo(const ProtectedRunPin& pin, std::ostream* os) {
  *os << pin.circuit << " n=" << pin.n << " m=" << pin.m;
}

class ProtectedRunPinTest : public ::testing::TestWithParam<ProtectedRunPin> {};

TEST_P(ProtectedRunPinTest, DigestsMatchAtEveryDispatchLevel) {
  const ProtectedRunPin& pin = GetParam();
  const circuits::CircuitSpec spec = circuits::build_circuit(pin.circuit);
  simpler::MapperOptions options;
  options.row_width = pin.n;
  const simpler::MappedProgram program =
      simpler::map_to_row(spec.netlist, options);
  const LevelGuard guard;
  for (const util::simd::Level level : util::simd::available_levels()) {
    SCOPED_TRACE(util::simd::to_string(level));
    util::simd::set_level(level);
    PimMachine machine(make_params(pin.n, pin.m));
    util::Rng rng(0x919);
    machine.load(random_matrix(pin.n, rng));
    const util::BitMatrix inputs =
        util::random_bit_matrix(pin.n, spec.netlist.num_inputs(), rng);
    const simpler::ProtectedRunResult result =
        simpler::run_program_protected(machine, spec.netlist, program, inputs);
    EXPECT_TRUE(result.ecc_consistent_after);
    const std::uint64_t out = outputs_crc(result.outputs);
    const std::uint64_t check = check_crc(machine.check_code());
    const arch::MachineCounters& c = machine.counters();
    EXPECT_EQ(out, pin.outputs_crc);
    EXPECT_EQ(check, pin.check_crc);
    EXPECT_EQ(c, pin.counters);
    if (out != pin.outputs_crc || check != pin.check_crc ||
        !(c == pin.counters)) {
      std::printf("  {\"%s\", %zu, %zu, 0x%016" PRIx64 "u, 0x%016" PRIx64
                  "u, {%" PRIu64 ", %" PRIu64 ", %" PRIu64 ", %" PRIu64
                  ", %" PRIu64 "}},\n",
                  pin.circuit, pin.n, pin.m, out, check, c.mem_cycles,
                  c.cmem_cycles, c.critical_ops, c.checks, c.scrubs);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    BenchCircuits, ProtectedRunPinTest,
    ::testing::Values(
        ProtectedRunPin{"ctrl", 1020, 15,
                        0x6a59e1728679ab57u, 0xe95de995e565b80cu,
                        {2212, 23856, 2202, 68, 0}},
        ProtectedRunPin{"int2float", 1020, 15,
                        0x1ccdf05a5b4fb769u, 0x0c2c72e858aff898u,
                        {2340, 25076, 2324, 68, 0}},
        ProtectedRunPin{"cavlc", 1020, 15,
                        0xb435974d1fc5e9a9u, 0x715625676be48876u,
                        {2637, 28076, 2624, 68, 0}},
        ProtectedRunPin{"dec", 1020, 15,
                        0xc83d470173391e82u, 0xec2c8d821ceca6e8u,
                        {2371, 25436, 2360, 68, 0}},
        ProtectedRunPin{"priority", 1020, 15,
                        0xc1398db3e02a50feu, 0xb46ab2042dc928bcu,
                        {2845, 28976, 2714, 68, 0}},
        ProtectedRunPin{"ctrl", 1020, 3,
                        0x6a59e1728679ab57u, 0x4305834d0fcc46d5u,
                        {2212, 28480, 2202, 340, 0}},
        // m > 64: multiword segments on every codec path.
        ProtectedRunPin{"ctrl", 1040, 65,
                        0x7f747603b396150bu, 0x95909c093023ca0bu,
                        {2252, 23108, 2242, 16, 0}},
        ProtectedRunPin{"ctrl", 1020, 85,
                        0x6a59e1728679ab57u, 0x5e4f94db3d73597fu,
                        {2212, 22536, 2202, 12, 0}}),
    [](const ::testing::TestParamInfo<ProtectedRunPin>& info) {
      return std::string(info.param.circuit) + "_n" +
             std::to_string(info.param.n) + "_m" + std::to_string(info.param.m);
    });

/// load_random draws the image straight into the MEM: the same data, check
/// bits, counters and stream position as loading a random_bit_matrix drawn
/// from the same generator.
TEST(PimMachineLoad, LoadRandomEqualsLoadingARandomImage) {
  for (const auto& [n, m] : {std::pair<std::size_t, std::size_t>{1020, 15},
                             {130, 65}, {60, 3}}) {
    PimMachine loaded(make_params(n, m));
    PimMachine drawn(make_params(n, m));
    for (std::uint64_t seed : {1u, 2u}) {  // the second load over the first
      util::Rng a(seed), b(seed);
      loaded.load(util::random_bit_matrix(n, n, a));
      drawn.load_random(b);
      EXPECT_EQ(a.next(), b.next());
    }
    EXPECT_EQ(drawn.data(), loaded.data());
    EXPECT_EQ(check_crc(drawn.check_code()), check_crc(loaded.check_code()));
    EXPECT_EQ(drawn.counters(), loaded.counters());
    EXPECT_EQ(drawn.mem_counters(), loaded.mem_counters());
  }
}

/// The into-form of run_program_protected (outputs written into a caller's
/// matrix) is the by-value form's body: one dirty outputs matrix of another
/// shape, reused across circuits of different widths, ends up holding the
/// by-value outputs, and the machine's MachineCounters and crossbar
/// counters match a twin run by value, at every dispatch level.  A call
/// that throws leaves the caller's matrix as it was.
TEST(ProtectedRunInto, DirtyOutputsOfAnotherShapeMatchTheByValueForm) {
  constexpr std::size_t kN = 1020;
  constexpr std::size_t kM = 15;
  const LevelGuard guard;
  for (const util::simd::Level level : util::simd::available_levels()) {
    SCOPED_TRACE(util::simd::to_string(level));
    util::simd::set_level(level);
    util::BitMatrix outputs(7, 300);
    outputs.fill(true);
    std::uint64_t seed = 0x1A70;
    for (const char* name : {"dec", "ctrl", "priority", "dec", "int2float"}) {
      SCOPED_TRACE(name);
      const circuits::CircuitSpec spec = circuits::build_circuit(name);
      simpler::MapperOptions options;
      options.row_width = kN;
      const simpler::MappedProgram program =
          simpler::map_to_row(spec.netlist, options);
      PimMachine by_value(make_params(kN, kM));
      PimMachine into(make_params(kN, kM));
      util::Rng rng(++seed);
      const util::BitMatrix image = random_matrix(kN, rng);
      const util::BitMatrix inputs =
          util::random_bit_matrix(kN, spec.netlist.num_inputs(), rng);
      for (PimMachine* machine : {&by_value, &into}) {
        machine->load(image);
        machine->inject_data_error(5, 700);  // repaired by the before-use check
      }
      const simpler::ProtectedRunResult expected = simpler::run_program_protected(
          by_value, spec.netlist, program, inputs);
      const simpler::ProtectedRunChecks checks = simpler::run_program_protected(
          into, spec.netlist, program, inputs, outputs);
      EXPECT_EQ(outputs, expected.outputs);
      EXPECT_EQ(checks.input_check_corrections, 1u);
      EXPECT_EQ(checks.input_check_corrections, expected.input_check_corrections);
      EXPECT_EQ(checks.ecc_consistent_after, expected.ecc_consistent_after);
      EXPECT_EQ(into.counters(), by_value.counters());
      EXPECT_EQ(into.mem_counters(), by_value.mem_counters());
      EXPECT_EQ(into.data(), by_value.data());

      const util::BitMatrix before = outputs;
      const util::BitMatrix short_inputs(kN - 1, spec.netlist.num_inputs());
      EXPECT_THROW((void)simpler::run_program_protected(
                       into, spec.netlist, program, short_inputs, outputs),
                   std::invalid_argument);
      EXPECT_EQ(outputs, before);
    }
  }
}

// ------------------------------------------------- row-program batches

/// A random all-lane row program over the n columns but `spare` (none by
/// default): inits of one column up to all of them, and NORs of fan-in
/// 1-4.  The ops' spans point into `lines`.
struct RandomRowProgram {
  std::vector<std::vector<std::uint32_t>> lines;
  std::vector<xbar::RowOp> ops;
};

RandomRowProgram random_row_program(std::size_t n, std::size_t count,
                                    util::Rng& rng, std::size_t spare = SIZE_MAX) {
  RandomRowProgram program;
  std::vector<xbar::RowOp::Kind> kinds;
  std::vector<std::uint32_t> outs;
  std::vector<std::uint32_t> cols;  // the columns drawn from, ascending
  for (std::size_t c = 0; c < n; ++c) {
    if (c != spare) cols.push_back(static_cast<std::uint32_t>(c));
  }
  const std::size_t width = cols.size();
  std::vector<std::uint32_t> all = cols;
  for (std::size_t i = 0; i < count; ++i) {
    std::vector<std::uint32_t> lines;
    if (rng.bernoulli(0.3)) {
      // Width: one column, a few, up to all, or all.
      const std::uint64_t shape = rng.uniform_below(4);
      const std::size_t few = std::min<std::size_t>(8, width);
      const std::size_t k = shape == 0   ? 1
                            : shape == 1 ? 1 + rng.uniform_below(few)
                            : shape == 2 ? 1 + rng.uniform_below(width)
                                         : width;
      for (std::size_t j = 0; j < k; ++j) {
        std::swap(all[j], all[j + rng.uniform_below(width - j)]);
      }
      lines.assign(all.begin(), all.begin() + static_cast<std::ptrdiff_t>(k));
      kinds.push_back(xbar::RowOp::Kind::kInit);
      outs.push_back(0);
    } else {
      const std::uint32_t out = cols[rng.uniform_below(width)];
      const std::size_t fan_in = 1 + rng.uniform_below(4);
      for (std::size_t j = 0; j < fan_in; ++j) {
        const std::size_t at = rng.uniform_below(width);
        lines.push_back(cols[cols[at] == out ? (at + 1) % width : at]);
      }
      kinds.push_back(xbar::RowOp::Kind::kNor);
      outs.push_back(out);
    }
    program.lines.push_back(std::move(lines));
  }
  for (std::size_t i = 0; i < count; ++i) {
    program.ops.push_back({kinds[i], outs[i], program.lines[i]});
  }
  return program;
}

/// A row program shaped like a mapped benchmark's: a first init of most
/// columns, at least one in every 64-column word group, then NORs of
/// fan-in 1-4 confined to at most three word groups, with small inits
/// anywhere in between.  A few NOR columns are never initialized, so the
/// violation sums are not zero.  The ops' spans point into `lines`.
RandomRowProgram bench_shaped_row_program(std::size_t n, std::size_t count,
                                          util::Rng& rng) {
  const std::size_t groups = (n + 63) / 64;
  std::vector<std::size_t> nor_groups;
  while (nor_groups.size() < std::min<std::size_t>(3, groups)) {
    const std::size_t g = rng.uniform_below(groups);
    if (std::find(nor_groups.begin(), nor_groups.end(), g) == nor_groups.end()) {
      nor_groups.push_back(g);
    }
    if (rng.bernoulli(0.3)) break;  // sometimes one or two groups
  }
  std::vector<std::uint32_t> nor_cols;
  for (const std::size_t g : nor_groups) {
    for (std::size_t c = g * 64; c < std::min(n, g * 64 + 64); ++c) {
      nor_cols.push_back(static_cast<std::uint32_t>(c));
    }
  }
  std::set<std::uint32_t> uninit;
  while (uninit.size() < 3) {
    uninit.insert(nor_cols[rng.uniform_below(nor_cols.size())]);
  }
  const auto initable = [&](std::size_t c) {
    return uninit.count(static_cast<std::uint32_t>(c)) == 0;
  };

  RandomRowProgram program;
  std::vector<xbar::RowOp> shapes;  // kinds and outputs; spans filled last
  std::vector<std::uint32_t> first;
  for (std::size_t g = 0; g < groups; ++g) {
    bool covered = false;
    for (std::size_t c = g * 64; c < std::min(n, g * 64 + 64); ++c) {
      if (!initable(c) || !(rng.bernoulli(0.9) || !covered)) continue;
      first.push_back(static_cast<std::uint32_t>(c));
      covered = true;
    }
  }
  program.lines.push_back(std::move(first));
  shapes.push_back({xbar::RowOp::Kind::kInit, 0, {}});
  for (std::size_t i = 1; i < count; ++i) {
    std::vector<std::uint32_t> lines;
    if (rng.bernoulli(0.15)) {
      // A small init: one to three distinct initializable columns.
      const std::size_t k = 1 + rng.uniform_below(3);
      while (lines.size() < k) {
        const auto c = static_cast<std::uint32_t>(rng.uniform_below(n));
        if (initable(c) && std::find(lines.begin(), lines.end(), c) == lines.end()) {
          lines.push_back(c);
        }
      }
      shapes.push_back({xbar::RowOp::Kind::kInit, 0, {}});
    } else {
      const std::uint32_t out = nor_cols[rng.uniform_below(nor_cols.size())];
      const std::size_t fan_in = 1 + rng.uniform_below(4);
      while (lines.size() < fan_in) {
        const std::uint32_t in = nor_cols[rng.uniform_below(nor_cols.size())];
        if (in != out) lines.push_back(in);
      }
      shapes.push_back({xbar::RowOp::Kind::kNor, out, {}});
    }
    program.lines.push_back(std::move(lines));
  }
  for (std::size_t i = 0; i < count; ++i) {
    program.ops.push_back({shapes[i].kind, shapes[i].out, program.lines[i]});
  }
  return program;
}

std::vector<std::size_t> widen(std::span<const std::uint32_t> lines) {
  return {lines.begin(), lines.end()};
}

/// Issues `ops` one by one through the per-op protected entry points.
void run_ops_one_by_one(PimMachine& machine, std::span<const xbar::RowOp> ops) {
  for (const xbar::RowOp& op : ops) {
    if (op.kind == xbar::RowOp::Kind::kInit) {
      machine.magic_init_rows_protected(widen(op.lines));
    } else {
      machine.magic_nor_rows_protected(widen(op.lines), op.out);
    }
  }
}

/// Everything a row program may change, compared between two machines.
::testing::AssertionResult same_machine_state(const PimMachine& a,
                                              const PimMachine& b) {
  if (!(a.data() == b.data())) {
    return ::testing::AssertionFailure() << "MEM contents diverge";
  }
  const ecc::ArrayCode& ca = a.check_code();
  for (std::size_t br = 0; br < ca.blocks_per_side(); ++br) {
    for (std::size_t bc = 0; bc < ca.blocks_per_side(); ++bc) {
      if (!(ca.check_bits({br, bc}) == b.check_code().check_bits({br, bc}))) {
        return ::testing::AssertionFailure()
               << "check words of block (" << br << ", " << bc << ") diverge";
      }
    }
  }
  if (!(a.counters() == b.counters())) {
    return ::testing::AssertionFailure()
           << "MachineCounters diverge: mem " << a.counters().mem_cycles << "/"
           << b.counters().mem_cycles << " cmem " << a.counters().cmem_cycles
           << "/" << b.counters().cmem_cycles;
  }
  if (!(a.mem_counters() == b.mem_counters())) {
    return ::testing::AssertionFailure() << "crossbar counters diverge";
  }
  return ::testing::AssertionSuccess();
}

/// Makes a row program of `count` ops over n columns.
using RowProgramMaker =
    RandomRowProgram (*)(std::size_t n, std::size_t count, util::Rng& rng);

RandomRowProgram any_row_program(std::size_t n, std::size_t count, util::Rng& rng) {
  return random_row_program(n, count, rng);
}

/// One batch-vs-one-by-one comparison at every dispatch level: `make`'s
/// row programs, some after a pre-injected check-bit and data error (the
/// net delta fold is linear, so it must track inconsistent parity exactly
/// like the per-op updates), each followed by a rejected program whose last
/// op is bad.  With `expect_violations`, every program must also count some
/// violations.
void run_row_batch_differential(std::size_t n, std::size_t m, std::uint64_t seed,
                                RowProgramMaker make = any_row_program,
                                bool expect_violations = false) {
  const ArchParams params = make_params(n, m);
  const LevelGuard guard;
  for (const util::simd::Level level : util::simd::available_levels()) {
    SCOPED_TRACE(util::simd::to_string(level));
    util::simd::set_level(level);
    util::Rng rng(seed);
    PimMachine batch(params);
    PimMachine single(params);
    const util::BitMatrix image = random_matrix(n, rng);
    batch.load(image);
    single.load(image);
    for (int round = 0; round < 4; ++round) {
      SCOPED_TRACE(round);
      if (round % 2 == 1) {
        const std::size_t diag = rng.uniform_below(m);
        const ecc::BlockIndex block{rng.uniform_below(n / m),
                                    rng.uniform_below(n / m)};
        const std::size_t r = rng.uniform_below(n);
        const std::size_t c = rng.uniform_below(n);
        for (PimMachine* machine : {&batch, &single}) {
          machine->inject_check_error(Axis::kCounter, diag, block);
          machine->inject_data_error(r, c);
        }
      }
      const RandomRowProgram program = make(n, 24 + 8 * round, rng);

      // The bare crossbar: run_rows' violation sum and state equal the
      // same ops issued alone.
      xbar::Crossbar bare_batch(n, n);
      xbar::Crossbar bare_single(n, n);
      bare_batch.contents_mutable() = batch.data();
      bare_single.contents_mutable() = batch.data();
      const std::uint64_t violations = bare_batch.run_rows(program.ops);
      std::uint64_t single_violations = 0;
      for (const xbar::RowOp& op : program.ops) {
        if (op.kind == xbar::RowOp::Kind::kInit) {
          bare_single.magic_init(xbar::Orientation::kRow, widen(op.lines));
        } else {
          single_violations += bare_single
                                   .magic_nor(xbar::Orientation::kRow,
                                              widen(op.lines), op.out)
                                   .violations;
        }
      }
      EXPECT_EQ(violations, single_violations);
      if (expect_violations) {
        EXPECT_GT(violations, 0u);
      }
      EXPECT_EQ(bare_batch.contents(), bare_single.contents());
      EXPECT_EQ(bare_batch.counters(), bare_single.counters());

      batch.run_rows_protected(program.ops);
      run_ops_one_by_one(single, program.ops);
      ASSERT_TRUE(same_machine_state(batch, single));
      EXPECT_EQ(batch.data(), bare_batch.contents());
      EXPECT_EQ(batch.ecc_consistent(), round % 2 == 0);
      // The mem_cycles rule: the crossbar's cycles plus the last op's
      // transfers.
      const xbar::RowOp& last = program.ops.back();
      const std::uint64_t last_lines =
          last.kind == xbar::RowOp::Kind::kInit ? last.lines.size() : 1;
      EXPECT_EQ(batch.counters().mem_cycles,
                batch.mem_counters().cycles +
                    2 * params.transfer_cycles * last_lines);

      // A bad op last: rejected before the first op runs.
      const std::uint32_t bad_in[2] = {1, static_cast<std::uint32_t>(n)};
      const std::uint32_t dup[2] = {2, 2};
      const std::uint32_t overlap[1] = {3};
      for (const xbar::RowOp& bad :
           {xbar::RowOp{xbar::RowOp::Kind::kNor, 4, bad_in},
            xbar::RowOp{xbar::RowOp::Kind::kNor, 3, overlap},
            xbar::RowOp{xbar::RowOp::Kind::kNor, 3, {}},
            xbar::RowOp{xbar::RowOp::Kind::kInit, 0, dup}}) {
        std::vector<xbar::RowOp> rejected = program.ops;
        rejected.push_back(bad);
        PimMachine before = batch;
        EXPECT_ANY_THROW(batch.run_rows_protected(rejected));
        ASSERT_TRUE(same_machine_state(batch, before));
        // The bare crossbar rejects it whole too.
        const xbar::Crossbar bare_before = bare_batch;
        EXPECT_ANY_THROW((void)bare_batch.run_rows(rejected));
        EXPECT_EQ(bare_batch.contents(), bare_before.contents());
        EXPECT_EQ(bare_batch.counters(), bare_before.counters());
      }

      // Restore consistency for the next round on both machines alike.
      (void)batch.scrub();
      (void)single.scrub();
      ASSERT_TRUE(same_machine_state(batch, single));
    }
    // An empty program changes nothing.
    const PimMachine before = batch;
    batch.run_rows_protected({});
    EXPECT_TRUE(same_machine_state(batch, before));
  }
}

TEST(RowBatchDifferential, MatchesOneByOneN60M15) {
  run_row_batch_differential(60, 15, 0xB0A7'0001ull);  // n < 64: one partial tile
}

TEST(RowBatchDifferential, MatchesOneByOneN135M9) {
  run_row_batch_differential(135, 9, 0xB0A7'0002ull);
}

TEST(RowBatchDifferential, MatchesOneByOneN1020M15) {
  run_row_batch_differential(1020, 15, 0xB0A7'0003ull);
}

TEST(RowBatchDifferential, MatchesOneByOneN130M65) {
  // m > 64: the band fold over segments of two and four words, and bands
  // that straddle tiles.
  run_row_batch_differential(130, 65, 0xB0A7'0004ull);
  run_row_batch_differential(1020, 85, 0xB0A7'0005ull);
  run_row_batch_differential(1020, 255, 0xB0A7'0006ull);
}

TEST(RowBatchDifferential, BenchShapedMatchesOneByOne) {
  // A first init in every word group and NORs in at most three: most
  // groups' inits take the row-space path, the rest the tile walk.
  run_row_batch_differential(60, 15, 0xB0A7'0007ull, bench_shaped_row_program, true);
  run_row_batch_differential(135, 9, 0xB0A7'0008ull, bench_shaped_row_program, true);
  run_row_batch_differential(1020, 15, 0xB0A7'0009ull, bench_shaped_row_program,
                             true);
}

// ------------------------------------------------ row programs with I/O

/// A random row-program I/O over n columns: distinct input, constant-one
/// and constant-zero columns, and outputs drawn from every column with two
/// input cells among them.  Where n allows, more than 64 inputs and more
/// than 64 outputs (two 64-column word groups of each).  The caller keeps
/// input_cols[0] out of the program, so output 0 reads an input no op
/// touches.
struct RandomRowIo {
  std::vector<std::uint32_t> input_cols;
  std::vector<std::uint32_t> one_cols;
  std::vector<std::uint32_t> zero_cols;
  std::vector<std::uint32_t> output_cols;
  util::BitMatrix inputs;

  [[nodiscard]] xbar::RowIo view(util::BitMatrix& outputs) const {
    return {input_cols, &inputs, one_cols, zero_cols, output_cols, &outputs};
  }
};

RandomRowIo random_row_io(std::size_t n, util::Rng& rng) {
  const auto count = [&](std::size_t bound) {
    return n / 2 > 65 ? 65 + rng.uniform_below(n / 2 - 65)
                      : 1 + rng.uniform_below(bound);
  };
  std::vector<std::uint32_t> cols(n);
  for (std::size_t c = 0; c < n; ++c) cols[c] = static_cast<std::uint32_t>(c);
  for (std::size_t j = 0; j + 1 < n; ++j) {
    std::swap(cols[j], cols[j + rng.uniform_below(n - j)]);
  }
  RandomRowIo io;
  const std::size_t k = count(n / 2);
  const std::size_t ones = 1 + rng.uniform_below(3);
  const std::size_t zeros = 1 + rng.uniform_below(3);
  auto next = cols.begin();
  const auto take = [&](std::vector<std::uint32_t>& out, std::size_t size) {
    out.assign(next, next + static_cast<std::ptrdiff_t>(size));
    next += static_cast<std::ptrdiff_t>(size);
  };
  take(io.input_cols, k);
  take(io.one_cols, ones);
  take(io.zero_cols, zeros);
  const std::size_t p = count(n / 2);
  for (std::size_t j = 0; j < p; ++j) {
    io.output_cols.push_back(static_cast<std::uint32_t>(rng.uniform_below(n)));
  }
  io.output_cols[0] = io.input_cols[0];
  io.output_cols[p / 2] = io.input_cols[k - 1];
  io.inputs = util::random_bit_matrix(n, k, rng);
  return io;
}

/// The I/O pass's definition on the protected machine: one
/// write_row_protected per row, the program, and a row-major gather.
void write_run_read(PimMachine& machine, std::span<const xbar::RowOp> ops,
                    const xbar::RowIo& io) {
  for (std::size_t r = 0; r < machine.n(); ++r) {
    util::BitVector image = machine.data().row(r);
    for (std::size_t i = 0; i < io.input_cols.size(); ++i) {
      image.set(io.input_cols[i], io.inputs->get(r, i));
    }
    for (const std::uint32_t c : io.one_cols) image.set(c, true);
    for (const std::uint32_t c : io.zero_cols) image.set(c, false);
    machine.write_row_protected(r, image);
  }
  machine.run_rows_protected(ops);
  for (std::size_t r = 0; r < machine.n(); ++r) {
    for (std::size_t j = 0; j < io.output_cols.size(); ++j) {
      io.outputs->set(r, j, machine.data().get(r, io.output_cols[j]));
    }
  }
}

/// The same on the bare crossbar: pokes, run_rows, peeks.
std::uint64_t poke_run_peek(xbar::Crossbar& xb, std::span<const xbar::RowOp> ops,
                            const xbar::RowIo& io) {
  for (std::size_t r = 0; r < xb.rows(); ++r) {
    for (std::size_t i = 0; i < io.input_cols.size(); ++i) {
      xb.poke(r, io.input_cols[i], io.inputs->get(r, i));
    }
    for (const std::uint32_t c : io.one_cols) xb.poke(r, c, true);
    for (const std::uint32_t c : io.zero_cols) xb.poke(r, c, false);
  }
  const std::uint64_t violations = xb.run_rows(ops);
  for (std::size_t r = 0; r < xb.rows(); ++r) {
    for (std::size_t j = 0; j < io.output_cols.size(); ++j) {
      io.outputs->set(r, j, xb.peek(r, io.output_cols[j]));
    }
  }
  return violations;
}

/// Every way a RowIo must be rejected: an out-of-range written or output
/// cell, a constant on an input cell, and each matrix mis-shaped.  Each
/// case gets its own copy of `io`'s lists and a matrix `outputs` fits.
template <class Check>
void for_each_bad_io(const RandomRowIo& io, std::size_t n, Check&& check) {
  const auto out_of_range = static_cast<std::uint32_t>(n);
  util::BitMatrix outputs(n, io.output_cols.size());
  RandomRowIo bad = io;
  bad.input_cols[1 % bad.input_cols.size()] = out_of_range;
  check("input out of range", bad.view(outputs), outputs);
  bad = io;
  bad.output_cols.back() = out_of_range;
  check("output out of range", bad.view(outputs), outputs);
  bad = io;
  bad.zero_cols[0] = out_of_range;
  check("constant out of range", bad.view(outputs), outputs);
  bad = io;
  bad.one_cols[0] = bad.input_cols.back();
  check("constant on an input", bad.view(outputs), outputs);
  bad = io;
  bad.inputs = util::BitMatrix(n, io.input_cols.size() + 1);
  check("inputs too wide", bad.view(outputs), outputs);
  bad.inputs = util::BitMatrix(n - 1, io.input_cols.size());
  check("inputs too short", bad.view(outputs), outputs);
  util::BitMatrix narrow(n, io.output_cols.size() - 1);
  check("outputs too narrow", io.view(narrow), narrow);
}

/// The fused I/O pass against its definition, at every dispatch level:
/// random programs and I/O (some after an injected data and check error,
/// one with an empty op list) on two PimMachines, and on two bare
/// crossbars; then every rejected I/O leaves machine and crossbar as they
/// were.
void run_row_io_differential(std::size_t n, std::size_t m, std::uint64_t seed) {
  const ArchParams params = make_params(n, m);
  const LevelGuard guard;
  for (const util::simd::Level level : util::simd::available_levels()) {
    SCOPED_TRACE(util::simd::to_string(level));
    util::simd::set_level(level);
    util::Rng rng(seed);
    PimMachine fused(params);
    PimMachine split(params);
    const util::BitMatrix image = random_matrix(n, rng);
    fused.load(image);
    split.load(image);
    RandomRowIo io;
    for (int round = 0; round < 6; ++round) {
      SCOPED_TRACE(round);
      if (round % 2 == 1) {
        const std::size_t diag = rng.uniform_below(m);
        const ecc::BlockIndex block{rng.uniform_below(n / m),
                                    rng.uniform_below(n / m)};
        const std::size_t r = rng.uniform_below(n);
        const std::size_t c = rng.uniform_below(n);
        for (PimMachine* machine : {&fused, &split}) {
          machine->inject_check_error(Axis::kLeading, diag, block);
          machine->inject_data_error(r, c);
        }
      }
      io = random_row_io(n, rng);
      const RandomRowProgram program =
          round == 4 ? RandomRowProgram{}
                     : random_row_program(n, 16 + 8 * round, rng, io.input_cols[0]);

      // The bare crossbar: the I/O pass equals pokes + run_rows + peeks.
      xbar::Crossbar bare_fused(n, n);
      xbar::Crossbar bare_split(n, n);
      bare_fused.contents_mutable() = fused.data();
      bare_split.contents_mutable() = fused.data();
      util::BitMatrix bare_fused_out(n, io.output_cols.size());
      util::BitMatrix bare_split_out(n, io.output_cols.size());
      EXPECT_EQ(bare_fused.run_rows(program.ops, {}, io.view(bare_fused_out)),
                poke_run_peek(bare_split, program.ops, io.view(bare_split_out)));
      EXPECT_EQ(bare_fused_out, bare_split_out);
      EXPECT_EQ(bare_fused.contents(), bare_split.contents());
      EXPECT_EQ(bare_fused.counters(), bare_split.counters());

      util::BitMatrix fused_out(n, io.output_cols.size());
      util::BitMatrix split_out(n, io.output_cols.size());
      fused.run_rows_protected(program.ops, io.view(fused_out));
      write_run_read(split, program.ops, io.view(split_out));
      ASSERT_TRUE(same_machine_state(fused, split));
      EXPECT_EQ(fused.mem_counters(), split.mem_counters());
      EXPECT_EQ(fused_out, split_out);
      EXPECT_EQ(fused_out, bare_fused_out);
      EXPECT_EQ(fused.ecc_consistent(), round % 2 == 0);
      // Output 0 reads an input no op touches.
      EXPECT_EQ(fused_out.column(0), io.inputs.column(0));

      (void)fused.scrub();
      (void)split.scrub();
      ASSERT_TRUE(same_machine_state(fused, split));
    }

    const RandomRowProgram program = random_row_program(n, 12, rng, io.input_cols[0]);
    xbar::Crossbar bare(n, n);
    bare.contents_mutable() = fused.data();
    for_each_bad_io(io, n, [&](const char* what, const xbar::RowIo& bad,
                               const util::BitMatrix& outputs) {
      SCOPED_TRACE(what);
      const util::BitMatrix outputs_before = outputs;
      const PimMachine before = fused;
      EXPECT_ANY_THROW(fused.run_rows_protected(program.ops, bad));
      ASSERT_TRUE(same_machine_state(fused, before));
      const xbar::Crossbar bare_before = bare;
      EXPECT_ANY_THROW((void)bare.run_rows(program.ops, {}, bad));
      EXPECT_EQ(bare.contents(), bare_before.contents());
      EXPECT_EQ(bare.counters(), bare_before.counters());
      EXPECT_EQ(outputs, outputs_before);
    });
  }
}

TEST(ProtectedRunIoDifferential, MatchesRowWritesN60M15) {
  run_row_io_differential(60, 15, 0x10D1'0001ull);  // n < 64: one partial tile
}

TEST(ProtectedRunIoDifferential, MatchesRowWritesN135M9) {
  run_row_io_differential(135, 9, 0x10D1'0002ull);
}

TEST(ProtectedRunIoDifferential, MatchesRowWritesN1020M15) {
  run_row_io_differential(1020, 15, 0x10D1'0003ull);
}

TEST(ProtectedRunIoDifferential, MatchesRowWritesN130M65) {
  // m > 64: the band fold over segments of two and four words.
  run_row_io_differential(130, 65, 0x10D1'0004ull);
  run_row_io_differential(1020, 85, 0x10D1'0006ull);
  run_row_io_differential(1020, 255, 0x10D1'0007ull);
}

TEST(ProtectedRunIoDifferential, ReferenceMachineAgrees) {
  // The oracle's I/O entry (per-row writes, per-op protocol, per-cell
  // reads) against the fused pass, rejections included.
  for (const auto& [n, m] : {std::pair<std::size_t, std::size_t>{60, 15},
                             std::pair<std::size_t, std::size_t>{135, 9}}) {
    SCOPED_TRACE(n);
    MachinePair pair(make_params(n, m));
    util::Rng rng(0x10D1'0005ull ^ n);
    pair.load(random_matrix(n, rng));
    pair.fast.inject_data_error(n / 2, n / 3);
    pair.ref.inject_data_error(n / 2, n / 3);
    for (int round = 0; round < 3; ++round) {
      SCOPED_TRACE(round);
      const RandomRowIo io = random_row_io(n, rng);
      const RandomRowProgram program =
          random_row_program(n, round == 1 ? 0 : 20, rng, io.input_cols[0]);
      util::BitMatrix fast_out(n, io.output_cols.size());
      util::BitMatrix ref_out(n, io.output_cols.size());
      pair.fast.run_rows_protected(program.ops, io.view(fast_out));
      pair.ref.run_rows_protected(program.ops, io.view(ref_out));
      EXPECT_EQ(fast_out, ref_out);
      ASSERT_TRUE(machines_agree(pair));
      for_each_bad_io(io, n, [&](const char* what, const xbar::RowIo& bad,
                                 const util::BitMatrix&) {
        SCOPED_TRACE(what);
        EXPECT_ANY_THROW(pair.fast.run_rows_protected(program.ops, bad));
        EXPECT_ANY_THROW(pair.ref.run_rows_protected(program.ops, bad));
      });
      ASSERT_TRUE(machines_agree(pair));
      // A bad op last, with a valid I/O: both machines reject the program
      // with the same exception type.
      const std::uint32_t bad_in[2] = {1, static_cast<std::uint32_t>(n)};
      const std::uint32_t dup[2] = {2, 2};
      const std::uint32_t overlap[1] = {3};
      util::BitMatrix outputs(n, io.output_cols.size());
      const auto rejected = [&](const xbar::RowOp& bad) {
        std::vector<xbar::RowOp> ops = program.ops;
        ops.push_back(bad);
        return ops;
      };
      const auto input = rejected({xbar::RowOp::Kind::kNor, 4, bad_in});
      EXPECT_THROW(pair.fast.run_rows_protected(input, io.view(outputs)),
                   std::out_of_range);
      EXPECT_THROW(pair.ref.run_rows_protected(input, io.view(outputs)),
                   std::out_of_range);
      for (const xbar::RowOp& bad : {xbar::RowOp{xbar::RowOp::Kind::kNor, 3, overlap},
                                     xbar::RowOp{xbar::RowOp::Kind::kNor, 3, {}},
                                     xbar::RowOp{xbar::RowOp::Kind::kInit, 0, dup}}) {
        const auto ops = rejected(bad);
        EXPECT_THROW(pair.fast.run_rows_protected(ops, io.view(outputs)),
                     std::invalid_argument);
        EXPECT_THROW(pair.ref.run_rows_protected(ops, io.view(outputs)),
                     std::invalid_argument);
      }
      ASSERT_TRUE(machines_agree(pair));
    }
  }
}

// ------------------------------------------------------------ metamorphic

/// After every public operation: the ECC invariant holds, and a forced
/// single-bit flip anywhere (data or check) is detected and repaired.
void run_metamorphic_program(std::size_t n, std::size_t m, std::uint64_t seed,
                             int ops) {
  PimMachine machine(make_params(n, m));
  util::Rng rng(seed);
  machine.load(random_matrix(n, rng));

  for (int i = 0; i < ops; ++i) {
    const std::uint64_t kind = rng.uniform_below(3);
    const std::size_t out = rng.uniform_below(n);
    std::size_t in1 = rng.uniform_below(n);
    if (in1 == out) in1 = (in1 + 1) % n;
    const std::vector<std::size_t> outs{out};
    const std::vector<std::size_t> ins{in1};
    if (kind == 0) {
      machine.magic_init_rows_protected(outs);
      machine.magic_nor_rows_protected(ins, out);
    } else if (kind == 1) {
      machine.magic_init_cols_protected(outs);
      machine.magic_nor_cols_protected(ins, out);
    } else {
      machine.write_row_protected(out, random_vector(n, rng));
    }
    ASSERT_TRUE(machine.ecc_consistent()) << "op " << i;

    if (rng.bernoulli(0.5)) {
      // Forced data flip anywhere: detected, located, repaired.
      const std::size_t r = rng.uniform_below(n);
      const std::size_t c = rng.uniform_below(n);
      const util::BitMatrix snapshot = machine.data();
      machine.inject_data_error(r, c);
      ASSERT_FALSE(machine.ecc_consistent());
      const CheckReport report = machine.check_block_row(r);
      EXPECT_EQ(report.corrected_data, 1u) << "op " << i;
      ASSERT_TRUE(machine.ecc_consistent()) << "op " << i;
      EXPECT_EQ(machine.data(), snapshot);
    } else {
      // Forced check-bit flip: repaired in the check store.
      const Axis axis = rng.bernoulli(0.5) ? Axis::kLeading : Axis::kCounter;
      const std::size_t diag = rng.uniform_below(m);
      const ecc::BlockIndex block{rng.uniform_below(n / m),
                                  rng.uniform_below(n / m)};
      machine.inject_check_error(axis, diag, block);
      ASSERT_FALSE(machine.ecc_consistent());
      const CheckReport report = machine.check_block_col(block.block_col * m);
      EXPECT_EQ(report.corrected_check, 1u) << "op " << i;
      ASSERT_TRUE(machine.ecc_consistent()) << "op " << i;
    }
  }
}

TEST(ArchEngineMetamorphic, ConsistencyAndSingleFlipRepairN45M9) {
  run_metamorphic_program(45, 9, 0x3117, 60);
}

TEST(ArchEngineMetamorphic, ConsistencyAndSingleFlipRepairN60M15) {
  run_metamorphic_program(60, 15, 0x3118, 50);
}

// ------------------------------------------------ validate-before-mutate

/// Every rejecting entry point must leave the machine -- contents, check
/// state, cycle counters -- exactly as it was (the PR 2/3 convention
/// applied to the arch layer).  Template: the contract is part of the
/// shared public API of both machines.
template <typename Machine>
void expect_rejects_without_mutating(Machine& machine) {
  const std::size_t n = machine.n();
  const util::BitMatrix data_before = machine.data();
  const arch::MachineCounters counters_before = machine.counters();
  // The oracle has no crossbar counters to compare.
  constexpr bool kHasMemCounters =
      requires(const Machine& m) { m.mem_counters(); };
  [[maybe_unused]] xbar::Crossbar::Counters mem_counters_before;
  if constexpr (kHasMemCounters) mem_counters_before = machine.mem_counters();

  EXPECT_THROW(machine.load(util::BitMatrix(n, n - 1)), std::invalid_argument);
  EXPECT_THROW(machine.write_row_protected(n, util::BitVector(n)),
               std::out_of_range);
  EXPECT_THROW(machine.write_row_protected(0, util::BitVector(n - 1)),
               std::invalid_argument);

  const std::vector<std::size_t> bad_line{n};
  const std::vector<std::size_t> ins{1, 2};
  const std::vector<std::size_t> dup{3, 3};
  EXPECT_THROW(machine.magic_nor_rows_protected(bad_line, 5), std::out_of_range);
  EXPECT_THROW(machine.magic_nor_rows_protected(ins, n), std::out_of_range);
  EXPECT_THROW(machine.magic_nor_cols_protected(bad_line, 5), std::out_of_range);
  EXPECT_THROW(machine.magic_nor_cols_protected(ins, n), std::out_of_range);
  // Duplicate init lines: before this engine, the second update cancelled
  // the first (both deltas were computed against the same pre-init
  // snapshot), silently corrupting the ECC; now the batch is rejected
  // up front.
  EXPECT_THROW(machine.magic_init_rows_protected(dup), std::invalid_argument);
  EXPECT_THROW(machine.magic_init_rows_protected(bad_line), std::out_of_range);
  EXPECT_THROW(machine.magic_init_cols_protected(dup), std::invalid_argument);
  EXPECT_THROW(machine.magic_init_cols_protected(bad_line), std::out_of_range);
  // A row program is validated whole: a bad op last rejects the good one
  // before it.
  const std::uint32_t good_ins[2] = {1, 2};
  const std::uint32_t bad_ins[1] = {static_cast<std::uint32_t>(n)};
  const std::uint32_t dup_cols[2] = {3, 3};
  const std::uint32_t overlap_ins[2] = {1, 5};
  const xbar::RowOp good{xbar::RowOp::Kind::kNor, 5, good_ins};
  const std::vector<xbar::RowOp> bad_last_input{
      good, {xbar::RowOp::Kind::kNor, 5, bad_ins}};
  const std::vector<xbar::RowOp> bad_last_init{
      good, {xbar::RowOp::Kind::kInit, 0, dup_cols}};
  const std::vector<xbar::RowOp> bad_last_overlap{
      good, {xbar::RowOp::Kind::kNor, 5, overlap_ins}};
  const std::vector<xbar::RowOp> bad_last_no_inputs{
      good, {xbar::RowOp::Kind::kNor, 5, {}}};
  EXPECT_THROW(machine.run_rows_protected(bad_last_input), std::out_of_range);
  EXPECT_THROW(machine.run_rows_protected(bad_last_init), std::invalid_argument);
  EXPECT_THROW(machine.run_rows_protected(bad_last_overlap), std::invalid_argument);
  EXPECT_THROW(machine.run_rows_protected(bad_last_no_inputs),
               std::invalid_argument);

  EXPECT_THROW((void)machine.check_block_row(n), std::out_of_range);
  EXPECT_THROW((void)machine.check_block_col(n), std::out_of_range);
  EXPECT_THROW(machine.inject_data_error(n, 0), std::out_of_range);
  EXPECT_THROW(machine.inject_data_error(0, n), std::out_of_range);
  EXPECT_THROW(machine.inject_check_error(Axis::kLeading, machine.m(), {0, 0}),
               std::out_of_range);
  EXPECT_THROW(machine.inject_check_error(Axis::kCounter, 0, {n, 0}),
               std::out_of_range);

  EXPECT_EQ(machine.data(), data_before);
  EXPECT_EQ(machine.counters(), counters_before);
  if constexpr (kHasMemCounters) {
    EXPECT_EQ(machine.mem_counters(), mem_counters_before);
  }
  EXPECT_TRUE(machine.ecc_consistent());
}

TEST(ArchValidation, FastMachineRejectsBeforeMutating) {
  PimMachine machine(make_params(45, 9));
  util::Rng rng(0x7A11);
  machine.load(random_matrix(45, rng));
  expect_rejects_without_mutating(machine);
}

TEST(ArchValidation, ReferenceMachineRejectsBeforeMutating) {
  ReferencePimMachine machine(make_params(45, 9));
  util::Rng rng(0x7A12);
  machine.load(random_matrix(45, rng));
  expect_rejects_without_mutating(machine);
}

TEST(WideInitValidation, ColumnBeyond32BitsIsOutOfRangeOnBothMachines) {
  // A wide init runs as a 32-bit row op: a column that would wrap to a
  // valid one when narrowed must still be rejected as out of range.
  MachinePair pair(make_params(135, 9));
  util::Rng rng(0x7A13);
  pair.load(random_matrix(135, rng));
  std::vector<std::size_t> cols{4, 5, 6};
  cols.push_back((std::size_t{1} << 32) | 7);
  ASSERT_GT(cols.size(), 135u / 64);
  EXPECT_THROW(pair.fast.magic_init_rows_protected(cols), std::out_of_range);
  EXPECT_THROW(pair.ref.magic_init_rows_protected(cols), std::out_of_range);
  EXPECT_TRUE(machines_agree(pair));
  EXPECT_TRUE(pair.fast.ecc_consistent());
}

// --------------------------------------------------------- scheduler engine

TEST(SchedulerEngine, CalendarSkipChainMatchesNaiveLinearProbe) {
  arch::CalendarResource cal;
  std::set<std::uint64_t> naive;
  util::Rng rng(17);
  // Dense earliest-times force long occupied runs, exercising the skip
  // chain and its path compression.
  for (int i = 0; i < 3000; ++i) {
    const std::uint64_t earliest = rng.uniform_below(400);
    std::uint64_t expected = earliest;
    while (naive.contains(expected)) ++expected;
    naive.insert(expected);
    ASSERT_EQ(cal.reserve(earliest), expected) << "reservation " << i;
  }
}

TEST(SchedulerEngine, ConstructorValidatesParamsBeforeAnyState) {
  ArchParams p = make_params(45, 9);
  p.num_pcs = 0;
  EXPECT_THROW(arch::ProtocolScheduler{p}, std::invalid_argument);
  p = make_params(45, 9);
  p.xor3_cycles = 0;
  EXPECT_THROW(arch::ProtocolScheduler{p}, std::invalid_argument);
}

// ------------------------------------------------- PC controller batching

TEST(PcControllerBatch, QueuedUpdatesDrainBackToBack) {
  const std::size_t lanes = 48;
  const std::size_t updates = 5;
  util::Rng rng(0xBA7C);
  arch::PcController fsm(lanes);
  std::vector<util::BitVector> old_lines, checks, new_lines;
  for (std::size_t u = 0; u < updates; ++u) {
    old_lines.push_back(random_vector(lanes, rng));
    checks.push_back(random_vector(lanes, rng));
    new_lines.push_back(random_vector(lanes, rng));
    fsm.enqueue(old_lines.back(), checks.back(), new_lines.back());
  }
  EXPECT_TRUE(fsm.busy());
  EXPECT_EQ(fsm.pending(), updates - 1);  // first update armed immediately
  const arch::PcController::BatchResult batch = fsm.run_batch_to_completion();
  EXPECT_EQ(batch.cycles, 13u * updates);  // no idle cycles between updates
  ASSERT_EQ(batch.updated_checks.size(), updates);
  for (std::size_t u = 0; u < updates; ++u) {
    EXPECT_EQ(batch.updated_checks[u], old_lines[u] ^ new_lines[u] ^ checks[u])
        << "update " << u;
  }
  EXPECT_FALSE(fsm.busy());
  EXPECT_EQ(fsm.pending(), 0u);
}

TEST(PcControllerBatch, BatchMatchesSerialRuns) {
  const std::size_t lanes = 33;
  util::Rng rng(0xBA7D);
  std::vector<util::BitVector> old_lines, checks, new_lines;
  for (std::size_t u = 0; u < 4; ++u) {
    old_lines.push_back(random_vector(lanes, rng));
    checks.push_back(random_vector(lanes, rng));
    new_lines.push_back(random_vector(lanes, rng));
  }
  arch::PcController serial(lanes);
  std::vector<util::BitVector> serial_results;
  std::uint64_t serial_cycles = 0;
  for (std::size_t u = 0; u < 4; ++u) {
    serial.start(old_lines[u], checks[u], new_lines[u]);
    const arch::PcController::RunResult r = serial.run_to_completion();
    serial_results.push_back(r.updated_check);
    serial_cycles += r.cycles;
  }
  arch::PcController batched(lanes);
  for (std::size_t u = 0; u < 4; ++u) {
    batched.enqueue(old_lines[u], checks[u], new_lines[u]);
  }
  const arch::PcController::BatchResult batch = batched.run_batch_to_completion();
  EXPECT_EQ(batch.updated_checks, serial_results);
  EXPECT_EQ(batch.cycles, serial_cycles);
}

TEST(PcControllerBatch, EnqueueValidatesBeforeTouchingState) {
  arch::PcController fsm(8);
  EXPECT_THROW(fsm.enqueue(util::BitVector(7), util::BitVector(8),
                           util::BitVector(8)),
               std::invalid_argument);
  EXPECT_FALSE(fsm.busy());
  EXPECT_EQ(fsm.pending(), 0u);

  fsm.enqueue(util::BitVector(8), util::BitVector(8), util::BitVector(8));
  EXPECT_TRUE(fsm.busy());
  EXPECT_THROW(fsm.enqueue(util::BitVector(8), util::BitVector(9),
                           util::BitVector(8)),
               std::invalid_argument);
  EXPECT_EQ(fsm.pending(), 0u);  // the rejected update was not queued

  fsm.enqueue(util::BitVector(8), util::BitVector(8), util::BitVector(8));
  EXPECT_EQ(fsm.pending(), 1u);
  fsm.reset();  // controller abort drops the queue
  EXPECT_FALSE(fsm.busy());
  EXPECT_EQ(fsm.pending(), 0u);
}

// ------------------------------------------------------------- smoke gate

TEST(ArchEngineSmoke, TinyDifferentialProgram) {
  run_differential_program(12, 3, 0x5130, 40);
}

TEST(ArchEngineSmoke, TinyMetamorphicConsistency) {
  run_metamorphic_program(12, 3, 0x5131, 20);
}

}  // namespace
}  // namespace pimecc
