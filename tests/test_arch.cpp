// Unit + property tests for src/arch: parameters, Table II device counts,
// barrel shifters, the XOR3 processing crossbar, check memory, the
// protocol scheduler, and the PimMachine facade.
#include <gtest/gtest.h>

#include <tuple>

#include "arch/params.hpp"
#include "arch/pim_machine.hpp"
#include "arch/scheduler.hpp"
#include "core/geometry.hpp"
#include "oracle/check_memory.hpp"
#include "oracle/device_count.hpp"
#include "oracle/processing_xbar.hpp"
#include "oracle/shifter.hpp"
#include "util/rng.hpp"

namespace pimecc::arch {
namespace {

util::BitMatrix random_matrix(std::size_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  util::BitMatrix mat(n, n);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < n; ++c) mat.set(r, c, rng.bernoulli(0.5));
  }
  return mat;
}

ArchParams small_params() {
  ArchParams p;
  p.n = 45;
  p.m = 9;
  p.num_pcs = 3;
  return p;
}

// -------------------------------------------------------------------- params

TEST(ArchParams, DefaultIsThePaperCaseStudy) {
  const ArchParams p;
  EXPECT_EQ(p.n, 1020u);
  EXPECT_EQ(p.m, 15u);
  EXPECT_EQ(p.xor3_cycles, 8u);
  EXPECT_NO_THROW(p.validate());
  EXPECT_EQ(p.blocks_per_side(), 68u);
  EXPECT_EQ(p.check_bits_total(), 2u * 15u * 68u * 68u);
}

TEST(ArchParams, RejectsInvalidCombinations) {
  ArchParams p;
  p.m = 14;  // even
  EXPECT_THROW(p.validate(), std::invalid_argument);
  p.m = 7;   // does not divide 1020
  EXPECT_THROW(p.validate(), std::invalid_argument);
  p = ArchParams{};
  p.num_pcs = 0;
  EXPECT_THROW(p.validate(), std::invalid_argument);
  p.num_pcs = kMaxPcs + 1;  // one busy-until slot per crossbar
  EXPECT_THROW(p.validate(), std::invalid_argument);
  p.num_pcs = kMaxPcs;
  EXPECT_NO_THROW(p.validate());
  p = ArchParams{};
  p.xor3_cycles = 0;
  EXPECT_THROW(p.validate(), std::invalid_argument);
}

// ------------------------------------------------------------- device counts

TEST(DeviceCounts, ReproducesTableTwoExactly) {
  ArchParams p;
  p.n = 1020;
  p.m = 15;
  p.num_pcs = 3;
  const DeviceCounts counts = count_devices(p);
  ASSERT_EQ(counts.rows.size(), 6u);
  EXPECT_EQ(counts.rows[0].memristors, 1040400u);   // 1.04e6, n^2
  EXPECT_EQ(counts.rows[1].memristors, 138720u);    // 1.39e5, 2m(n/m)^2
  EXPECT_EQ(counts.rows[2].memristors, 67320u);     // 6.73e4, 2*11*k*n
  EXPECT_EQ(counts.rows[3].memristors, 2040u);      // 2n
  EXPECT_EQ(counts.rows[4].transistors, 61200u);    // 6.12e4, 4nm
  EXPECT_EQ(counts.rows[5].transistors, 14280u);    // 1.43e4, 2n(k+4)
  EXPECT_EQ(counts.total_memristors, 1248480u);     // paper: 1.25e6
  EXPECT_EQ(counts.total_transistors, 75480u);      // paper: 7.55e4
  EXPECT_NEAR(counts.memristor_overhead_fraction(), 0.2, 0.001);
}

// ------------------------------------------------------------------ shifters

class ShifterRoundTripTest
    : public ::testing::TestWithParam<std::tuple<std::size_t, bool>> {};

TEST_P(ShifterRoundTripTest, UnrouteInvertsRoute) {
  const auto [shift, reversed] = GetParam();
  const ShifterBank bank(45, 9);
  util::Rng rng(1000 + shift);
  util::BitVector line(45);
  for (std::size_t i = 0; i < 45; ++i) line.set(i, rng.bernoulli(0.5));
  const auto routed = bank.route(line, shift, reversed);
  ASSERT_EQ(routed.size(), 9u);
  for (const auto& v : routed) EXPECT_EQ(v.size(), 5u);
  EXPECT_EQ(bank.unroute(routed, shift, reversed), line);
}

INSTANTIATE_TEST_SUITE_P(
    ShiftsAndDirections, ShifterRoundTripTest,
    ::testing::Combine(::testing::Values(0, 1, 4, 8, 9, 17),
                       ::testing::Bool()));

TEST(ShifterBank, AlignsColumnLineToLeadingDiagonals) {
  // For a written column c, routing with shift = c mod m must place each
  // cell (r, c) into output vector (r + c) mod m -- the leading diagonal.
  const std::size_t n = 45, m = 9;
  const ShifterBank bank(n, m);
  const ecc::DiagonalGeometry geo(m);
  util::Rng rng(77);
  for (const std::size_t c : {std::size_t{0}, std::size_t{7}, std::size_t{23}}) {
    util::BitVector column(n);
    for (std::size_t r = 0; r < n; ++r) column.set(r, rng.bernoulli(0.5));
    const auto routed = bank.route(column, c % m, false);
    for (std::size_t r = 0; r < n; ++r) {
      const std::size_t d = geo.leading(r % m, c % m);
      EXPECT_EQ(routed[d].get(r / m), column.get(r)) << "r=" << r << " c=" << c;
    }
  }
}

TEST(ShifterBank, ReversedRoutingAlignsRowLineToCounterDiagonals) {
  // For a written row r, reversed routing with shift = (-r) mod m places
  // each cell (r, c) into output vector (r - c) mod m.
  const std::size_t n = 45, m = 9;
  const ShifterBank bank(n, m);
  const ecc::DiagonalGeometry geo(m);
  util::Rng rng(78);
  for (const std::size_t r : {std::size_t{0}, std::size_t{5}, std::size_t{31}}) {
    util::BitVector row(n);
    for (std::size_t c = 0; c < n; ++c) row.set(c, rng.bernoulli(0.5));
    const auto routed = bank.route(row, (m - r % m) % m, true);
    for (std::size_t c = 0; c < n; ++c) {
      const std::size_t d = geo.counter(r % m, c % m);
      EXPECT_EQ(routed[d].get(c / m), row.get(c)) << "r=" << r << " c=" << c;
    }
  }
}

TEST(ShifterBank, TransistorCountMatchesTableTwoShare) {
  const ShifterBank bank(1020, 15);
  EXPECT_EQ(bank.transistor_count(), 2u * 1020u * 15u);  // half of 4nm
}

TEST(ShifterBank, ValidatesArguments) {
  EXPECT_THROW(ShifterBank(10, 3), std::invalid_argument);
  const ShifterBank bank(9, 3);
  EXPECT_THROW((void)bank.route(util::BitVector(8), 0), std::invalid_argument);
  EXPECT_THROW((void)bank.unroute({}, 0), std::invalid_argument);
}

// ---------------------------------------------------------- ProcessingXbar

TEST(ProcessingXbar, ComputesXor3ForAllOperandCombinations) {
  // Eight lanes enumerate every (a, b, c) combination.
  ProcessingXbar pc(8);
  util::BitVector a(8), b(8), c(8);
  for (std::size_t lane = 0; lane < 8; ++lane) {
    a.set(lane, (lane >> 2) & 1u);
    b.set(lane, (lane >> 1) & 1u);
    c.set(lane, lane & 1u);
  }
  pc.init_working_cells();
  pc.load_operand(ProcessingXbar::kA, a);
  pc.load_operand(ProcessingXbar::kB, b);
  pc.load_operand(ProcessingXbar::kC, c);
  pc.compute();
  const util::BitVector result = pc.writeback_values();
  for (std::size_t lane = 0; lane < 8; ++lane) {
    EXPECT_EQ(result.get(lane), a.get(lane) ^ b.get(lane) ^ c.get(lane))
        << "lane " << lane;
  }
  // The raw stored value is the complement (write-back inverts once more).
  EXPECT_EQ(pc.result_raw(), ~result);
}

TEST(ProcessingXbar, UsesExactlyEightNors) {
  ProcessingXbar pc(4);
  pc.init_working_cells();
  pc.load_operand(ProcessingXbar::kA, util::BitVector(4));
  pc.load_operand(ProcessingXbar::kB, util::BitVector(4));
  pc.load_operand(ProcessingXbar::kC, util::BitVector(4));
  pc.compute();
  EXPECT_EQ(pc.nor_ops(), 8u);  // the paper's "XOR3 in 8 MAGIC NORs"
}

TEST(ProcessingXbar, ComputeWithoutInitThrows) {
  ProcessingXbar pc(2);
  pc.load_operand(ProcessingXbar::kA, util::BitVector(2, true));
  pc.load_operand(ProcessingXbar::kB, util::BitVector(2));
  pc.load_operand(ProcessingXbar::kC, util::BitVector(2));
  EXPECT_THROW(pc.compute(), std::logic_error);
}

TEST(ProcessingXbar, ValidatesOperands) {
  ProcessingXbar pc(4);
  EXPECT_THROW(pc.load_operand(ProcessingXbar::kN1, util::BitVector(4)),
               std::invalid_argument);
  EXPECT_THROW(pc.load_operand(ProcessingXbar::kA, util::BitVector(3)),
               std::invalid_argument);
  EXPECT_THROW(ProcessingXbar(0), std::invalid_argument);
}

TEST(ProcessingXbar, RandomLanesMatchReference) {
  const std::size_t lanes = 257;
  ProcessingXbar pc(lanes);
  util::Rng rng(31);
  util::BitVector a(lanes), b(lanes), c(lanes);
  for (std::size_t i = 0; i < lanes; ++i) {
    a.set(i, rng.bernoulli(0.5));
    b.set(i, rng.bernoulli(0.5));
    c.set(i, rng.bernoulli(0.5));
  }
  pc.init_working_cells();
  pc.load_operand(ProcessingXbar::kA, a);
  pc.load_operand(ProcessingXbar::kB, b);
  pc.load_operand(ProcessingXbar::kC, c);
  pc.compute();
  EXPECT_EQ(pc.writeback_values(), xor3_reference(a, b, c));
}

// -------------------------------------------------------------- CheckMemory

TEST(CheckMemory, StoreGatherRoundTrip) {
  CheckMemory cmem(small_params());
  ecc::CheckBits bits(9);
  bits.leading.set(3, true);
  bits.counter.set(7, true);
  cmem.store_block({2, 4}, bits);
  EXPECT_EQ(cmem.gather_block({2, 4}), bits);
  EXPECT_TRUE(cmem.get(Axis::kLeading, 3, {2, 4}));
  EXPECT_TRUE(cmem.get(Axis::kCounter, 7, {2, 4}));
  EXPECT_FALSE(cmem.get(Axis::kLeading, 7, {2, 4}));
}

TEST(CheckMemory, LoadFromAndMatchesArrayCode) {
  const ArchParams params = small_params();
  const util::BitMatrix data = random_matrix(params.n, 41);
  ecc::ArrayCode code(params.n, params.m);
  code.encode_all(data);
  CheckMemory cmem(params);
  cmem.load_from(code);
  EXPECT_TRUE(cmem.matches(code));
  cmem.flip(Axis::kCounter, 2, {0, 1});
  EXPECT_FALSE(cmem.matches(code));
  // store_to copies the (now corrupted) contents back out.
  ecc::ArrayCode out(params.n, params.m);
  cmem.store_to(out);
  EXPECT_TRUE(cmem.matches(out));
}

TEST(CheckMemory, DiagonalRowAndColumnVectors) {
  CheckMemory cmem(small_params());
  // Set leading diagonal 4 of every block in block-row 1.
  util::BitVector values(5, true);
  cmem.write_diagonal_row(Axis::kLeading, 4, 1, values);
  EXPECT_EQ(cmem.read_diagonal_row(Axis::kLeading, 4, 1), values);
  for (std::size_t bc = 0; bc < 5; ++bc) {
    EXPECT_TRUE(cmem.get(Axis::kLeading, 4, {1, bc}));
  }
  // Column variant.
  util::BitVector col_values(5);
  col_values.set(2, true);
  cmem.write_diagonal_col(Axis::kCounter, 0, 3, col_values);
  EXPECT_EQ(cmem.read_diagonal_col(Axis::kCounter, 0, 3), col_values);
  EXPECT_TRUE(cmem.get(Axis::kCounter, 0, {2, 3}));
}

TEST(CheckingXbar, FlagsNonZeroSyndromesAndCountsCycles) {
  const ArchParams params = small_params();
  CheckingXbar checker(params);
  EXPECT_EQ(checker.memristor_count(), 2u * params.n);
  std::vector<ecc::Syndrome> syndromes(5, ecc::Syndrome(params.m));
  syndromes[1].leading.set(0, true);
  syndromes[4].counter.set(8, true);
  const util::BitVector flags = checker.nonzero_flags(syndromes);
  EXPECT_EQ(flags.to_string(), "01001");
  EXPECT_EQ(checker.cycles(), 2u);
}

// ---------------------------------------------------------------- scheduler

TEST(Scheduler, FoldLevels) {
  EXPECT_EQ(xor3_fold_levels(1), 0u);
  EXPECT_EQ(xor3_fold_levels(2), 1u);
  EXPECT_EQ(xor3_fold_levels(3), 1u);
  EXPECT_EQ(xor3_fold_levels(4), 2u);
  EXPECT_EQ(xor3_fold_levels(9), 2u);
  EXPECT_EQ(xor3_fold_levels(16), 3u);
}

TEST(Scheduler, CalendarResourceInterleavesReservations) {
  CalendarResource cal;
  EXPECT_EQ(cal.reserve(10), 10u);
  EXPECT_EQ(cal.reserve(10), 11u);
  EXPECT_EQ(cal.reserve(3), 3u);  // early slot still free
  EXPECT_EQ(cal.reserve(3), 4u);
}

TEST(Scheduler, PlainOpsRunBackToBack) {
  ProtocolScheduler sched(small_params());
  EXPECT_EQ(sched.schedule_plain_op(), 0u);
  EXPECT_EQ(sched.schedule_plain_op(), 1u);
  EXPECT_EQ(sched.schedule_plain_op(), 2u);
  const ScheduleStats stats = sched.finish();
  EXPECT_EQ(stats.mem_cycles, 3u);
  EXPECT_EQ(stats.stall_cycles, 0u);
  EXPECT_EQ(stats.makespan, 3u);
}

TEST(Scheduler, CriticalOpAddsTwoMemCyclesWhenUncontended) {
  ArchParams params = small_params();
  params.wait_check_before_critical = false;
  ProtocolScheduler sched(params);
  sched.schedule_plain_op();          // cycle 0
  sched.schedule_critical_op(1);      // old@1, gate@2, new@3
  const std::uint64_t next = sched.schedule_plain_op();
  EXPECT_EQ(next, 4u);                // MEM consumed 3 cycles for the critical
  const ScheduleStats stats = sched.finish();
  EXPECT_EQ(stats.critical_ops, 1u);
  EXPECT_GT(stats.makespan, 4u);      // XOR3 + write-back retire later
}

TEST(Scheduler, CriticalWaitsForInputCheckWhenConfigured) {
  ArchParams params = small_params();
  params.wait_check_before_critical = true;
  ProtocolScheduler sched(params);
  sched.schedule_input_check();
  const std::uint64_t check_done = sched.check_done();
  EXPECT_GT(check_done, params.m);
  const std::uint64_t gate = sched.schedule_critical_op(1);
  EXPECT_GE(gate, check_done);
}

TEST(Scheduler, StallPolicySerializesSameCheckBit) {
  ArchParams forward = small_params();
  forward.num_pcs = 8;  // enough PCs that only the hazard can serialize
  forward.wait_check_before_critical = false;
  forward.hazard = HazardPolicy::kForward;
  ArchParams stall = forward;
  stall.hazard = HazardPolicy::kStall;

  ProtocolScheduler sf(forward), ss(stall);
  for (int i = 0; i < 5; ++i) {
    sf.schedule_critical_op(42);
    ss.schedule_critical_op(42);
  }
  EXPECT_GT(ss.finish().makespan, sf.finish().makespan);
}

TEST(Scheduler, MorePcsNeverSlower) {
  std::uint64_t prev = ~std::uint64_t{0};
  for (const std::size_t k : {1u, 2u, 4u, 8u}) {
    ArchParams params = small_params();
    params.num_pcs = k;
    params.wait_check_before_critical = false;
    ProtocolScheduler sched(params);
    for (int i = 0; i < 50; ++i) sched.schedule_critical_op(i);
    const std::uint64_t makespan = sched.finish().makespan;
    EXPECT_LE(makespan, prev) << "k=" << k;
    prev = makespan;
  }
}

TEST(Scheduler, CancelBatchCostsOneMemCyclePerCell) {
  ArchParams params = small_params();
  ProtocolScheduler sched(params);
  std::vector<CheckCellKey> keys = {1, 2, 3, 4, 5, 6, 7};
  sched.schedule_cancel_batch(keys);
  const ScheduleStats stats = sched.finish();
  EXPECT_EQ(stats.cancel_ops, 7u);
  EXPECT_EQ(stats.mem_cycles, 7u);  // one transfer per canceled cell
  EXPECT_EQ(stats.stall_cycles, 0u);
}

TEST(Scheduler, EmptyCancelBatchIsFree) {
  ProtocolScheduler sched(small_params());
  sched.schedule_cancel_batch({});
  const ScheduleStats stats = sched.finish();
  EXPECT_EQ(stats.cancel_ops, 0u);
  EXPECT_EQ(stats.mem_cycles, 0u);
}


TEST(Scheduler, EventSinkRecordsTheProtocolShape) {
  ArchParams params = small_params();
  params.wait_check_before_critical = false;
  ProtocolScheduler sched(params);
  std::vector<ScheduledEvent> events;
  sched.set_event_sink(&events);
  sched.schedule_critical_op(5);
  // One critical op: 3 MEM cycles, 2 CBX touches, 2 PC passes.
  std::size_t mem = 0, pc = 0, cbx = 0;
  for (const ScheduledEvent& e : events) {
    switch (e.unit) {
      case ScheduledEvent::Unit::kMem: ++mem; break;
      case ScheduledEvent::Unit::kPc: ++pc; break;
      case ScheduledEvent::Unit::kCbx: ++cbx; break;
    }
  }
  EXPECT_EQ(mem, 3u);
  EXPECT_EQ(pc, 2u);
  EXPECT_EQ(cbx, 2u);
  EXPECT_STREQ(events.front().label, "xfer-old");
  EXPECT_STREQ(events.front().unit_name(), "MEM");
  sched.set_event_sink(nullptr);
  sched.schedule_plain_op();
  EXPECT_EQ(events.size(), 7u);  // detached sink stops recording
}

// --------------------------------------------------------------- PimMachine

TEST(PimMachine, LoadEstablishesConsistentEcc) {
  PimMachine machine(small_params());
  machine.load(random_matrix(45, 91));
  EXPECT_TRUE(machine.ecc_consistent());
  EXPECT_THROW(machine.load(util::BitMatrix(44, 45)), std::invalid_argument);
}

TEST(PimMachine, ProtectedRowParallelNorKeepsEccAndComputes) {
  PimMachine machine(small_params());
  const util::BitMatrix image = random_matrix(45, 92);
  machine.load(image);
  const std::size_t out[1] = {10};
  machine.magic_init_rows_protected(out);
  EXPECT_TRUE(machine.ecc_consistent());
  const std::size_t ins[2] = {3, 4};
  machine.magic_nor_rows_protected(ins, 10);
  EXPECT_TRUE(machine.ecc_consistent());
  for (std::size_t r = 0; r < 45; ++r) {
    EXPECT_EQ(machine.data().get(r, 10), !(image.get(r, 3) || image.get(r, 4)));
  }
  EXPECT_EQ(machine.counters().critical_ops, 2u);  // init + gate, one each
}

TEST(PimMachine, ProtectedColumnParallelNorKeepsEcc) {
  PimMachine machine(small_params());
  const util::BitMatrix image = random_matrix(45, 93);
  machine.load(image);
  const std::size_t out[1] = {20};
  machine.magic_init_cols_protected(out);
  const std::size_t ins[2] = {1, 2};
  machine.magic_nor_cols_protected(ins, 20);
  EXPECT_TRUE(machine.ecc_consistent());
  for (std::size_t c = 0; c < 45; ++c) {
    EXPECT_EQ(machine.data().get(20, c), !(image.get(1, c) || image.get(2, c)));
  }
}

TEST(PimMachine, RandomProtectedOpSequenceStaysConsistent) {
  PimMachine machine(small_params());
  machine.load(random_matrix(45, 94));
  util::Rng rng(95);
  for (int i = 0; i < 30; ++i) {
    const bool row_oriented = rng.bernoulli(0.5);
    const std::size_t out = rng.uniform_below(45);
    std::size_t in1 = rng.uniform_below(45);
    std::size_t in2 = rng.uniform_below(45);
    if (in1 == out) in1 = (in1 + 1) % 45;
    if (in2 == out) in2 = (in2 + 2) % 45;
    const std::size_t outs[1] = {out};
    const std::size_t ins[2] = {in1, in2};
    if (row_oriented) {
      machine.magic_init_rows_protected(outs);
      machine.magic_nor_rows_protected(ins, out);
    } else {
      machine.magic_init_cols_protected(outs);
      machine.magic_nor_cols_protected(ins, out);
    }
    ASSERT_TRUE(machine.ecc_consistent()) << "op " << i;
  }
}

TEST(PimMachine, WriteRowProtectedKeepsEcc) {
  PimMachine machine(small_params());
  machine.load(random_matrix(45, 96));
  util::BitVector row(45);
  row.set(0, true);
  row.set(44, true);
  machine.write_row_protected(13, row);
  EXPECT_TRUE(machine.ecc_consistent());
  EXPECT_EQ(machine.data().row(13), row);
}

TEST(PimMachine, SingleDataErrorIsFoundByBlockRowCheck) {
  PimMachine machine(small_params());
  const util::BitMatrix image = random_matrix(45, 97);
  machine.load(image);
  machine.inject_data_error(20, 33);
  EXPECT_FALSE(machine.ecc_consistent());
  const CheckReport report = machine.check_block_row(20);
  EXPECT_EQ(report.blocks_checked, 5u);
  EXPECT_EQ(report.corrected_data, 1u);
  EXPECT_TRUE(machine.ecc_consistent());
  EXPECT_EQ(machine.data(), image);
}

TEST(PimMachine, CheckBitErrorIsRepairedInCmem) {
  PimMachine machine(small_params());
  machine.load(random_matrix(45, 98));
  machine.inject_check_error(Axis::kLeading, 5, {2, 2});
  const CheckReport report = machine.check_block_col(2 * 9);
  EXPECT_EQ(report.corrected_check, 1u);
  EXPECT_TRUE(machine.ecc_consistent());
}

TEST(PimMachine, DoubleErrorInOneBlockIsDetectedUncorrectable) {
  PimMachine machine(small_params());
  machine.load(random_matrix(45, 99));
  machine.inject_data_error(0, 0);
  machine.inject_data_error(1, 1);  // same block, distinct diagonals
  const CheckReport report = machine.scrub();
  EXPECT_EQ(report.uncorrectable, 1u);
  EXPECT_EQ(report.corrected_data, 0u);
}

TEST(PimMachine, ScrubRepairsScatteredSingleErrors) {
  PimMachine machine(small_params());
  const util::BitMatrix image = random_matrix(45, 100);
  machine.load(image);
  machine.inject_data_error(2, 2);    // block (0,0)
  machine.inject_data_error(12, 40);  // block (1,4)
  machine.inject_data_error(44, 0);   // block (4,0)
  const CheckReport report = machine.scrub();
  EXPECT_EQ(report.blocks_checked, 25u);
  EXPECT_EQ(report.corrected_data, 3u);
  EXPECT_EQ(report.uncorrectable, 0u);
  EXPECT_EQ(machine.data(), image);
  EXPECT_EQ(machine.counters().scrubs, 1u);
}

}  // namespace
}  // namespace pimecc::arch
