// Tests for the extension modules: netlist text I/O, burst injection, and
// the lifetime simulator.
#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <string>

#include "bench_circuits/circuits.hpp"
#include "core/array_code.hpp"
#include "fault/burst.hpp"
#include "oracle/reference_eval.hpp"
#include "reliability/lifetime.hpp"
#include "simpler/logic.hpp"
#include "simpler/netlist_io.hpp"
#include "util/rng.hpp"

namespace pimecc {
namespace {

// ---------------------------------------------------------------- netlist_io

/// Parses a .pnl document held in a string.
simpler::Netlist parse_netlist(const std::string& text) {
  std::istringstream is(text);
  return simpler::read_netlist(is);
}

TEST(NetlistIo, RoundTripsAHandBuiltNetlist) {
  simpler::Netlist nl("demo");
  simpler::LogicBuilder b(nl);
  const auto x = b.input_bus(3);
  b.output(b.xor3(x[0], x[1], x[2]));
  b.output(b.majority3(x[0], x[1], x[2]));

  const std::string text = simpler::write_netlist_text(nl);
  const simpler::Netlist back = parse_netlist(text);
  EXPECT_EQ(back.name(), "demo");
  EXPECT_EQ(back.num_inputs(), nl.num_inputs());
  EXPECT_EQ(back.num_gates(), nl.num_gates());
  EXPECT_EQ(back.num_outputs(), nl.num_outputs());
  for (int combo = 0; combo < 8; ++combo) {
    util::BitVector in(3);
    for (int i = 0; i < 3; ++i) in.set(i, (combo >> i) & 1);
    EXPECT_EQ(simpler::eval_netlist(back, in), simpler::eval_netlist(nl, in))
        << "combo " << combo;
  }
}

TEST(NetlistIo, RoundTripsConstantsAndLateInputs) {
  simpler::Netlist nl("weird");
  const auto a = nl.add_input();
  const auto zero = nl.add_const(false);
  const auto one = nl.add_const(true);
  const auto late = nl.add_input();  // input after constants
  const auto g = nl.add_nor({a, zero, one, late});
  nl.mark_output(g);
  nl.mark_output(one);

  const simpler::Netlist back =
      parse_netlist(simpler::write_netlist_text(nl));
  EXPECT_EQ(back.num_inputs(), 2u);
  for (int combo = 0; combo < 4; ++combo) {
    util::BitVector in(2);
    in.set(0, combo & 1);
    in.set(1, (combo >> 1) & 1);
    EXPECT_EQ(simpler::eval_netlist(back, in), simpler::eval_netlist(nl, in));
  }
}

TEST(NetlistIo, RoundTripsEveryBenchmarkCircuit) {
  for (const std::string& name : circuits::circuit_names()) {
    const circuits::CircuitSpec spec = circuits::build_circuit(name);
    const simpler::Netlist back =
        parse_netlist(simpler::write_netlist_text(spec.netlist));
    EXPECT_EQ(back.num_gates(), spec.netlist.num_gates()) << name;
    util::Rng rng(7);
    util::BitVector in(spec.netlist.num_inputs());
    for (std::size_t i = 0; i < in.size(); ++i) in.set(i, rng.bernoulli(0.5));
    EXPECT_EQ(simpler::eval_netlist(back, in),
              simpler::eval_netlist(spec.netlist, in))
        << name;
  }
}

TEST(NetlistIo, RejectsMalformedDocuments) {
  EXPECT_THROW((void)parse_netlist(""), std::runtime_error);
  EXPECT_THROW((void)parse_netlist(".model a\n.inputs 1\n"),
               std::runtime_error);  // no .end
  EXPECT_THROW(
      (void)parse_netlist(".model a\n.inputs 1\n.nor 5 0\n.end\n"),
      std::runtime_error);  // non-dense id
  EXPECT_THROW(
      (void)parse_netlist(".model a\n.inputs 1\n.nor 1\n.end\n"),
      std::runtime_error);  // NOR without fanins
  EXPECT_THROW(
      (void)parse_netlist(
          ".model a\n.inputs 1\n.outputs 7\n.end\n"),
      std::runtime_error);  // unknown output
  EXPECT_THROW(
      (void)parse_netlist(".model a\n.bogus\n.end\n"),
      std::runtime_error);  // unknown directive
  // Input counts that would loop add_input() until bad_alloc: a negative
  // count wraps to SIZE_MAX, one past the NodeId range truncates the ids,
  // and any count above kMaxNetlistInputs (even one inside the NodeId
  // range) is rejected by the cap.  All must be rejected on their own line,
  // before any allocation.
  for (const char* count : {"-1", "4294967297", "4294967295", "65537"}) {
    try {
      (void)parse_netlist(std::string(".model a\n.inputs ") +
                                       count + "\n.end\n");
      ADD_FAILURE() << ".inputs " << count << " was accepted";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("netlist parse error at line 2"),
                std::string::npos)
          << e.what();
    }
  }
  // The cap itself is accepted.
  std::string at_cap(".model a\n.inputs ");
  at_cap += std::to_string(simpler::kMaxNetlistInputs);
  at_cap += "\n.outputs 0\n.end\n";
  EXPECT_EQ(parse_netlist(at_cap).num_inputs(),
            simpler::kMaxNetlistInputs);
}

TEST(NetlistIo, IgnoresCommentsAndBlankLines) {
  const simpler::Netlist nl = parse_netlist(
      "# header comment\n"
      ".model c\n"
      "\n"
      ".inputs 2   # two PIs\n"
      ".nor 2 0 1\n"
      ".outputs 2\n"
      ".end\n");
  EXPECT_EQ(nl.num_inputs(), 2u);
  EXPECT_EQ(nl.num_gates(), 1u);
}

TEST(EvenBlockSize, TwoCellsCanShareBothDiagonals) {
  // The reason for the paper's footnote-1 odd-m requirement, demonstrated:
  // with even m the raw diagonal formulas collide, so a flipped pair would
  // be indistinguishable from a different single error.
  const std::size_t m = 4;
  bool collision_found = false;
  for (std::size_t r1 = 0; r1 < m && !collision_found; ++r1) {
    for (std::size_t c1 = 0; c1 < m && !collision_found; ++c1) {
      for (std::size_t r2 = 0; r2 < m; ++r2) {
        for (std::size_t c2 = 0; c2 < m; ++c2) {
          if (r1 == r2 && c1 == c2) continue;
          const bool same_leading = (r1 + c1) % m == (r2 + c2) % m;
          const bool same_counter =
              (r1 + m - c1) % m == (r2 + m - c2) % m;
          if (same_leading && same_counter) {
            collision_found = true;
          }
        }
      }
    }
  }
  EXPECT_TRUE(collision_found);
}

// -------------------------------------------------------------------- burst

TEST(Burst, ShapesProduceExpectedCells) {
  const auto horizontal =
      fault::burst_cells(20, 20, 3, 17, 5, fault::BurstShape::kHorizontal);
  EXPECT_EQ(horizontal.size(), 3u);  // clipped at the right edge
  for (const auto& cell : horizontal) EXPECT_EQ(cell.r, 3u);

  const auto vertical =
      fault::burst_cells(20, 20, 5, 2, 4, fault::BurstShape::kVertical);
  EXPECT_EQ(vertical.size(), 4u);
  for (const auto& cell : vertical) EXPECT_EQ(cell.c, 2u);

  const auto square =
      fault::burst_cells(20, 20, 0, 0, 5, fault::BurstShape::kSquare);
  EXPECT_EQ(square.size(), 5u);  // 3x3 patch truncated to 5 cells

  EXPECT_THROW(
      (void)fault::burst_cells(4, 4, 4, 0, 1, fault::BurstShape::kVertical),
      std::out_of_range);
  EXPECT_THROW(
      (void)fault::burst_cells(4, 4, 0, 0, 0, fault::BurstShape::kVertical),
      std::invalid_argument);
}

TEST(Burst, InBlockBurstsNeverMiscorrect) {
  // Structural property: for every anchor and every shape with length < m,
  // the scrubbed data either returns to golden or the block flags
  // uncorrectable -- never a silent/miscorrected state.
  const std::size_t n = 30, m = 15;
  util::Rng rng(9);
  util::BitMatrix golden(n, n);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < n; ++c) golden.set(r, c, rng.bernoulli(0.5));
  }
  for (const auto shape : {fault::BurstShape::kHorizontal,
                           fault::BurstShape::kVertical,
                           fault::BurstShape::kSquare}) {
    for (const std::size_t length : {2u, 3u, 7u}) {
      for (std::size_t anchor = 0; anchor < n * n; anchor += 7) {
        util::BitMatrix data = golden;
        ecc::ArrayCode code(n, m);
        code.encode_all(data);
        const auto cells = fault::burst_cells(n, n, anchor / n, anchor % n,
                                              length, shape);
        for (const auto& cell : cells) data.flip(cell.r, cell.c);
        const ecc::ScrubReport report = code.scrub(data);
        if (data != golden) {
          EXPECT_GT(report.uncorrectable, 0u)
              << to_string(shape) << " len " << length << " anchor " << anchor;
        }
      }
    }
  }
}

TEST(Burst, InjectBurstFlipsReportedCells) {
  util::Rng rng(10);
  util::BitMatrix data(20, 20);
  const auto cells =
      fault::inject_burst(rng, data, 4, fault::BurstShape::kHorizontal);
  EXPECT_EQ(data.count(), cells.size());
  for (const auto& cell : cells) EXPECT_TRUE(data.get(cell.r, cell.c));
}

// ----------------------------------------------------------------- lifetime

TEST(Lifetime, ValidatesConfig) {
  rel::LifetimeConfig config;
  config.m = 14;
  util::Rng rng(1);
  EXPECT_THROW((void)rel::simulate_lifetime(config, rng), std::invalid_argument);
  config = rel::LifetimeConfig{};
  config.scrub_period_hours = 0.0;
  EXPECT_THROW((void)rel::simulate_lifetime(config, rng), std::invalid_argument);
}

TEST(Lifetime, ZeroRateNeverFails) {
  rel::LifetimeConfig config;
  config.fit_per_bit = 0.0;
  config.trials = 10;
  config.max_hours = 24.0 * 10;
  util::Rng rng(2);
  const rel::LifetimeResult result = rel::simulate_lifetime(config, rng);
  EXPECT_EQ(result.failures, 0u);
  EXPECT_EQ(result.errors_corrected, 0u);
}

TEST(Lifetime, EmpiricalMttfTracksAnalytic) {
  rel::LifetimeConfig config;
  config.n = 60;
  config.m = 15;
  config.crossbars = 4;
  config.fit_per_bit = 1e4;  // analytic MTTF ~ 221 h (~9 windows)
  config.trials = 300;
  config.max_hours = 24.0 * 2000;
  util::Rng rng(3);
  const rel::LifetimeResult result = rel::simulate_lifetime(config, rng);
  EXPECT_EQ(result.failures, 300u);
  const double empirical = result.empirical_mttf_hours(config.max_hours);
  const double analytic = rel::analytic_mttf_hours(config);
  EXPECT_NEAR(empirical / analytic, 1.0, 0.2);
}

TEST(Lifetime, HigherRateFailsSooner) {
  util::Rng rng(4);
  rel::LifetimeConfig config;
  config.n = 60;
  config.m = 15;
  config.trials = 100;
  config.max_hours = 24.0 * 50000;
  config.fit_per_bit = 3e3;
  const double slow = rel::simulate_lifetime(config, rng)
                          .empirical_mttf_hours(config.max_hours);
  config.fit_per_bit = 3e4;
  const double fast = rel::simulate_lifetime(config, rng)
                          .empirical_mttf_hours(config.max_hours);
  EXPECT_LT(fast, slow);
}

}  // namespace
}  // namespace pimecc
