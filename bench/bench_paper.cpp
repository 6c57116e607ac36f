// The paper's tables, figures and ablations, each reproduced and checked
// against the claim the paper makes for it:
//
//   Table I          latency of the SIMPLER schedule vs the ECC schedule
//   Table II         device counts of the case study (n=1020, m=15, k=3)
//   Figure 2         check-bit update cost after one column-parallel op
//   Figure 6         1 GB MTTF vs memristor soft error rate
//   Section III      the overwrite-before-check false positive
//   Section II-B     burst (multi-bit upset) injection
//   Section III      slope-family count K as the complexity knob
//   Figure 6 model   whole-memory lifetime simulation, Monte Carlo per block
//   Section II-B     drift refresh composed with the ECC
//   ablations        block size m, coverage, hazard policy, PCs k, period T
//
// Every section prints its table and writes the same rows to
// BENCH_paper.json.  Every claim is a gate: a claim that stops holding
// prints `cross-check FAILED: <claim>` and the run exits 1.  --smoke only
// shrinks the Monte Carlo trial count; every gate runs in both modes.
//
// Usage: bench_paper [--smoke] [--out=PATH]
//   --smoke    fast CI configuration (fewer Monte Carlo trials)
//   --out=PATH where to write the JSON (default: BENCH_paper.json)
#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <functional>
#include <iostream>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "arch/device_count.hpp"
#include "arch/params.hpp"
#include "arch/pim_machine.hpp"
#include "bench_circuits/circuits.hpp"
#include "core/array_code.hpp"
#include "core/horizontal_code.hpp"
#include "core/multislope_code.hpp"
#include "fault/burst.hpp"
#include "fault/models.hpp"
#include "harness.hpp"
#include "reliability/analytic.hpp"
#include "reliability/lifetime.hpp"
#include "reliability/montecarlo.hpp"
#include "simpler/ecc_schedule.hpp"
#include "simpler/mapper.hpp"
#include "util/bitmatrix.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace {

using namespace pimecc;
using Row = std::vector<std::string>;

constexpr auto kPolicy = simpler::CoveragePolicy::kInputsAndOutputs;

/// Prints one section's table under its title and writes the same rows to
/// the JSON document as `key: {"title", "columns", "rows"}`.
void emit(bench::Json& json, std::string_view key, std::string_view title,
          const Row& columns, const std::vector<Row>& rows) {
  util::Table table(columns);
  json.object(key).field("title", title).array("columns");
  for (const std::string& column : columns) json.item(column);
  json.end().array("rows");
  for (const Row& row : rows) {
    table.add_row(row);
    json.array();
    for (const std::string& cell : row) json.item(cell);
    json.end();
  }
  json.end().end();
  std::cout << title << "\n\n" << table << '\n';
}

/// A rows x cols image of fair coin flips, drawn cell by cell.
util::BitMatrix random_image(util::Rng& rng, std::size_t rows, std::size_t cols) {
  util::BitMatrix image(rows, cols);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) image.set(r, c, rng.bernoulli(0.5));
  }
  return image;
}

/// One benchmark netlist mapped to a single n = 1020 row.
struct Circuit {
  std::string name;
  simpler::MappedProgram program;
};

std::vector<Circuit> map_circuits() {
  simpler::MapperOptions options;
  options.row_width = arch::ArchParams{}.n;
  std::vector<Circuit> out;
  for (const std::string& name : circuits::circuit_names()) {
    out.push_back(
        {name, simpler::map_to_row(circuits::build_circuit(name).netlist, options)});
  }
  return out;
}

// Table I: baseline vs proposed cycles at the minimal PC count.  Our
// minimal PC counts run higher than the paper's (geo-mean 4.35 vs 3.36):
// they are recorded next to the paper's but not gated.
void table1(bench::Json& json, bench::Gates& gates,
            const std::vector<Circuit>& circuits) {
  // The paper's overhead (%) and PC count per benchmark.
  static const std::map<std::string, std::pair<double, int>> kPaper = {
      {"adder", {34.0, 3}},   {"arbiter", {4.05, 2}},  {"bar", {11.3, 4}},
      {"cavlc", {4.5, 3}},    {"ctrl", {50.0, 5}},     {"dec", {205.8, 8}},
      {"int2float", {9.83, 3}}, {"max", {21.5, 4}},    {"priority", {20.0, 3}},
      {"sin", {0.96, 3}},     {"voter", {7.81, 2}},
  };
  const arch::ArchParams params;  // n = 1020, m = 15 (the paper's case study)
  std::vector<Row> rows;
  std::vector<double> overhead_ratios;
  std::vector<double> pc_counts;
  bool never_faster = true;
  for (const auto& [name, program] : circuits) {
    arch::ArchParams with_pcs = params;
    with_pcs.num_pcs = simpler::find_min_pcs(program, params, kPolicy);
    const simpler::EccScheduleResult result =
        simpler::schedule_with_ecc(program, with_pcs, kPolicy);
    never_faster = never_faster && result.proposed_cycles >= result.baseline_cycles;
    overhead_ratios.push_back(1.0 + result.overhead_fraction());
    pc_counts.push_back(static_cast<double>(with_pcs.num_pcs));
    const auto& [paper_pct, paper_pcs] = kPaper.at(name);
    rows.push_back({name, std::to_string(result.baseline_cycles),
                    std::to_string(result.proposed_cycles),
                    util::format_sig(result.overhead_fraction() * 100.0, 4),
                    std::to_string(with_pcs.num_pcs), util::format_sig(paper_pct, 4),
                    std::to_string(paper_pcs)});
  }
  const double geo_overhead_pct =
      (util::geometric_mean(overhead_ratios) - 1.0) * 100.0;
  rows.push_back({"Geo. Mean", "", "", util::format_sig(geo_overhead_pct, 4),
                  util::format_sig(util::geometric_mean(pc_counts), 3), "26.23",
                  "3.36"});
  emit(json, "table1",
       "Table I -- latency (clock cycles), n=1020, m=15, XOR3=8 cycles, "
       "coverage=inputs+outputs",
       {"Benchmark", "Baseline", "Proposed", "Overhead (%)", "PC (#)",
        "Paper ovh (%)", "Paper PC"},
       rows);
  gates.check(never_faster,
              "Table I: the ECC schedule is never faster than the baseline");
  gates.check(std::abs(geo_overhead_pct - 26.23) <= 5.0,
              "Table I: geo-mean latency overhead within 5 points of the "
              "paper's 26.23%");
}

void table2(bench::Json& json, bench::Gates& gates) {
  const arch::ArchParams params;  // n = 1020, m = 15, k = 3
  const arch::DeviceCounts counts = arch::count_devices(params);
  const auto sci = [](std::uint64_t v) {
    return v == 0 ? std::string("0") : util::format_sci(static_cast<double>(v), 2);
  };
  std::vector<Row> rows;
  for (const arch::DeviceCountRow& row : counts.rows) {
    rows.push_back({row.unit, sci(row.memristors), sci(row.transistors),
                    row.expression});
  }
  rows.push_back({"Total", sci(counts.total_memristors),
                  sci(counts.total_transistors), ""});
  const std::string overhead = util::format_pct(counts.memristor_overhead_fraction());
  rows.push_back({"Overhead over data", overhead, "", ""});
  emit(json, "table2", "Table II -- device counts, n=1020, m=15, k=3",
       {"Unit", "# Memristor", "# Transistor", "Expression"}, rows);
  gates.check(sci(counts.total_memristors) == "1.25e+06",
              "Table II: 1.25e6 memristors");
  gates.check(sci(counts.total_transistors) == "7.55e+04",
              "Table II: 7.55e4 transistors");
  gates.check(overhead == "20.00%", "Table II: 20% memristor overhead");
}

// Figure 2 / Section III: one column-parallel MAGIC op rewrites a whole row.
// Horizontal parity then reads a whole group under every spanned check bit
// (Theta(n)); the diagonal placement lets each check bit see at most one
// changed bit, so one fixed-length protocol suffices (Theta(1)).
void fig2(bench::Json& json, bench::Gates& gates) {
  constexpr std::size_t kBlock = 15;
  constexpr std::size_t kGroup = 4;
  // The diagonal protocol: old and new line transfers, XOR3, write-back --
  // none of which depends on n.
  const arch::ArchParams params;
  const std::size_t protocol =
      2 * params.transfer_cycles + params.xor3_cycles + params.writeback_cycles;
  util::Rng rng(2021);
  std::vector<Row> rows;
  bool horizontal_linear = true;
  bool diagonal_once = true;
  // Every n is divisible by both the block size and the horizontal group.
  for (const std::size_t n : {60u, 120u, 300u, 480u, 1020u}) {
    const util::BitMatrix data = random_image(rng, n, n);
    ecc::HorizontalCode horizontal(n, kGroup);
    horizontal.encode_all(data);
    ecc::ArrayCode diagonal(n, kBlock);
    diagonal.encode_all(data);
    // Worst case: the op flips every bit of row 0.
    std::vector<ecc::CellWrite> writes;
    writes.reserve(n);
    for (std::size_t c = 0; c < n; ++c) {
      writes.push_back({0, c, data.get(0, c), !data.get(0, c)});
    }
    const std::size_t reads = horizontal.update_cost_reads(writes);
    const bool once = diagonal.writes_touch_each_diagonal_once(writes);
    horizontal_linear = horizontal_linear && reads == n;
    diagonal_once = diagonal_once && once;
    rows.push_back({std::to_string(n), std::to_string(reads),
                    std::to_string(protocol), once ? "1" : ">1"});
  }
  emit(json, "fig2",
       "Figure 2 / Section III -- ECC update cost after one column-parallel "
       "MAGIC op rewriting a full row",
       {"n", "Horizontal: update reads", "Diagonal: update cycles",
        "Diagonal touches/diag (max)"},
       rows);
  gates.check(horizontal_linear,
              "Figure 2: a horizontal-parity update reads n bits");
  gates.check(diagonal_once,
              "Figure 2: a row write touches each diagonal at most once");
  gates.check(protocol == 11,
              "Figure 2: the diagonal update protocol costs 11 cycles at every n");
}

// Figure 6 at n = 1020, m = 15, T = 24 h over 1 GB.  The proposed MTTF
// counts check-bit memristors as vulnerable; the last column is the
// paper's reading, which counts data cells only.
void fig6(bench::Json& json, bench::Gates& gates) {
  const rel::ReliabilityQuery query;
  rel::ReliabilityQuery paper_reading = query;
  paper_reading.include_check_bits = false;
  std::vector<Row> rows;
  for (const rel::SweepPoint& pt : rel::sweep_mttf(query, 1e-5, 1e3, 1)) {
    paper_reading.fit_per_bit = pt.fit_per_bit;
    const double paper_improvement =
        rel::evaluate_proposed(paper_reading).mttf_hours / pt.baseline_mttf_hours;
    rows.push_back({util::format_sci(pt.fit_per_bit, 0),
                    util::format_sci(pt.baseline_mttf_hours, 3),
                    util::format_sci(pt.proposed_mttf_hours, 3),
                    util::format_sci(pt.improvement(), 2),
                    util::format_sci(paper_improvement, 2)});
    const long decade = std::lround(std::log10(pt.fit_per_bit));
    if (decade <= -3) {
      gates.check(pt.improvement() > 1e8,
                  "Figure 6: over 8 orders of magnitude of MTTF at SER <= "
                  "1e-3 FIT/bit");
    }
    if (decade == -3) {
      gates.check(paper_improvement > 3e8,
                  "Figure 6: over 3e8x MTTF at the Flash-like SER 1e-3 "
                  "FIT/bit (data cells only)");
    }
  }
  emit(json, "fig6",
       "Figure 6 -- 1GB memory MTTF vs memristor SER (n=1020, m=15, T=24h)",
       {"SER (FIT/bit)", "Baseline MTTF (h)", "Proposed MTTF (h)",
        "Improvement (x)", "Improvement, data cells only (x)"},
       rows);
}

// Section III's false positive, which the paper defers to future work: a
// soft error overwritten by a critical operation before any check makes the
// continuous update cancel the corrupted value instead of the remembered
// one.  The parity stays offset at that cell's diagonal pair, so a later
// scrub "corrects" -- corrupts -- the freshly written bit.  Checking the
// target band before each write removes the race.
void false_positive(bench::Json& json, bench::Gates& gates) {
  arch::ArchParams params;
  params.n = 45;
  params.m = 9;
  util::Rng rng(0xFA15Eull);

  arch::PimMachine demo(params);
  demo.load(random_image(rng, params.n, params.n));
  demo.inject_data_error(7, 3);
  util::BitVector fresh(params.n);
  for (std::size_t c = 0; c < params.n; ++c) fresh.set(c, (c % 3) == 0);
  demo.write_row_protected(7, fresh);
  const util::BitVector written = demo.data().row(7);
  const arch::CheckReport report = demo.check_block_row(7);
  const bool miscorrected = demo.data().get(7, 3) != fresh.get(3);
  emit(json, "false_positive_demo",
       "Section III false positive -- error at (7,3) overwritten by a "
       "protected write of row 7 before any check (n=45, m=9)",
       {"Scrub corrections", "Row 7 bits changed", "Good bit miscorrected"},
       {{std::to_string(report.corrected_data),
         std::to_string(written.hamming_distance(demo.data().row(7))),
         miscorrected ? "yes" : "no"}});
  gates.check(miscorrected,
              "Section III: an error overwritten before any check is "
              "miscorrected into the fresh value");

  // Per trial: one soft error at random, then `writes` random protected
  // row writes, then the periodic scrub.  Any residual difference from the
  // intended contents traces back to the overwrite-before-check race.
  constexpr std::size_t kTrials = 150;
  std::vector<Row> rows;
  std::vector<std::size_t> unmitigated;
  bool mitigated_clean = true;
  for (const std::size_t writes : {1u, 4u, 16u}) {
    for (const bool mitigate : {false, true}) {
      std::size_t false_positives = 0;
      for (std::size_t t = 0; t < kTrials; ++t) {
        arch::PimMachine machine(params);
        util::BitMatrix intended = random_image(rng, params.n, params.n);
        machine.load(intended);
        const std::size_t er = rng.uniform_below(params.n);
        const std::size_t ec = rng.uniform_below(params.n);
        machine.inject_data_error(er, ec);
        for (std::size_t w = 0; w < writes; ++w) {
          const std::size_t row = rng.uniform_below(params.n);
          if (mitigate) machine.check_block_row(row);
          util::BitVector values(params.n);
          for (std::size_t c = 0; c < params.n; ++c) values.set(c, rng.bernoulli(0.5));
          machine.write_row_protected(row, values);
          for (std::size_t c = 0; c < params.n; ++c) intended.set(row, c, values.get(c));
        }
        machine.scrub();
        if (machine.data() != intended) ++false_positives;
      }
      if (mitigate) {
        mitigated_clean = mitigated_clean && false_positives == 0;
      } else {
        unmitigated.push_back(false_positives);
      }
      rows.push_back({std::to_string(writes),
                      mitigate ? "check-before-write" : "none",
                      std::to_string(false_positives), std::to_string(kTrials),
                      util::format_pct(static_cast<double>(false_positives) /
                                       static_cast<double>(kTrials))});
    }
  }
  emit(json, "false_positive",
       "False-positive (overwrite-before-check) measurement (n=45, m=9, one "
       "injected error per trial)",
       {"Writes/window", "Mitigation", "False positives", "Trials", "Rate"}, rows);
  gates.check(mitigated_clean,
              "Section III: checking before each write leaves no false positive");
  gates.check(unmitigated.back() > 0 &&
                  std::is_sorted(unmitigated.begin(), unmitigated.end()),
              "Section III: without the check, false positives occur and do "
              "not fall as writes grow");
}

// Multi-bit upsets (Section II-B refs [7][8]) against the diagonal code.
// Outcomes: repaired (data back to golden, e.g. a burst split one error per
// block), detected (some block flagged uncorrectable) or silent (wrong data,
// no flag).  Adjacent cells cannot share both diagonals, so bursts shorter
// than m -- every length here -- never go silent.
void burst(bench::Json& json, bench::Gates& gates) {
  constexpr std::size_t kN = 120;
  constexpr std::size_t kM = 15;
  constexpr std::size_t kTrials = 400;
  util::Rng rng(0xB0057ull);
  const util::BitMatrix golden = random_image(rng, kN, kN);
  std::vector<Row> rows;
  std::size_t silent_total = 0;
  for (const fault::BurstShape shape :
       {fault::BurstShape::kHorizontal, fault::BurstShape::kVertical,
        fault::BurstShape::kSquare}) {
    for (const std::size_t length : {2u, 3u, 5u, 9u}) {
      std::size_t repaired = 0, detected = 0, silent = 0;
      for (std::size_t t = 0; t < kTrials; ++t) {
        util::BitMatrix data = golden;
        ecc::ArrayCode code(kN, kM);
        code.encode_all(data);
        fault::inject_burst(rng, data, length, shape);
        const ecc::ScrubReport report = code.scrub(data);
        if (data == golden) {
          ++repaired;
        } else if (report.uncorrectable > 0) {
          ++detected;
        } else {
          ++silent;
        }
      }
      silent_total += silent;
      rows.push_back({to_string(shape), std::to_string(length),
                      std::to_string(repaired), std::to_string(detected),
                      std::to_string(silent)});
    }
  }
  emit(json, "burst",
       "Burst (multi-bit upset) injection vs the diagonal code (n=120, m=15, "
       "400 trials per point)",
       {"Shape", "Length", "Repaired", "Detected", "Silent"}, rows);
  gates.check(silent_total == 0,
              "Section II-B: no burst shorter than m corrupts silently");
}

// Section III trade-off bullet 1 ("increased complexity leads to increased
// reliability at the cost of ... more overhead") with the slope-family
// count K as the knob.  K = 2 is the paper's leading + counter design;
// K = 3 and 4 add slope-2 families, keeping the Theta(1) update (every
// slope coprime to m touches each line once per parallel op) while making
// double errors correctable.
void multislope(bench::Json& json, bench::Gates& gates) {
  constexpr std::size_t kM = 15;
  constexpr std::size_t kTrials = 500;
  util::Rng rng(0x51093ull);
  const std::vector<std::pair<std::string, std::vector<std::size_t>>> configs = {
      {"K=2 (paper: +1,-1)", {1, kM - 1}},
      {"K=3 (+1,-1,+2)", {1, kM - 1, 2}},
      {"K=4 (+1,-1,+2,-2)", {1, kM - 1, 2, kM - 2}},
  };
  struct Outcome {
    std::size_t corrected = 0, detected = 0, miscorrected = 0;
  };
  // outcomes[config][errors - 1]
  std::vector<std::array<Outcome, 3>> outcomes(configs.size());
  std::vector<Row> rows;
  for (std::size_t cfg = 0; cfg < configs.size(); ++cfg) {
    const ecc::MultiSlopeCodec codec(kM, configs[cfg].second);
    for (const std::size_t errors : {1u, 2u, 3u}) {
      Outcome& outcome = outcomes[cfg][errors - 1];
      for (std::size_t t = 0; t < kTrials; ++t) {
        const util::BitMatrix golden = random_image(rng, kM, kM);
        util::BitMatrix data = golden;
        ecc::MultiCheckBits check = codec.encode(data, 0, 0);
        for (std::size_t placed = 0; placed < errors;) {  // distinct flips
          const std::size_t r = rng.uniform_below(kM);
          const std::size_t c = rng.uniform_below(kM);
          if (data.get(r, c) != golden.get(r, c)) continue;
          data.flip(r, c);
          ++placed;
        }
        const ecc::MultiDecodeResult result =
            codec.check_and_correct(data, 0, 0, check);
        if (data == golden) {
          ++outcome.corrected;
        } else if (result.status == ecc::MultiDecodeStatus::kDetectedUncorrectable) {
          ++outcome.detected;
        } else {
          ++outcome.miscorrected;
        }
      }
      rows.push_back({configs[cfg].first, util::format_pct(codec.storage_overhead()),
                      std::to_string(errors), std::to_string(outcome.corrected),
                      std::to_string(outcome.detected),
                      std::to_string(outcome.miscorrected)});
    }
  }
  emit(json, "multislope",
       "Slope-family ablation (m=15, 500 random error patterns per point)",
       {"Code", "Storage ovh", "Errors", "Corrected", "Detected", "Miscorrected"},
       rows);
  const Outcome& single = outcomes[0][0];
  const Outcome& dual = outcomes[0][1];
  gates.check(single.corrected == kTrials && dual.detected == kTrials &&
                  single.miscorrected + dual.miscorrected == 0,
              "Section III: K=2 corrects every single error and detects every "
              "double error");
  for (std::size_t cfg = 1; cfg < configs.size(); ++cfg) {
    gates.check(outcomes[cfg][1].corrected > dual.corrected,
                "Section III: K>2 corrects more double errors than K=2");
  }

  // 1 GB MTTF at the Flash-like SER in the Figure 6 model: a block fails on
  // three errors, or on two that the code does not correct -- at the
  // double-correction fraction measured above.
  const double kFit = 1e-3, kT = 24.0;
  const double p = -std::expm1(-kFit * kT / 1e9);
  const std::uint64_t kMemoryBits = std::uint64_t{1} << 33;
  const std::uint64_t kXbars = (kMemoryBits + 1020ull * 1020ull - 1) /
                               (1020ull * 1020ull);
  const double blocks_per_xbar = (1020.0 / kM) * (1020.0 / kM);
  std::vector<Row> mttf_rows;
  std::vector<double> mttfs;
  for (std::size_t cfg = 0; cfg < configs.size(); ++cfg) {
    const double double_fraction = static_cast<double>(outcomes[cfg][1].corrected) /
                                   static_cast<double>(kTrials);
    const double cells = kM * kM + (2.0 + cfg) * kM;
    // Tail probabilities kept in series form: 1 - P(block ok) would round
    // to zero in double precision at these rates.
    const double log1mp = std::log1p(-p);
    const double p_exactly2 = cells * (cells - 1.0) / 2.0 * p * p *
                              std::exp((cells - 2.0) * log1mp);
    const double p_exactly3 = cells * (cells - 1.0) * (cells - 2.0) / 6.0 *
                              p * p * p * std::exp((cells - 3.0) * log1mp);
    const double block_fail = (1.0 - double_fraction) * p_exactly2 + p_exactly3;
    const double log_mem_ok = blocks_per_xbar * static_cast<double>(kXbars) *
                              std::log1p(-block_fail);
    const double p_fail = -std::expm1(log_mem_ok);  // per window of kT hours
    mttfs.push_back(kT / p_fail);
    mttf_rows.push_back({configs[cfg].first, util::format_sig(cells, 4),
                         util::format_sci(mttfs.back(), 3),
                         util::format_sig(mttfs.back() / mttfs.front(), 3) + "x"});
  }
  emit(json, "multislope_mttf",
       "Projected 1GB MTTF at SER 1e-3 FIT/bit (Figure 6 model, "
       "double-correction fraction from the table above)",
       {"Code", "Cells/block", "MTTF (h)", "vs paper K=2"}, mttf_rows);
  gates.check(std::adjacent_find(mttfs.begin(), mttfs.end(),
                                 std::greater_equal<>()) == mttfs.end(),
              "Section III: projected MTTF grows with the slope-family count K");
}

// Whole memory lifetimes (continuous error arrivals, periodic scrubs,
// failure = first block with two errors in one window) against the
// Figure 6 closed form on the same scaled-down memory: validates the chain
// p -> block -> crossbar -> memory -> MTTF, not just the per-block term.
void lifetime(bench::Json& json, bench::Gates& gates) {
  util::Rng rng(0x11FE7ull);
  std::vector<Row> rows;
  for (const double fit : {1e3, 3e3, 1e4}) {
    rel::LifetimeConfig config;
    config.n = 60;
    config.m = 15;
    config.crossbars = 4;
    config.fit_per_bit = fit;
    config.scrub_period_hours = 24.0;
    config.trials = 250;
    config.max_hours = 24.0 * 100000;
    const rel::LifetimeResult result = rel::simulate_lifetime(config, rng);
    const double empirical = result.empirical_mttf_hours(config.max_hours);
    const double analytic = rel::analytic_mttf_hours(config);
    const double ratio = empirical / analytic;
    rows.push_back({util::format_sci(fit, 1), util::format_sci(empirical, 3),
                    util::format_sci(analytic, 3), util::format_sig(ratio, 3),
                    std::to_string(result.failures) + "/" +
                        std::to_string(result.trials)});
    gates.check(ratio >= 0.8 && ratio <= 1.25,
                "Figure 6 model: simulated lifetime within [0.8, 1.25] of the "
                "closed-form MTTF");
  }
  emit(json, "lifetime",
       "Whole-memory lifetime simulation vs the Figure 6 closed form (4 "
       "crossbars of 60x60, m=15, T=24h)",
       {"SER (FIT/bit)", "Empirical MTTF (h)", "Analytic MTTF (h)", "Ratio",
        "Failures/Trials"},
       rows);
}

// Binomially sampled soft errors in a simulated crossbar (data and check
// bits) and the architecture's scrub, against the closed form P(block
// fails) = P(>= 2 errors among its m^2 + 2m cells).  The SERs are far above
// physical rates so failures are observable; the model is rate-agnostic, so
// agreement here validates the formula used at 1e-3 FIT/bit.
void montecarlo(bench::Json& json, bench::Gates& gates, std::size_t trials) {
  util::Rng rng(0xF16'6ull);
  std::vector<Row> rows;
  for (const double fit : {2e5, 1e6, 5e6}) {
    rel::MonteCarloConfig config;
    config.n = 120;
    config.m = 15;
    config.fit_per_bit = fit;
    config.window_hours = 24.0;
    config.trials = trials;
    const rel::MonteCarloResult result = rel::run_montecarlo(config, rng);
    const double analytic = rel::analytic_block_failure(config);
    const auto ci = util::wilson_interval(
        static_cast<std::size_t>(result.blocks_failed),
        static_cast<std::size_t>(result.blocks_total), 3.29);
    // Append form: `"[" + ...` trips GCC 12's -Wrestrict false positive
    // (PR 105329) under -O2 -Werror.
    std::string interval = "[";
    interval += util::format_sci(ci.low, 2);
    interval += ", ";
    interval += util::format_sci(ci.high, 2);
    interval += ']';
    rows.push_back({util::format_sci(fit, 1), util::format_sci(fit * 24.0 / 1e9, 2),
                    util::format_sci(result.block_failure_rate(), 3),
                    util::format_sci(analytic, 3), interval,
                    std::to_string(result.corrected_data + result.corrected_check),
                    std::to_string(result.detected_uncorrectable)});
    gates.check(ci.low <= analytic && analytic <= ci.high,
                "Figure 6 model: the closed-form block-failure probability "
                "lies in the z=3.29 Wilson interval of the Monte Carlo");
  }
  emit(json, "montecarlo",
       std::string("Monte Carlo vs analytic block-failure probability (n=120, "
                   "m=15, T=24h, ") +
           std::to_string(trials) + " trials each)",
       {"SER (FIT/bit)", "p(bit)", "Block fail (measured)", "Block fail (analytic)",
        "99.9% CI (z=3.29)", "Corrected", "Uncorrectable"},
       rows);
}

/// Flipped bits left after one week of drift and abrupt upsets on a 60x60
/// crossbar, with or without a 12 h refresh and a 24 h ECC scrub.
std::size_t drift_residual(bool refresh, bool ecc, std::uint64_t seed) {
  constexpr std::size_t kN = 60;
  constexpr std::size_t kM = 15;
  constexpr std::size_t kSteps = 168;  // one week in 1 h steps
  constexpr std::size_t kRefreshEvery = 12;
  constexpr std::size_t kScrubEvery = 24;
  util::Rng rng(seed);
  const util::BitMatrix golden = random_image(rng, kN, kN);
  util::BitMatrix data = golden;
  ecc::ArrayCode code(kN, kM);
  code.encode_all(data);
  // Drift: mean 1/h toward a threshold of 30, so unrefreshed cells flip
  // after ~30 h while a 12 h refresh keeps accumulation far below
  // threshold.  Abrupt upsets (ion strikes, ~1e4 FIT/bit here) arrive on
  // top; refresh cannot touch those.
  fault::DriftModel drift(kN * kN, 1.0, 1.0, 30.0);
  const fault::ConstantRateModel abrupt(1e4);
  for (std::size_t step = 0; step < kSteps; ++step) {
    for (const std::size_t cell : drift.advance(rng, 1.0)) {
      data.flip(cell / kN, cell % kN);
    }
    const std::size_t strikes = abrupt.sample_flip_count(rng, kN * kN, 1.0);
    for (std::size_t s = 0; s < strikes; ++s) {
      data.flip(rng.uniform_below(kN), rng.uniform_below(kN));
    }
    if (refresh && (step + 1) % kRefreshEvery == 0) drift.refresh();
    if (ecc && (step + 1) % kScrubEvery == 0) code.scrub(data);
  }
  return data.hamming_distance(golden);
}

// Section II-B: the refresh of [6] resets accumulated drift but "does not
// address abrupt soft errors" and cannot undo flips that already happened;
// the paper notes it composes with the proposed ECC.
void refresh_drift(bench::Json& json, bench::Gates& gates) {
  // One seed for every mitigation, so the magnitudes are comparable.
  const std::size_t none = drift_residual(false, false, 77);
  const std::size_t refresh = drift_residual(true, false, 77);
  const std::size_t ecc = drift_residual(false, true, 77);
  const std::size_t both = drift_residual(true, true, 77);
  emit(json, "refresh_drift",
       "Drift + refresh + ECC composition (60x60 crossbar, m=15, 1-week "
       "horizon, refresh/12h, scrub/24h)",
       {"Mitigation", "Residual flipped bits (of 3600)"},
       {{"none", std::to_string(none)},
        {"refresh only", std::to_string(refresh)},
        {"ECC only", std::to_string(ecc)},
        {"refresh + ECC (the paper's composition)", std::to_string(both)}});
  gates.check(both <= refresh && both <= ecc && both < none,
              "Section II-B: refresh + ECC leaves no more flips than either alone");
}

// Section III: "smaller blocks increase overall reliability at the cost of
// more data overhead".
void ablation_blocksize(bench::Json& json, bench::Gates& gates) {
  rel::ReliabilityQuery query;
  query.fit_per_bit = 1e-3;
  const double baseline = rel::evaluate_baseline(query).mttf_hours;
  std::vector<Row> rows;
  std::vector<double> mttfs;
  std::vector<double> overheads;
  for (const std::size_t m : {3u, 5u, 15u, 17u, 51u, 85u, 255u}) {
    query.m = m;
    mttfs.push_back(rel::evaluate_proposed(query).mttf_hours);
    arch::ArchParams params;
    params.m = m;
    const std::size_t data_cells = params.n * params.n;
    overheads.push_back(static_cast<double>(params.check_bits_total()) /
                        static_cast<double>(data_cells));
    const std::uint64_t added = arch::count_devices(params).total_memristors - data_cells;
    rows.push_back({std::to_string(m), util::format_sci(mttfs.back(), 3),
                    util::format_sci(mttfs.back() / baseline, 2),
                    util::format_pct(overheads.back()),
                    util::format_sci(static_cast<double>(added), 2)});
  }
  emit(json, "ablation_blocksize",
       std::string("Ablation -- block size m (n=1020, SER=1e-3 FIT/bit, T=24h; "
                   "baseline MTTF ") +
           util::format_sci(baseline, 3) + " h)",
       {"m", "Proposed MTTF (h)", "Improvement (x)", "Check-bit overhead",
        "Added memristors"},
       rows);
  gates.check(std::adjacent_find(mttfs.begin(), mttfs.end(),
                                 std::less_equal<>()) == mttfs.end(),
              "Section III: MTTF falls as the block size m grows");
  gates.check(std::adjacent_find(overheads.begin(), overheads.end(),
                                 std::less_equal<>()) == overheads.end(),
              "Section III: check-bit overhead falls as the block size m grows");
}

// ECC coverage during function execution: the paper covers inputs (checked
// before use, their parity canceled when recycled) and outputs (updated
// after each critical write); outputs-only shows what each part costs.
void ablation_coverage(bench::Json& json, bench::Gates& gates,
                       const std::vector<Circuit>& circuits) {
  arch::ArchParams params;
  params.num_pcs = 8;  // enough PCs that coverage, not PC stalls, dominates
  std::vector<Row> rows;
  std::vector<double> ratios_out, ratios_both;
  bool inputs_cost = true;
  for (const auto& [name, program] : circuits) {
    const auto outputs_only = simpler::schedule_with_ecc(
        program, params, simpler::CoveragePolicy::kOutputsOnly);
    const auto both = simpler::schedule_with_ecc(program, params, kPolicy);
    inputs_cost = inputs_cost &&
                  both.overhead_fraction() >= outputs_only.overhead_fraction();
    ratios_out.push_back(1.0 + outputs_only.overhead_fraction());
    ratios_both.push_back(1.0 + both.overhead_fraction());
    rows.push_back({name, std::to_string(outputs_only.baseline_cycles),
                    util::format_sig(outputs_only.overhead_fraction() * 100.0, 4),
                    util::format_sig(both.overhead_fraction() * 100.0, 4),
                    std::to_string(both.cancel_ops)});
  }
  rows.push_back({"Geo. Mean", "",
                  util::format_sig((util::geometric_mean(ratios_out) - 1.0) * 100.0, 4),
                  util::format_sig((util::geometric_mean(ratios_both) - 1.0) * 100.0, 4),
                  ""});
  emit(json, "ablation_coverage", "Ablation -- ECC coverage policy (n=1020, m=15, k=8)",
       {"Benchmark", "Baseline", "Outputs-only ovh (%)", "Inputs+outputs ovh (%)",
        "Cancel ops"},
       rows);
  gates.check(inputs_cost,
              "coverage: covering inputs never costs less than outputs only");
}

// Paper footnote 3: processing-crossbar forwarding vs stalling until the
// in-flight check-bit write-back retires.
void ablation_hazard(bench::Json& json, bench::Gates& gates,
                     const std::vector<Circuit>& circuits) {
  arch::ArchParams forward;
  forward.hazard = arch::HazardPolicy::kForward;
  arch::ArchParams stall;
  stall.hazard = arch::HazardPolicy::kStall;
  std::vector<Row> rows;
  bool forwarding_pays = true;
  for (const auto& [name, program] : circuits) {
    const auto f = simpler::schedule_with_ecc(program, forward, kPolicy);
    const auto s = simpler::schedule_with_ecc(program, stall, kPolicy);
    forwarding_pays = forwarding_pays && s.proposed_cycles >= f.proposed_cycles;
    const double penalty = (static_cast<double>(s.proposed_cycles) /
                                static_cast<double>(f.proposed_cycles) -
                            1.0) *
                           100.0;
    rows.push_back({name, std::to_string(f.proposed_cycles),
                    std::to_string(s.proposed_cycles), util::format_sig(penalty, 3)});
  }
  emit(json, "ablation_hazard",
       "Ablation -- hazard policy on in-flight check-bit updates (n=1020, "
       "m=15, k=3)",
       {"Benchmark", "Forwarding (cycles)", "Stalling (cycles)", "Stall penalty (%)"},
       rows);
  gates.check(forwarding_pays, "footnote 3: stalling is never faster than forwarding");
}

// Section IV-A-3 / Table I "PC (#)": dense-output circuits (dec) keep
// gaining from more PCs; sparse ones saturate at 2 (the two diagonal-axis
// passes of a single update).
void ablation_pcs(bench::Json& json, bench::Gates& gates,
                  const std::vector<Circuit>& circuits) {
  constexpr std::size_t kMaxPcs = 8;
  Row columns = {"Benchmark", "Baseline"};
  for (std::size_t k = 1; k <= kMaxPcs; ++k) columns.push_back("k=" + std::to_string(k));
  std::vector<Row> rows;
  bool more_pcs_help = true;
  for (const auto& [name, program] : circuits) {
    Row row = {name, std::to_string(program.baseline_cycles())};
    std::vector<std::size_t> cycles;
    for (std::size_t k = 1; k <= kMaxPcs; ++k) {
      arch::ArchParams params;
      params.num_pcs = k;
      cycles.push_back(simpler::schedule_with_ecc(program, params, kPolicy).proposed_cycles);
      row.push_back(std::to_string(cycles.back()));
    }
    more_pcs_help = more_pcs_help &&
                    std::is_sorted(cycles.begin(), cycles.end(), std::greater<>());
    rows.push_back(std::move(row));
  }
  emit(json, "ablation_pcs",
       "Ablation -- proposed latency (cycles) vs number of processing crossbars k",
       columns, rows);
  gates.check(more_pcs_help,
              "Section IV-A: another processing crossbar never adds cycles");
}

// Section V-A: "T = 24 hours chosen to have negligible performance impact
// while still providing adequate reliability".  Shorter periods shrink the
// exposure window; the scrubs/year column is the price.  The baseline has
// no scrub: it depends on T only through the exposure window both designs
// share in the paper's model.
void ablation_period(bench::Json& json, bench::Gates& gates) {
  std::vector<Row> rows;
  std::vector<double> mttfs;
  for (const double t : {1.0, 6.0, 12.0, 24.0, 72.0, 168.0, 720.0}) {
    rel::ReliabilityQuery query;
    query.fit_per_bit = 1e-3;
    query.check_period_hours = t;
    const double base = rel::evaluate_baseline(query).mttf_hours;
    mttfs.push_back(rel::evaluate_proposed(query).mttf_hours);
    rows.push_back({util::format_sig(t, 4), util::format_sci(base, 3),
                    util::format_sci(mttfs.back(), 3),
                    util::format_sci(mttfs.back() / base, 2),
                    util::format_sig(24.0 * 365.0 / t, 4)});
  }
  emit(json, "ablation_period",
       "Ablation -- full-memory check period T (n=1020, m=15, SER=1e-3 FIT/bit)",
       {"T (h)", "Baseline MTTF (h)", "Proposed MTTF (h)", "Improvement (x)",
        "Scrubs/year"},
       rows);
  gates.check(std::is_sorted(mttfs.begin(), mttfs.end(), std::greater<>()),
              "Section V-A: a longer check period never raises MTTF");
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Options options =
      bench::parse_options(argc, argv, "BENCH_paper.json");
  bench::Gates gates;
  bench::Json json("pimecc-bench-paper/1", options);
  const std::vector<Circuit> circuits = map_circuits();

  table1(json, gates, circuits);
  table2(json, gates);
  fig2(json, gates);
  fig6(json, gates);
  false_positive(json, gates);
  burst(json, gates);
  multislope(json, gates);
  lifetime(json, gates);
  montecarlo(json, gates, options.smoke ? 150 : 1500);
  refresh_drift(json, gates);
  ablation_blocksize(json, gates);
  ablation_coverage(json, gates, circuits);
  ablation_hazard(json, gates, circuits);
  ablation_pcs(json, gates, circuits);
  ablation_period(json, gates);
  return json.finish(gates, "claims_ok");
}
