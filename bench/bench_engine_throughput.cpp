// Engine throughput harness: measures the word-parallel execution engine
// against the bit-serial reference on both hot paths and emits
// machine-readable BENCH_engine.json so the perf trajectory is tracked
// from PR 2 onward.
//
//   1. Crossbar MAGIC NOR, all lanes, both orientations: init+NOR pairs on
//      an n x n array, bit-serial ReferenceCrossbar vs the word-parallel
//      engine pinned to its scalar kernels vs the widest SIMD dispatch
//      level, reported as lanes/second and speedups.  Two array sizes per
//      mode, one of them with n mod 64 != 0 so the tail-word masking path
//      is always timed and cross-checked.  Row-orientation NOR stays scalar
//      at every dispatch level (its lanes are scattered single-word
//      accesses, nothing contiguous to vectorize), so its scalar and SIMD
//      columns coincide by design.
//   2. Monte Carlo reliability: run_montecarlo trials/second across a
//      thread-count sweep, with the determinism cross-check (results must
//      be bit-identical for every thread count) recorded in the output.
//
// Before any timing, a deterministic random gate program is replayed on the
// word-parallel crossbar at EVERY runtime dispatch level and compared
// against the bit-serial reference (violations and final contents); any
// divergence makes the run exit non-zero, same as the MC determinism gate.
//
// Usage: bench_engine_throughput [--smoke] [--out=PATH]
//   --smoke    fast CI configuration (small arrays, few trials)
//   --out=PATH where to write the JSON (default: BENCH_engine.json in cwd)
#include <array>
#include <iostream>
#include <string>
#include <vector>

#include "harness.hpp"
#include "oracle/reference_crossbar.hpp"
#include "reliability/montecarlo.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"
#include "xbar/crossbar.hpp"

namespace {

template <typename Xbar>
void randomize(Xbar& xb, pimecc::util::Rng& rng) {
  for (std::size_t r = 0; r < xb.rows(); ++r) {
    for (std::size_t c = 0; c < xb.cols(); ++c) {
      xb.poke(r, c, rng.bernoulli(0.5));
    }
  }
}

/// Runs batches of all-lane ops until at least `min_seconds` elapsed and
/// returns NOR lanes per second.  With `with_init`, each NOR is preceded by
/// the LRS initialization of its output line (the full gate sequence);
/// without it, a pure magic_nor stream is measured.  The output line cycles
/// so successive gates touch different cells, like a real mapped netlist.
template <typename Xbar>
double measure_nor_lanes_per_sec(Xbar& xb, pimecc::xbar::Orientation o,
                                 bool with_init, double min_seconds,
                                 std::size_t batch) {
  using pimecc::xbar::Orientation;
  const std::size_t lines = o == Orientation::kRow ? xb.cols() : xb.rows();
  const std::size_t lanes = o == Orientation::kRow ? xb.rows() : xb.cols();
  const std::size_t ins[2] = {0, 1};
  std::size_t next_out = 2;
  return pimecc::bench::measure_rate(min_seconds, [&] {
    for (std::size_t i = 0; i < batch; ++i) {
      if (with_init) {
        const std::size_t out[1] = {next_out};
        xb.magic_init(o, out);
      }
      (void)xb.magic_nor(o, ins, next_out);
      if (++next_out == lines) next_out = 2;
    }
    return batch * lanes;
  });
}

/// Replays a deterministic random init+NOR program on the word-parallel
/// crossbar at dispatch level `level` and on the bit-serial reference;
/// returns false on any violation-count or final contents divergence.
bool crossbar_matches_reference(std::size_t n, pimecc::util::simd::Level level,
                                std::size_t steps) {
  namespace simd = pimecc::util::simd;
  using pimecc::xbar::Orientation;
  simd::set_level(level);
  pimecc::util::Rng rng(0x5EED'0CB5ull ^ n);
  pimecc::xbar::Crossbar fast(n, n);
  pimecc::xbar::ReferenceCrossbar ref(n, n);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < n; ++c) {
      const bool v = rng.bernoulli(0.5);
      fast.poke(r, c, v);
      ref.poke(r, c, v);
    }
  }
  for (std::size_t step = 0; step < steps; ++step) {
    const Orientation o =
        rng.bernoulli(0.5) ? Orientation::kRow : Orientation::kColumn;
    const std::size_t out_line = rng.uniform_below(n);
    std::vector<std::size_t> ins;
    const std::size_t fan_in = 1 + rng.uniform_below(3);
    for (std::size_t i = 0; i < fan_in; ++i) {
      std::size_t line = rng.uniform_below(n);
      if (line == out_line) line = (line + 1) % n;
      bool dup = false;
      for (const std::size_t seen : ins) dup |= seen == line;
      if (!dup) ins.push_back(line);
    }
    const std::size_t out_arr[1] = {out_line};
    fast.magic_init(o, out_arr);
    ref.magic_init(o, out_arr);
    const auto rf = fast.magic_nor(o, ins, out_line);
    const auto rr = ref.magic_nor(o, ins, out_line);
    if (rf.violations != rr.violations) return false;
  }
  return fast.contents() == ref.contents();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace pimecc;
  using bench::fmt;
  using xbar::Orientation;

  const bench::Options options =
      bench::parse_options(argc, argv, "BENCH_engine.json");
  const bool smoke = options.smoke;
  bench::Gates gates;

  // One power-of-two size and one with n mod 64 != 0, so the tail-word
  // masking in the column-NOR kernel is always part of the timed (and
  // cross-checked) surface.
  const std::vector<std::size_t> sizes =
      smoke ? std::vector<std::size_t>{250, 256}
            : std::vector<std::size_t>{1000, 1024};
  const double min_seconds = smoke ? 0.02 : 0.25;
  const std::size_t batch = smoke ? 8 : 32;

  namespace simd = util::simd;
  const simd::Level native_level = simd::active_level();

  // ------------------------------------------------- xbar cross-check gate
  const std::size_t check_steps = smoke ? 48 : 96;
  for (const std::size_t n : sizes) {
    for (const simd::Level level : simd::available_levels()) {
      gates.check(crossbar_matches_reference(n, level, check_steps),
                  std::string("crossbar at level ") + simd::to_string(level) +
                      " n=" + std::to_string(n));
    }
  }
  simd::set_level(native_level);

  bench::Json json("pimecc-bench-engine/3", options);
  json.host().field("xbar_cross_check_ok", gates.ok());

  // ---------------------------------------------------------------- xbar
  double min_nor_speedup = 0.0;
  json.array("xbar");
  for (const std::size_t n : sizes) {
    json.object().field("n", n);
    for (const Orientation o : {Orientation::kRow, Orientation::kColumn}) {
      util::Rng rng(0xBE7C'11ull);
      xbar::Crossbar fast(n, n);
      randomize(fast, rng);
      rng.reseed(0xBE7C'11ull);
      xbar::ReferenceCrossbar ref(n, n);
      randomize(ref, rng);

      // {pure NOR stream, init+NOR pairs} lanes per second.
      auto rates = [&](auto& xb) {
        return std::array<double, 2>{
            measure_nor_lanes_per_sec(xb, o, false, min_seconds, batch),
            measure_nor_lanes_per_sec(xb, o, true, min_seconds, batch)};
      };
      const std::array<double, 2> ref_rates = rates(ref);
      simd::set_level(simd::Level::kScalar);
      const std::array<double, 2> scalar_rates = rates(fast);
      simd::set_level(native_level);
      // Row-orientation NOR never routes through the dispatch table (it
      // stays scalar at every level), so re-timing it would only record
      // clock noise: report the scalar numbers for both columns.
      const std::array<double, 2> simd_rates =
          native_level == simd::Level::kScalar || o == Orientation::kRow
              ? scalar_rates
              : rates(fast);

      const char* name = o == Orientation::kRow ? "row" : "column";
      json.object(name);
      for (const std::size_t k : {0, 1}) {
        json.object(k == 0 ? "nor" : "init_nor_pair")
            .field("reference_lanes_per_sec", ref_rates[k])
            .field("scalar_lanes_per_sec", scalar_rates[k])
            .field("simd_lanes_per_sec", simd_rates[k])
            .field("speedup", simd_rates[k] / ref_rates[k])
            .field("simd_vs_scalar", simd_rates[k] / scalar_rates[k])
            .end();
      }
      json.end();
      const double nor_speedup = simd_rates[0] / ref_rates[0];
      if (min_nor_speedup == 0.0 || nor_speedup < min_nor_speedup) {
        min_nor_speedup = nor_speedup;
      }
      std::cout << "magic_nor " << n << "x" << n << " all-lane (" << name
                << " orientation): reference " << fmt(ref_rates[0])
                << " lanes/s, scalar " << fmt(scalar_rates[0]) << " lanes/s, "
                << simd::to_string(native_level) << " " << fmt(simd_rates[0])
                << " lanes/s, speedup " << fmt(nor_speedup)
                << "x vs reference, " << fmt(simd_rates[0] / scalar_rates[0])
                << "x vs scalar (init+nor pair: "
                << fmt(simd_rates[1] / ref_rates[1]) << "x)\n";
    }
    json.end();
  }
  json.end().field("min_nor_speedup", min_nor_speedup);

  // ---------------------------------------------------------- monte carlo
  rel::MonteCarloConfig config;
  config.n = smoke ? 60 : 120;
  config.m = 15;
  config.fit_per_bit = 1e6;
  config.window_hours = 24.0;
  config.trials = smoke ? 200 : 2000;

  json.object("montecarlo")
      .field("n", config.n)
      .field("m", config.m)
      .field("fit_per_bit", config.fit_per_bit)
      .field("trials", config.trials)
      .array("thread_sweep");
  bool deterministic = true;
  rel::MonteCarloResult baseline;
  double serial_rate = 0.0;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    config.threads = threads;
    util::Rng rng(0xF16'6ull);
    rel::MonteCarloResult result;
    const double trials_per_sec = bench::measure_rate(0.0, [&] {
      result = rel::run_montecarlo(config, rng);
      return config.trials;
    });
    if (threads == 1) {
      baseline = result;
      serial_rate = trials_per_sec;
    } else {
      deterministic = gates.check(result == baseline,
                                  "montecarlo determinism at threads=" +
                                      std::to_string(threads)) &&
                      deterministic;
    }
    json.object()
        .field("threads", threads)
        .field("seconds", static_cast<double>(config.trials) / trials_per_sec)
        .field("trials_per_sec", trials_per_sec)
        .field("speedup_vs_1", trials_per_sec / serial_rate)
        .end();
    std::cout << "montecarlo n=" << config.n << " trials=" << config.trials
              << " threads=" << threads << ": " << fmt(trials_per_sec)
              << " trials/s (speedup " << fmt(trials_per_sec / serial_rate)
              << "x)\n";
  }
  json.end().field("deterministic_across_threads", deterministic);
  return json.finish(gates);
}
