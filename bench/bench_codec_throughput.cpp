// Codec throughput harness: measures the word-parallel ECC codec against
// the bit-serial reference on the three hot paths and emits machine-readable
// BENCH_codec.json -- the codec-layer companion of bench_engine_throughput.
//
//   1. encode_all: whole-array check-bit recomputation -- ArrayCode's batch
//      band path vs a per-block ReferenceBlockCodec::encode loop.
//   2. scrub: whole-array check-and-correct on clean data (the Monte Carlo
//      engine's dominant per-trial cost) -- ArrayCode::scrub vs a per-block
//      ReferenceBlockCodec::check_and_correct loop.
//   3. scrub_block: the per-block repair behind the block-column scrubs and
//      the sparse Monte Carlo trials, on every block of clean data --
//      ArrayCode::scrub_block vs a per-block
//      ReferenceBlockCodec::check_and_correct loop.
//   4. consistent_with: the whole-array consistency check every `run`
//      request ends with -- ArrayCode::consistent_with vs a per-block
//      ReferenceBlockCodec::encode-and-compare loop.
//   5. band_kernel: nanoseconds per band of the packed band kernel alone
//      (simd::KernelTable::band_accumulate over all m rows of one band) at
//      every dispatch level, at the campaign and serving sizes n in
//      {60, 120, 510, 1020}, m = 15; every level's rows are cross-checked
//      against the scalar kernel's first.
//
// Grid: n in {256, 512, 1024} x m in {3, 5, 7, 9, 15, 31, 63}; n is rounded
// down to the nearest multiple of m (n_eff) since the array code requires
// m | n.  m = 15 holds the serving design point (n_eff = 1020) and the
// campaign shard (n_eff = 510).
// m = 63 exercises the single-word fast path in the SIMD kernels, and its
// n_eff values (252, 504, 1008) keep a non-multiple-of-64 row width in the
// grid so the tail-word masking stays covered.  After the grid, m = 85 and
// m = 255 at n_eff = 1020 time blocks whose rows span two and four words,
// which every dispatch level hands to the scalar kernels.  Every timed
// configuration is
// first cross-checked at EVERY runtime dispatch level (scalar, AVX2, ...):
// the fast engine's check bits and scrub report must equal the bit-serial
// reference's, or the run exits non-zero.
//
// Each metric reports three engines: the bit-serial reference, the scalar
// word-parallel kernels, and the widest SIMD kernel level the CPU offers
// (the two coincide on scalar-only hardware or under PIMECC_FORCE_SCALAR).
//
// Usage: bench_codec_throughput [--smoke] [--out=PATH]
//   --smoke    fast CI configuration (n = 256, m in {3, 31, 63}, then
//              m = 85 at n_eff = 1020)
//   --out=PATH where to write the JSON (default: BENCH_codec.json in cwd)
#include <array>
#include <cstdint>
#include <functional>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "core/array_code.hpp"
#include "harness.hpp"
#include "oracle/reference_block_code.hpp"
#include "util/bitmatrix.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"

namespace {

using pimecc::ecc::ArrayCode;
using pimecc::ecc::BlockRepair;
using pimecc::ecc::CheckBits;
using pimecc::ecc::ReferenceBlockCodec;
using pimecc::ecc::ScrubReport;

/// The timed hot paths, in JSON order.
constexpr std::array<const char*, 4> kPaths = {"encode_all", "scrub",
                                               "scrub_block", "consistent_with"};

/// One hot path's whole-array pass on each engine.
struct Passes {
  std::function<void()> reference;
  std::function<void()> fast;
};

/// Data cells per second of one hot path on each engine.
struct Rates {
  double reference = 0.0;
  double scalar = 0.0;
  double simd = 0.0;
  /// Headline speedup: widest SIMD level vs the bit-serial reference.
  [[nodiscard]] double speedup() const { return simd / reference; }
  /// Vectorization gain alone: SIMD kernels vs the scalar word-parallel ones.
  [[nodiscard]] double simd_vs_scalar() const { return simd / scalar; }
};

}  // namespace

int main(int argc, char** argv) {
  using namespace pimecc;
  using bench::fmt;

  const bench::Options options =
      bench::parse_options(argc, argv, "BENCH_codec.json");
  const bool smoke = options.smoke;
  bench::Gates gates;
  const std::vector<std::size_t> ns =
      smoke ? std::vector<std::size_t>{256} : std::vector<std::size_t>{256, 512, 1024};
  // m = 63 must stay in the smoke grid: it is the configuration that drives
  // the kernels' single-word (m >= 63) path and a row width with
  // n_eff mod 64 != 0, so CI exercises both edge paths on every run.
  const std::vector<std::size_t> ms =
      smoke ? std::vector<std::size_t>{3, 31, 63}
            : std::vector<std::size_t>{3, 5, 7, 9, 15, 31, 63};
  std::vector<std::pair<std::size_t, std::size_t>> configs;  // (n, m)
  for (const std::size_t n : ns) {
    for (const std::size_t m : ms) configs.emplace_back(n, m);
  }
  for (const std::size_t m : smoke ? std::vector<std::size_t>{85}
                                   : std::vector<std::size_t>{85, 255}) {
    configs.emplace_back(1024, m);
  }
  const double min_seconds = smoke ? 0.02 : 0.2;

  namespace simd = util::simd;
  // The level the process dispatched to at startup (the widest the CPU
  // offers, unless PIMECC_FORCE_SCALAR pinned it down).
  const simd::Level native_level = simd::active_level();
  const std::vector<simd::Level> levels = simd::available_levels();

  bench::Json json("pimecc-bench-codec/4", options);
  json.host();
  json.field("simd_level", simd::to_string(native_level));
  json.array("dispatch_levels_checked");
  for (const simd::Level level : levels) json.item(simd::to_string(level));
  json.end().array("configs");
  std::array<Rates, kPaths.size()> largest;
  for (const auto& [n, m] : configs) {
    const std::size_t bps = n / m;
    const std::size_t n_eff = bps * m;
    util::Rng rng(0xC0DEC'BE7Cull ^ (n * 131) ^ m);
    util::BitMatrix data = util::random_bit_matrix(n_eff, n_eff, rng);

    ArrayCode code(n_eff, m);
    const ReferenceBlockCodec ref(m);
    std::vector<CheckBits> ref_stored(bps * bps, CheckBits(m));

    // Cross-check before timing, at every dispatch level the CPU offers:
    // the fast engine's check bits must agree with the bit-serial
    // reference's, a clean scrub must report every block clean, and
    // scrub_block must repair a flipped data bit where it lies.
    for (std::size_t br = 0; br < bps; ++br) {
      for (std::size_t bc = 0; bc < bps; ++bc) {
        ref_stored[br * bps + bc] = ref.encode(data, br * m, bc * m);
      }
    }
    const ScrubReport ref_clean = reference_scrub(ref, data, ref_stored, bps);
    for (const simd::Level level : levels) {
      simd::set_level(level);
      code.encode_all(data);
      bool encode_ok = true;
      for (std::size_t b = 0; b < bps * bps && encode_ok; ++b) {
        encode_ok = ref_stored[b] == code.check_bits({b / bps, b % bps});
      }
      const std::string at = std::string(" at level ") +
                             simd::to_string(level) + " n_eff=" +
                             std::to_string(n_eff) + " m=" + std::to_string(m);
      gates.check(encode_ok, "encode" + at);
      const ScrubReport fast_clean = code.scrub(data);
      gates.check(fast_clean == ref_clean && fast_clean.clean == bps * bps,
                  "scrub" + at);
      data.flip(n_eff - 1, n_eff / 2);
      const bool flipped_consistent = code.consistent_with(data);
      data.flip(n_eff - 1, n_eff / 2);
      gates.check(code.consistent_with(data) && !flipped_consistent,
                  "consistent_with" + at);
      data.flip(n_eff - 1, n_eff / 2);
      const BlockRepair repair =
          code.scrub_block(data, code.block_of(n_eff - 1, n_eff / 2));
      gates.check(repair.status == ecc::DecodeStatus::kCorrectedData &&
                      repair.data_r == n_eff - 1 &&
                      repair.data_c == n_eff / 2 && code.consistent_with(data),
                  "scrub_block" + at);
    }
    simd::set_level(native_level);

    const std::array<Passes, kPaths.size()> passes = {{
        {[&] {
           for (std::size_t b = 0; b < bps * bps; ++b) {
             ref_stored[b] = ref.encode(data, b / bps * m, b % bps * m);
           }
         },
         [&] { code.encode_all(data); }},
        {[&] { (void)reference_scrub(ref, data, ref_stored, bps); },
         [&] { (void)code.scrub(data); }},
        {[&] {
           for (std::size_t b = 0; b < bps * bps; ++b) {
             (void)ref.check_and_correct(data, b / bps * m, b % bps * m,
                                         ref_stored[b]);
           }
         },
         [&] {
           for (std::size_t b = 0; b < bps * bps; ++b) {
             (void)code.scrub_block(data, {b / bps, b % bps});
           }
         }},
        {[&] {
           bool same = true;
           for (std::size_t b = 0; b < bps * bps && same; ++b) {
             same = ref.encode(data, b / bps * m, b % bps * m) == ref_stored[b];
           }
           gates.check(same, "reference consistency");
         },
         [&] { gates.check(code.consistent_with(data), "consistent_with"); }},
    }};
    auto cells_per_sec = [&](const std::function<void()>& pass) {
      return bench::measure_rate(min_seconds, [&] {
        pass();
        return n_eff * n_eff;
      });
    };
    std::array<Rates, kPaths.size()> rates;
    for (std::size_t p = 0; p < kPaths.size(); ++p) {
      rates[p].reference = cells_per_sec(passes[p].reference);
    }
    // Time the word-parallel engine twice: once pinned to the scalar
    // kernel table, once at the widest SIMD level.  The engines route
    // every hot loop through util::simd::kernels(), so set_level swaps
    // the machinery under the same ArrayCode object.
    simd::set_level(simd::Level::kScalar);
    for (std::size_t p = 0; p < kPaths.size(); ++p) {
      rates[p].scalar = cells_per_sec(passes[p].fast);
    }
    simd::set_level(native_level);
    for (std::size_t p = 0; p < kPaths.size(); ++p) {
      rates[p].simd = native_level == simd::Level::kScalar
                          ? rates[p].scalar
                          : cells_per_sec(passes[p].fast);
    }

    std::cout << "n=" << n_eff << " m=" << m << " ("
              << simd::to_string(native_level) << " vs reference, vs scalar):";
    json.object().field("n", n).field("n_eff", n_eff).field("m", m);
    for (std::size_t p = 0; p < kPaths.size(); ++p) {
      std::cout << " " << kPaths[p] << " " << fmt(rates[p].speedup()) << "x "
                << fmt(rates[p].simd_vs_scalar()) << "x";
      json.object(kPaths[p])
          .field("reference_cells_per_sec", rates[p].reference)
          .field("scalar_cells_per_sec", rates[p].scalar)
          .field("simd_cells_per_sec", rates[p].simd)
          .field("speedup", rates[p].speedup())
          .field("simd_vs_scalar", rates[p].simd_vs_scalar())
          .end();
    }
    std::cout << "\n";
    json.end();
    if (n == ns.back() && m == ms.back()) largest = rates;
  }
  json.end();

  // ---------------------------------------------- band kernel, per level
  json.array("band_kernel");
  for (const std::size_t n : smoke ? std::vector<std::size_t>{60, 120}
                                   : std::vector<std::size_t>{60, 120, 510, 1020}) {
    const std::size_t m = 15;
    const std::size_t words = (n + 63) / 64;
    const std::vector<std::uint64_t> masks = simd::segment_masks(m, n / m);
    const simd::BandShape shape{m, words, masks.data()};
    util::Rng rng(0xBA4D'0000ull + n);
    std::vector<std::vector<std::uint64_t>> rows(
        m, std::vector<std::uint64_t>(words));
    std::vector<const std::uint64_t*> ptrs;
    for (auto& row : rows) {
      for (auto& word : row) word = rng.next();
      ptrs.push_back(row.data());
    }
    std::vector<std::uint64_t> want_lead(words, 0), want_cnt(words, 0);
    simd::kernels_for(simd::Level::kScalar)
        .band_accumulate(shape, ptrs.data(), 0, m, want_lead.data(),
                         want_cnt.data());
    for (const simd::Level level : levels) {
      const simd::KernelTable& kernels = simd::kernels_for(level);
      std::vector<std::uint64_t> lead(words, 0), cnt(words, 0);
      kernels.band_accumulate(shape, ptrs.data(), 0, m, lead.data(), cnt.data());
      gates.check(lead == want_lead && cnt == want_cnt,
                  std::string("band kernel at level ") + simd::to_string(level) +
                      " n=" + std::to_string(n));
      const double bands_per_sec = bench::measure_rate(min_seconds, [&] {
        for (int i = 0; i < 1000; ++i) {
          kernels.band_accumulate(shape, ptrs.data(), 0, m, lead.data(),
                                  cnt.data());
        }
        return 1000;
      });
      std::cout << "band kernel n=" << n << " m=" << m << " "
                << simd::to_string(level) << ": " << fmt(1e9 / bands_per_sec)
                << " ns/band\n";
      json.object()
          .field("n", n)
          .field("m", m)
          .field("level", simd::to_string(level))
          .field("ns_per_band", 1e9 / bands_per_sec)
          .end();
    }
  }
  json.end();

  json.object("largest_config")
      .field("n_eff", ns.back() / ms.back() * ms.back())
      .field("m", ms.back());
  for (std::size_t p = 0; p < kPaths.size(); ++p) {
    json.field(std::string(kPaths[p]) + "_speedup", largest[p].speedup());
  }
  for (std::size_t p = 0; p < kPaths.size(); ++p) {
    json.field(std::string(kPaths[p]) + "_simd_vs_scalar",
               largest[p].simd_vs_scalar());
  }
  json.end();
  return json.finish(gates, "differential_ok");
}
