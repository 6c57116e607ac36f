// Tests for the checkpoint/resume stack: Rng stream-position round-trips,
// machine checkpoints (arch/checkpoint) restoring bit-identically and
// rejecting every defect class without mutating the target machine, and the
// resumable lifetime campaign (begin/advance/save/load) being bit-identical
// to an uninterrupted simulate_lifetime at any chunking and thread count.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <fstream>
#include <iterator>
#include <memory>
#include <set>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "arch/checkpoint.hpp"
#include "arch/pim_machine.hpp"
#include "oracle/chaos_backend.hpp"
#include "reliability/lifetime.hpp"
#include "util/rng.hpp"
#include "util/serialize.hpp"

namespace pimecc {
namespace {

using util::SerializeError;

// ---------------------------------------------------------------------------
// Rng stream position

TEST(RngState, RoundTripResumesIdentically) {
  util::Rng rng(0xDEADBEEFull);
  for (int i = 0; i < 17; ++i) (void)rng.next();

  const util::Rng::State saved = rng.state();
  std::vector<std::uint64_t> expected;
  for (int i = 0; i < 64; ++i) expected.push_back(rng.next());

  util::Rng resumed(1);  // unrelated seed; state restore must fully override
  resumed.set_state(saved);
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(resumed.next(), expected[i]) << "draw " << i;
  }
}

TEST(RngState, ForStreamIdentityAcrossSaveRestore) {
  // Substream derivation depends only on (seed, stream), never on the
  // parent's position -- the property that makes trial-boundary resume
  // exact.  A restored parent must spawn bit-identical substreams.
  util::Rng parent(42);
  const util::Rng::State saved = parent.state();
  for (int i = 0; i < 5; ++i) (void)parent.next();

  util::Rng restored(7);
  restored.set_state(saved);
  for (std::uint64_t stream = 0; stream < 8; ++stream) {
    util::Rng a = util::Rng::for_stream(42, stream);
    util::Rng b = util::Rng::for_stream(42, stream);
    for (int i = 0; i < 16; ++i) {
      EXPECT_EQ(a.next(), b.next()) << "stream " << stream;
    }
  }
}

TEST(RngState, AllZeroStateRejected) {
  util::Rng rng(3);
  const util::Rng::State before = rng.state();
  EXPECT_THROW(rng.set_state(util::Rng::State{0, 0, 0, 0}),
               std::invalid_argument);
  EXPECT_EQ(rng.state(), before);  // failed restore leaves position alone
}

// ---------------------------------------------------------------------------
// Machine checkpoints

arch::ArchParams small_params() {
  arch::ArchParams params;
  params.n = 60;
  params.m = 15;
  return params;
}

/// A deterministic work segment whose operations depend on `rng` draws, so
/// continuation identity also exercises the saved RNG position.
void run_segment(arch::PimMachine& machine, util::Rng& rng) {
  const std::size_t n = machine.n();
  util::BitVector row(n);
  util::fill_random(row, rng);
  machine.write_row_protected(rng.next() % n, row);

  // Inputs from the left half, output from the right half: distinct columns,
  // as magic_nor requires.
  const std::size_t base = rng.next() % (n / 2 - 1);
  const std::array<std::size_t, 2> ins = {base, base + 1};
  const std::array<std::size_t, 1> out = {n / 2 + rng.next() % (n / 2)};
  machine.magic_init_rows_protected(out);
  machine.magic_nor_rows_protected(ins, out[0]);

  machine.inject_data_error(rng.next() % n, rng.next() % n);
  (void)machine.scrub();
}

/// Full-state equality: MEM image, every block's check bits, both counter
/// sets.  (No operator== on PimMachine by design; the comparison is a test
/// concern.)
void expect_machines_equal(const arch::PimMachine& a,
                           const arch::PimMachine& b) {
  EXPECT_TRUE(a.data() == b.data());
  EXPECT_EQ(a.counters(), b.counters());
  EXPECT_EQ(a.mem_counters(), b.mem_counters());
  const std::size_t blocks = a.check_code().blocks_per_side();
  ASSERT_EQ(blocks, b.check_code().blocks_per_side());
  for (std::size_t br = 0; br < blocks; ++br) {
    for (std::size_t bc = 0; bc < blocks; ++bc) {
      const auto& ca = a.check_code().check_bits({br, bc});
      const auto& cb = b.check_code().check_bits({br, bc});
      EXPECT_TRUE(ca.leading == cb.leading) << "block " << br << "," << bc;
      EXPECT_TRUE(ca.counter == cb.counter) << "block " << br << "," << bc;
    }
  }
}

TEST(MachineCheckpoint, RoundTripRestoresEveryField) {
  arch::PimMachine machine(small_params());
  util::Rng rng(11);
  machine.load(util::random_bit_matrix(60, 60, rng));
  run_segment(machine, rng);

  std::stringstream stream;
  arch::save_machine_checkpoint(stream, machine);

  // Scramble a second machine thoroughly, then restore the snapshot into it.
  arch::PimMachine other(small_params());
  util::Rng scramble(99);
  other.load(util::random_bit_matrix(60, 60, scramble));
  run_segment(other, scramble);

  arch::load_machine_checkpoint(stream, other);
  expect_machines_equal(machine, other);
}

TEST(MachineCheckpoint, ContinuationIsBitIdentical) {
  // Checkpoint mid-program with the RNG riding along; the resumed machine
  // replaying the identical remaining segments must land in the identical
  // final state -- the property that makes long runs resumable.
  arch::PimMachine machine(small_params());
  util::Rng rng(2026);
  machine.load(util::random_bit_matrix(60, 60, rng));
  run_segment(machine, rng);

  std::stringstream stream;
  arch::save_machine_checkpoint(stream, machine, &rng);

  // Original continues...
  run_segment(machine, rng);
  run_segment(machine, rng);

  // ...and the restored copy follows from the checkpoint.
  arch::PimMachine resumed(small_params());
  util::Rng resumed_rng(1);
  arch::load_machine_checkpoint(stream, resumed, &resumed_rng);
  run_segment(resumed, resumed_rng);
  run_segment(resumed, resumed_rng);

  expect_machines_equal(machine, resumed);
  EXPECT_EQ(rng.state(), resumed_rng.state());
}

TEST(MachineCheckpoint, PreservesInconsistentCheckState) {
  // Check bits are restored verbatim, not re-encoded: an injected check
  // error pending at save time must still be pending after load.
  arch::PimMachine machine(small_params());
  util::Rng rng(5);
  machine.load(util::random_bit_matrix(60, 60, rng));
  machine.inject_data_error(7, 23);
  ASSERT_FALSE(machine.ecc_consistent());

  std::stringstream stream;
  arch::save_machine_checkpoint(stream, machine);
  arch::PimMachine other(small_params());
  arch::load_machine_checkpoint(stream, other);
  EXPECT_FALSE(other.ecc_consistent());

  const arch::CheckReport report = other.scrub();
  EXPECT_EQ(report.corrected_data, 1u);
  EXPECT_TRUE(other.ecc_consistent());
}

TEST(MachineCheckpoint, LoadWithoutSavedRngThrows) {
  arch::PimMachine machine(small_params());
  std::stringstream stream;
  arch::save_machine_checkpoint(stream, machine);  // no RNG in the file
  util::Rng rng(4);
  EXPECT_THROW(arch::load_machine_checkpoint(stream, machine, &rng),
               SerializeError);
}

TEST(MachineCheckpoint, GoldenFileLoadsAndResavesByteIdentically) {
  // tests/golden/machine_n60_m15.ckpt was written by an earlier build: an
  // n=60/m=15 machine after a protected row write, a NOR and a scrub, with
  // one pending data error, pending check errors on both axes (block (1,2)
  // counter diagonal 5, block (3,0) leading diagonal 14) and the RNG
  // riding along.  Loading it and saving again must reproduce it byte for
  // byte: the on-disk check-bit format does not depend on how ArrayCode
  // stores its check bits.
  std::ifstream file(PIMECC_GOLDEN_DIR "/machine_n60_m15.ckpt",
                     std::ios::binary);
  ASSERT_TRUE(file.good());
  const std::string golden((std::istreambuf_iterator<char>(file)),
                           std::istreambuf_iterator<char>());
  std::istringstream in(golden);
  arch::PimMachine machine(small_params());
  util::Rng rng(1);
  arch::load_machine_checkpoint(in, machine, &rng);

  std::ostringstream out;
  arch::save_machine_checkpoint(out, machine, &rng);
  EXPECT_TRUE(out.str() == golden) << "re-saved checkpoint differs";

  EXPECT_FALSE(machine.ecc_consistent());
  const arch::CheckReport report = machine.scrub();
  EXPECT_EQ(report.corrected_data, 1u);
  EXPECT_EQ(report.corrected_check, 2u);
  EXPECT_EQ(report.uncorrectable, 0u);
  EXPECT_TRUE(machine.ecc_consistent());
}

class MachineCheckpointDefects : public ::testing::Test {
 protected:
  void SetUp() override {
    arch::PimMachine source(small_params());
    util::Rng rng(77);
    source.load(util::random_bit_matrix(60, 60, rng));
    run_segment(source, rng);
    std::stringstream stream;
    arch::save_machine_checkpoint(stream, source, &rng);
    encoded_ = stream.str();

    target_ = std::make_unique<arch::PimMachine>(small_params());
    util::Rng fill(123);
    target_->load(util::random_bit_matrix(60, 60, fill));
    std::stringstream pristine;
    arch::save_machine_checkpoint(pristine, *target_);
    pristine_ = pristine.str();
  }

  /// Asserts the load throws AND the target machine is byte-for-byte
  /// untouched (re-serializing it reproduces the pristine snapshot).
  void expect_rejected(const std::string& bytes) {
    std::istringstream stream(bytes);
    EXPECT_THROW(arch::load_machine_checkpoint(stream, *target_),
                 SerializeError);
    std::stringstream after;
    arch::save_machine_checkpoint(after, *target_);
    EXPECT_EQ(after.str(), pristine_);
  }

  std::string encoded_;
  std::string pristine_;
  std::unique_ptr<arch::PimMachine> target_;
};

TEST_F(MachineCheckpointDefects, TruncatedFileRejected) {
  expect_rejected(encoded_.substr(0, encoded_.size() / 2));
  expect_rejected(encoded_.substr(0, 3));
  expect_rejected("");
}

TEST_F(MachineCheckpointDefects, BadMagicRejected) {
  std::string bad = encoded_;
  bad[2] = static_cast<char>(bad[2] ^ 0xFF);
  expect_rejected(bad);
}

TEST_F(MachineCheckpointDefects, CorruptPayloadRejected) {
  std::string bad = encoded_;
  bad[encoded_.size() / 2] = static_cast<char>(bad[encoded_.size() / 2] ^ 0x01);
  expect_rejected(bad);
}

TEST_F(MachineCheckpointDefects, GeometryMismatchRejected) {
  // A valid checkpoint of a DIFFERENT machine shape must be refused: a
  // checkpoint is a continuation, not a migration.
  arch::ArchParams params;
  params.n = 30;
  params.m = 15;
  arch::PimMachine small(params);
  std::stringstream stream;
  arch::save_machine_checkpoint(stream, small);
  expect_rejected(stream.str());

  arch::ArchParams tweaked = small_params();
  tweaked.num_pcs += 1;
  arch::PimMachine pcs_machine(tweaked);
  std::stringstream stream2;
  arch::save_machine_checkpoint(stream2, pcs_machine);
  expect_rejected(stream2.str());
}

// The chunk frame is |magic u64|version u32|payload_size u64|payload|crc64|
// (util/serialize.hpp), all little-endian: header is 20 bytes, the machine
// chunk ends at 20 + payload_size + 8.  The fixture's file carries an RNG
// chunk after the machine chunk, and a no-rng load ignores trailing bytes,
// so defect sweeps stay strictly inside [0, machine chunk end).

std::uint64_t le_u64_at(const std::string& bytes, std::size_t offset) {
  std::uint64_t v = 0;
  for (std::size_t i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(
             static_cast<std::uint8_t>(bytes[offset + i]))
         << (8 * i);
  }
  return v;
}

std::span<const std::uint8_t> byte_span(const std::string& bytes) {
  return {reinterpret_cast<const std::uint8_t*>(bytes.data()), bytes.size()};
}

std::string to_string(const std::vector<std::uint8_t>& bytes) {
  return std::string(bytes.begin(), bytes.end());
}

TEST_F(MachineCheckpointDefects, TruncationAtEveryChunkBoundaryRejected) {
  ASSERT_GE(encoded_.size(), 20u);
  const std::uint64_t payload = le_u64_at(encoded_, 12);
  const std::size_t chunk_end = 20 + payload + 8;
  ASSERT_LE(chunk_end, encoded_.size());

  // Every structural boundary of the frame, each probed exactly, one byte
  // short, and one byte long: end of magic (8), of version (12), of the
  // size field / start of payload (20), end of payload (20 + payload), and
  // every prefix of the trailing CRC.  A cut ANYWHERE inside the machine
  // chunk must reject without mutating the target.
  std::set<std::size_t> cuts;
  for (const std::size_t base : {std::size_t{0}, std::size_t{8},
                                 std::size_t{12}, std::size_t{20},
                                 static_cast<std::size_t>(20 + payload),
                                 chunk_end}) {
    for (const int delta : {-1, 0, 1}) {
      if (delta < 0 && base == 0) continue;
      const std::size_t cut = base + static_cast<std::size_t>(delta);
      if (cut < chunk_end) cuts.insert(cut);  // == chunk_end is a VALID file
    }
  }
  cuts.insert(20 + payload + 3);  // a cut mid-CRC
  for (const std::size_t cut : cuts) {
    SCOPED_TRACE("cut=" + std::to_string(cut));
    expect_rejected(
        to_string(util::chaos::truncated(byte_span(encoded_), cut)));
  }
}

TEST_F(MachineCheckpointDefects, SingleBitFlipAnywhereInChunkRejected) {
  // Bit-flip fuzz over the whole machine chunk -- magic, version, size
  // field, payload, CRC -- via the chaos corruption helper.  Offsets come
  // from a dedicated substream plus the structural corners, so the sweep
  // is reproducible and covers every frame region.
  const std::uint64_t payload = le_u64_at(encoded_, 12);
  const std::uint64_t chunk_bits = (20 + payload + 8) * 8;

  std::set<std::uint64_t> bits = {0,           63,                // magic
                                  8 * 8,       12 * 8 - 1,        // version
                                  12 * 8,      20 * 8 - 1,        // size
                                  20 * 8,      (20 + payload) * 8 - 1,
                                  (20 + payload) * 8, chunk_bits - 1};  // crc
  util::Rng fuzz = util::Rng::for_stream(0xF1195u, 3);
  while (bits.size() < 48) bits.insert(fuzz.next() % chunk_bits);

  for (const std::uint64_t bit : bits) {
    SCOPED_TRACE("bit=" + std::to_string(bit));
    expect_rejected(
        to_string(util::chaos::bit_flipped(byte_span(encoded_), bit)));
  }
}

// ---------------------------------------------------------------------------
// Resumable lifetime campaigns

rel::LifetimeConfig lifetime_config() {
  rel::LifetimeConfig config;
  config.n = 60;
  config.m = 15;
  config.crossbars = 2;
  config.fit_per_bit = 5e4;  // high SER so most trials fail in-horizon
  config.scrub_period_hours = 24.0;
  config.trials = 40;
  config.max_hours = 1e6;
  return config;
}

void expect_results_equal(const rel::LifetimeResult& a,
                          const rel::LifetimeResult& b) {
  EXPECT_EQ(a.trials, b.trials);
  EXPECT_EQ(a.failures, b.failures);
  EXPECT_EQ(a.scrubs_performed, b.scrubs_performed);
  EXPECT_EQ(a.errors_corrected, b.errors_corrected);
  EXPECT_EQ(a.time_to_failure_hours.count(), b.time_to_failure_hours.count());
  EXPECT_EQ(a.time_to_failure_hours.sum(), b.time_to_failure_hours.sum());
  EXPECT_EQ(a.time_to_failure_hours.min(), b.time_to_failure_hours.min());
  EXPECT_EQ(a.time_to_failure_hours.max(), b.time_to_failure_hours.max());
}

TEST(LifetimeResume, ChunkedSerializedRunIsBitIdentical) {
  const rel::LifetimeConfig config = lifetime_config();

  util::Rng straight_rng(31337);
  const rel::LifetimeResult straight =
      rel::simulate_lifetime(config, straight_rng);
  ASSERT_GT(straight.failures, 0u);

  // Same campaign in uneven chunks, serialized to bytes and reloaded
  // between every chunk, each chunk at a different thread count.
  util::Rng chunked_rng(31337);
  rel::LifetimeProgress progress = rel::begin_lifetime(config, chunked_rng);
  const std::size_t chunks[] = {1, 7, 2, 13, 0};  // 0 = all remaining
  const std::size_t threads[] = {1, 3, 2, 4, 0};
  std::size_t step = 0;
  while (!rel::lifetime_complete(config, progress)) {
    rel::LifetimeConfig chunk_config = config;
    chunk_config.threads = threads[step % 5];
    (void)rel::advance_lifetime(chunk_config, progress, chunks[step % 5]);
    ++step;

    std::stringstream stream;
    rel::save_lifetime_checkpoint(stream, config, progress);
    progress = rel::load_lifetime_checkpoint(stream, config);
  }
  expect_results_equal(straight, rel::lifetime_result(progress));
  // Both paths drew exactly one base seed from their RNG.
  EXPECT_EQ(straight_rng.state(), chunked_rng.state());
}

TEST(LifetimeResume, ThreadsFieldIsNotPartOfTheFingerprint) {
  const rel::LifetimeConfig config = lifetime_config();
  util::Rng rng(9);
  rel::LifetimeProgress progress = rel::begin_lifetime(config, rng);
  (void)rel::advance_lifetime(config, progress, 5);

  std::stringstream stream;
  rel::save_lifetime_checkpoint(stream, config, progress);
  rel::LifetimeConfig reloaded_config = config;
  reloaded_config.threads = 8;  // pure perf knob: must still load
  const rel::LifetimeProgress reloaded =
      rel::load_lifetime_checkpoint(stream, reloaded_config);
  EXPECT_EQ(reloaded.trials_done, progress.trials_done);
  EXPECT_EQ(reloaded.base_seed, progress.base_seed);
}

TEST(LifetimeResume, ConfigMismatchRejected) {
  const rel::LifetimeConfig config = lifetime_config();
  util::Rng rng(9);
  rel::LifetimeProgress progress = rel::begin_lifetime(config, rng);
  (void)rel::advance_lifetime(config, progress, 5);
  std::stringstream stream;
  rel::save_lifetime_checkpoint(stream, config, progress);
  const std::string encoded = stream.str();

  auto expect_mismatch = [&](rel::LifetimeConfig bad) {
    std::istringstream in(encoded);
    EXPECT_THROW((void)rel::load_lifetime_checkpoint(in, bad), SerializeError);
  };
  rel::LifetimeConfig bad = config;
  bad.trials += 1;
  expect_mismatch(bad);
  bad = config;
  bad.fit_per_bit *= 2.0;
  expect_mismatch(bad);
  bad = config;
  bad.crossbars += 1;
  expect_mismatch(bad);
  bad = config;
  bad.include_check_bits = !bad.include_check_bits;
  expect_mismatch(bad);
}

TEST(LifetimeResume, CorruptProgressRejected) {
  const rel::LifetimeConfig config = lifetime_config();
  util::Rng rng(9);
  rel::LifetimeProgress progress = rel::begin_lifetime(config, rng);
  (void)rel::advance_lifetime(config, progress, 10);
  std::stringstream stream;
  rel::save_lifetime_checkpoint(stream, config, progress);
  const std::string encoded = stream.str();

  // Any byte flip anywhere must be caught (CRC or semantic validation).
  for (std::size_t i = 0; i < encoded.size(); i += 9) {
    std::string bad = encoded;
    bad[i] = static_cast<char>(bad[i] ^ 0x04);
    std::istringstream in(bad);
    EXPECT_THROW((void)rel::load_lifetime_checkpoint(in, config),
                 SerializeError)
        << "byte " << i;
  }
}

}  // namespace
}  // namespace pimecc
