// Chaos-injection suite for the crash-safety layer: the deterministic I/O fault
// injector itself (oracle/chaos_backend), the rotated crash-safe checkpoint
// store built on it (util/ckpt_store), and the end-to-end acceptance property
// -- a checkpointed lifetime campaign killed at an arbitrary torn-write point
// resumes from the latest valid generation and finishes bit-identical to an
// uninterrupted run.  Every failure is armed explicitly (no clocks, no
// entropy), so each scenario reproduces from the test source alone; fuzzed
// offsets come from util::Rng substreams, the same discipline as the rest of
// the suite.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "oracle/chaos_backend.hpp"
#include "reliability/lifetime.hpp"
#include "util/ckpt_store.hpp"
#include "util/rng.hpp"

namespace pimecc {
namespace {

namespace chaos = util::chaos;

std::vector<std::uint8_t> bytes_of(std::string_view text) {
  return std::vector<std::uint8_t>(text.begin(), text.end());
}

std::span<const std::uint8_t> span_of(const std::vector<std::uint8_t>& bytes) {
  return std::span<const std::uint8_t>(bytes.data(), bytes.size());
}

/// Unique per-test path under gtest's temp dir.
std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "pimecc_chaos_" + name;
}

// ---------------------------------------------------------------------------
// Pure corruption helpers

TEST(Chaos, TruncatedKeepsExactPrefix) {
  const auto bytes = bytes_of("abcdef");
  EXPECT_EQ(chaos::truncated(span_of(bytes), 0).size(), 0u);
  EXPECT_EQ(chaos::truncated(span_of(bytes), 3), bytes_of("abc"));
  EXPECT_EQ(chaos::truncated(span_of(bytes), 6), bytes);
  EXPECT_EQ(chaos::truncated(span_of(bytes), 100), bytes);  // beyond: whole
}

TEST(Chaos, BitFlippedFlipsExactlyOneBit) {
  const std::vector<std::uint8_t> bytes = {0x00, 0x00};
  const auto flipped = chaos::bit_flipped(span_of(bytes), 9);
  EXPECT_EQ(flipped[0], 0x00);
  EXPECT_EQ(flipped[1], 0x02);  // bit 9 = bit 1 of byte 1
  // Involution: flipping again restores the original.
  EXPECT_EQ(chaos::bit_flipped(span_of(flipped), 9), bytes);
  EXPECT_THROW((void)chaos::bit_flipped(span_of(bytes), 16), std::out_of_range);
}

// ---------------------------------------------------------------------------
// Real backend + chaos backend

TEST(Chaos, RealBackendRoundTripsAndReportsMissing) {
  chaos::FileBackend& real = chaos::real_file_backend();
  const std::string path = temp_path("real_roundtrip");
  const auto payload = bytes_of("durable payload");
  real.write_file(path, span_of(payload));
  ASSERT_TRUE(real.exists(path));
  std::vector<std::uint8_t> read;
  ASSERT_TRUE(real.read_file(path, read));
  EXPECT_EQ(read, payload);
  real.remove_file(path);
  EXPECT_FALSE(real.exists(path));
  EXPECT_FALSE(real.read_file(path, read));
  real.remove_file(path);  // missing: still not an error
}

TEST(Chaos, TornWriteLeavesPrefixAndThrows) {
  chaos::ChaosBackend backend;
  const std::string path = temp_path("torn");
  const auto payload = bytes_of("0123456789");
  backend.plan().tear_after = 4;
  EXPECT_THROW(backend.write_file(path, span_of(payload)), chaos::IoError);
  std::vector<std::uint8_t> read;
  ASSERT_TRUE(backend.read_file(path, read));
  EXPECT_EQ(read, bytes_of("0123"));  // exactly the torn prefix reached disk
  EXPECT_EQ(backend.log().writes_torn, 1u);
  // One-shot: the next write goes through whole.
  backend.write_file(path, span_of(payload));
  ASSERT_TRUE(backend.read_file(path, read));
  EXPECT_EQ(read, payload);
  backend.remove_file(path);
}

TEST(Chaos, CorruptBitSucceedsSilently) {
  chaos::ChaosBackend backend;
  const std::string path = temp_path("corrupt");
  const auto payload = bytes_of("AAAA");
  backend.plan().corrupt_bit = 0;
  EXPECT_NO_THROW(backend.write_file(path, span_of(payload)));  // "succeeds"
  std::vector<std::uint8_t> read;
  ASSERT_TRUE(backend.read_file(path, read));
  EXPECT_EQ(read, chaos::bit_flipped(span_of(payload), 0));
  EXPECT_EQ(backend.log().bits_corrupted, 1u);
  backend.remove_file(path);
}

TEST(Chaos, ShortReadTruncatesOnce) {
  chaos::ChaosBackend backend;
  const std::string path = temp_path("short_read");
  const auto payload = bytes_of("full content");
  backend.write_file(path, span_of(payload));
  backend.plan().short_read = 4;
  std::vector<std::uint8_t> read;
  ASSERT_TRUE(backend.read_file(path, read));
  EXPECT_EQ(read, bytes_of("full"));
  EXPECT_EQ(backend.log().reads_shortened, 1u);
  ASSERT_TRUE(backend.read_file(path, read));  // one-shot: next read is whole
  EXPECT_EQ(read, payload);
  backend.remove_file(path);
}

TEST(Chaos, TransientOpenFailuresAreCountedAndConsumed) {
  chaos::ChaosBackend backend;
  const std::string path = temp_path("open_fail");
  const auto payload = bytes_of("x");
  backend.plan().fail_opens = 2;
  EXPECT_THROW(backend.write_file(path, span_of(payload)), chaos::IoError);
  EXPECT_THROW(backend.write_file(path, span_of(payload)), chaos::IoError);
  EXPECT_FALSE(backend.exists(path));  // failed before creating anything
  EXPECT_NO_THROW(backend.write_file(path, span_of(payload)));
  EXPECT_EQ(backend.log().opens_failed, 2u);
  EXPECT_EQ(backend.log().faults_injected(), 2u);
  backend.remove_file(path);
}

// ---------------------------------------------------------------------------
// CheckpointStore: rotation, recovery, retry

util::CheckpointStore::Validator accept_all() {
  return [](std::span<const std::uint8_t>) { return true; };
}

TEST(CkptStore, RejectsEmptyPathAndZeroGenerations) {
  EXPECT_THROW(util::CheckpointStore("", {}, nullptr), std::invalid_argument);
  util::CheckpointStore::Options bad;
  bad.generations = 0;
  EXPECT_THROW(util::CheckpointStore(temp_path("opts"), bad, nullptr),
               std::invalid_argument);
}

TEST(CkptStore, SaveRotatesNewestFirstAndBoundsGenerations) {
  chaos::ChaosBackend backend;
  util::CheckpointStore::Options options;
  options.generations = 3;
  util::CheckpointStore store(temp_path("rotate"), options, &backend);
  for (int i = 1; i <= 4; ++i) {
    const auto image = bytes_of("snapshot " + std::to_string(i));
    store.save(span_of(image));
  }
  std::vector<std::uint8_t> read;
  ASSERT_TRUE(backend.read_file(store.generation_path(1), read));
  EXPECT_EQ(read, bytes_of("snapshot 4"));
  ASSERT_TRUE(backend.read_file(store.generation_path(2), read));
  EXPECT_EQ(read, bytes_of("snapshot 3"));
  ASSERT_TRUE(backend.read_file(store.generation_path(3), read));
  EXPECT_EQ(read, bytes_of("snapshot 2"));
  // The window is bounded: snapshot 1 rotated out, no stray temp file.
  EXPECT_FALSE(backend.exists(store.generation_path(4)));
  EXPECT_FALSE(backend.exists(store.temp_path()));
  for (std::size_t g = 1; g <= 3; ++g) backend.remove_file(store.generation_path(g));
}

TEST(CkptStore, RecoverPrefersNewestAndCountsRejections) {
  chaos::ChaosBackend backend;
  util::CheckpointStore store(temp_path("recover"), {}, &backend);
  store.save(span_of(bytes_of("old")));
  store.save(span_of(bytes_of("mid")));
  store.save(span_of(bytes_of("new")));

  auto newest = store.recover(accept_all());
  ASSERT_TRUE(newest.has_value());
  EXPECT_EQ(newest->bytes, bytes_of("new"));
  EXPECT_EQ(newest->generation, 1u);
  EXPECT_EQ(newest->rejected, 0u);

  // A validator refusing the newest generation falls back one; a THROWING
  // validator (what a decoder does on a corrupt image) counts the same.
  auto fallback = store.recover([](std::span<const std::uint8_t> bytes) {
    if (bytes.size() == 3 && bytes[0] == 'n') {
      throw std::runtime_error("decoder rejects");
    }
    return true;
  });
  ASSERT_TRUE(fallback.has_value());
  EXPECT_EQ(fallback->bytes, bytes_of("mid"));
  EXPECT_EQ(fallback->generation, 2u);
  EXPECT_EQ(fallback->rejected, 1u);

  auto none = store.recover([](std::span<const std::uint8_t>) { return false; });
  EXPECT_FALSE(none.has_value());
  for (std::size_t g = 1; g <= 3; ++g) backend.remove_file(store.generation_path(g));
}

TEST(CkptStore, LegacyBareFileIsTheLastResort) {
  chaos::ChaosBackend backend;
  const std::string base = temp_path("legacy");
  // The pre-rotation layout: a single checkpoint at the bare base path.
  backend.write_file(base, span_of(bytes_of("legacy image")));
  util::CheckpointStore store(base, {}, &backend);
  auto recovered = store.recover(accept_all());
  ASSERT_TRUE(recovered.has_value());
  EXPECT_EQ(recovered->bytes, bytes_of("legacy image"));
  EXPECT_EQ(recovered->generation, 0u);
  // Any rotated generation outranks it.
  store.save(span_of(bytes_of("rotated image")));
  recovered = store.recover(accept_all());
  ASSERT_TRUE(recovered.has_value());
  EXPECT_EQ(recovered->bytes, bytes_of("rotated image"));
  EXPECT_EQ(recovered->generation, 1u);
  backend.remove_file(base);
  backend.remove_file(store.generation_path(1));
}

TEST(CkptStore, TransientFailuresRetryWithBackoffThenSucceed) {
  chaos::ChaosBackend backend;
  util::CheckpointStore::Options options;
  options.retries = 3;
  util::CheckpointStore store(temp_path("retry"), options, &backend);
  backend.plan().fail_opens = 2;  // two transient failures, then clean
  EXPECT_NO_THROW(store.save(span_of(bytes_of("eventually durable"))));
  EXPECT_EQ(backend.log().opens_failed, 2u);
  EXPECT_EQ(backend.log().backoffs, 2u);  // one backoff per failed attempt
  auto recovered = store.recover(accept_all());
  ASSERT_TRUE(recovered.has_value());
  EXPECT_EQ(recovered->bytes, bytes_of("eventually durable"));
  backend.remove_file(store.generation_path(1));
}

TEST(CkptStore, PersistentFailureThrowsAndPreservesGenerations) {
  chaos::ChaosBackend backend;
  util::CheckpointStore::Options options;
  options.retries = 2;
  util::CheckpointStore store(temp_path("persistent"), options, &backend);
  store.save(span_of(bytes_of("good snapshot")));
  backend.plan().fail_opens = 100;  // more than the retry budget
  EXPECT_THROW(store.save(span_of(bytes_of("never lands"))), chaos::IoError);
  // The failed save changed NOTHING: the good generation is intact and no
  // temp file leaks.
  auto recovered = store.recover(accept_all());
  ASSERT_TRUE(recovered.has_value());
  EXPECT_EQ(recovered->bytes, bytes_of("good snapshot"));
  EXPECT_EQ(recovered->generation, 1u);
  EXPECT_FALSE(backend.exists(store.temp_path()));
  backend.plan().fail_opens = 0;
  backend.remove_file(store.generation_path(1));
}

TEST(CkptStore, CrashMidWriteNeverLosesThePreviousSnapshot) {
  // A torn temp write (the crash/disk-full scenario) with no retry budget:
  // the save fails, but the previously published generation is untouched
  // because the store never renames anything before the temp is durable.
  chaos::ChaosBackend backend;
  util::CheckpointStore::Options options;
  options.retries = 0;
  util::CheckpointStore store(temp_path("crash_mid_write"), options, &backend);
  store.save(span_of(bytes_of("previous good")));
  backend.plan().tear_after = 5;
  EXPECT_THROW(store.save(span_of(bytes_of("torn next snapshot"))),
               chaos::IoError);
  auto recovered = store.recover(accept_all());
  ASSERT_TRUE(recovered.has_value());
  EXPECT_EQ(recovered->bytes, bytes_of("previous good"));
  EXPECT_FALSE(backend.exists(store.temp_path()));  // torn temp cleaned up
  backend.remove_file(store.generation_path(1));
}

TEST(CkptStore, RenameFailureLeavesRecoverableState) {
  chaos::ChaosBackend backend;
  util::CheckpointStore::Options options;
  options.retries = 0;
  util::CheckpointStore store(temp_path("rename_fail"), options, &backend);
  store.save(span_of(bytes_of("gen one")));
  backend.plan().fail_rename = true;
  EXPECT_THROW(store.save(span_of(bytes_of("gen two"))), chaos::IoError);
  // Whatever rename the fault hit, some complete good snapshot survives
  // under a name the recovery scan covers.
  auto recovered = store.recover(accept_all());
  ASSERT_TRUE(recovered.has_value());
  EXPECT_EQ(recovered->bytes, bytes_of("gen one"));
  for (std::size_t g = 0; g <= 3; ++g) backend.remove_file(store.generation_path(g));
  backend.remove_file(store.temp_path());
}

TEST(CkptStore, SilentBitCorruptionIsCaughtByTheValidator) {
  // corrupt_bit models media corruption the write syscall cannot see: the
  // save "succeeds", and only validate-at-recovery (CRC in the real
  // decoders) can reject the generation.  With an older good generation
  // present, recovery falls back instead of failing.
  chaos::ChaosBackend backend;
  util::CheckpointStore store(temp_path("silent_bit"), {}, &backend);
  const auto good = bytes_of("framed snapshot bytes");
  store.save(span_of(good));
  backend.plan().corrupt_bit = 13;
  store.save(span_of(good));  // lands corrupted, reported as success
  auto recovered = store.recover([&](std::span<const std::uint8_t> bytes) {
    return std::vector<std::uint8_t>(bytes.begin(), bytes.end()) == good;
  });
  ASSERT_TRUE(recovered.has_value());
  EXPECT_EQ(recovered->generation, 2u);  // newest rejected, fallback accepted
  EXPECT_EQ(recovered->rejected, 1u);
  for (std::size_t g = 1; g <= 2; ++g) backend.remove_file(store.generation_path(g));
}

// ---------------------------------------------------------------------------
// Acceptance: torn-write kill + resume of a checkpointed lifetime campaign

rel::LifetimeConfig chaos_lifetime_config() {
  rel::LifetimeConfig config;
  config.n = 60;
  config.m = 15;
  config.crossbars = 2;
  config.fit_per_bit = 5e4;
  config.scrub_period_hours = 24.0;
  config.trials = 30;
  config.max_hours = 1e6;
  return config;
}

std::vector<std::uint8_t> encode_progress(const rel::LifetimeConfig& config,
                                          const rel::LifetimeProgress& progress) {
  std::ostringstream out(std::ios::binary);
  rel::save_lifetime_checkpoint(out, config, progress);
  const std::string blob = out.str();
  return std::vector<std::uint8_t>(blob.begin(), blob.end());
}

util::CheckpointStore::Validator lifetime_validator(
    const rel::LifetimeConfig& config, rel::LifetimeProgress& out) {
  return [&config, &out](std::span<const std::uint8_t> bytes) {
    std::istringstream in(
        std::string(reinterpret_cast<const char*>(bytes.data()), bytes.size()),
        std::ios::binary);
    out = rel::load_lifetime_checkpoint(in, config);  // throws on any defect
    return true;
  };
}

void expect_results_equal(const rel::LifetimeResult& a,
                          const rel::LifetimeResult& b) {
  EXPECT_EQ(a.trials, b.trials);
  EXPECT_EQ(a.failures, b.failures);
  EXPECT_EQ(a.scrubs_performed, b.scrubs_performed);
  EXPECT_EQ(a.errors_corrected, b.errors_corrected);
  EXPECT_EQ(a.time_to_failure_hours.count(), b.time_to_failure_hours.count());
  EXPECT_EQ(a.time_to_failure_hours.sum(), b.time_to_failure_hours.sum());
}

TEST(ChaosRecovery, TornCampaignResumesBitIdenticalAtArbitraryTearPoints) {
  const rel::LifetimeConfig config = chaos_lifetime_config();

  // Ground truth: one uninterrupted campaign.
  util::Rng straight_rng(8080);
  const rel::LifetimeResult straight =
      rel::simulate_lifetime(config, straight_rng);
  ASSERT_GT(straight.failures, 0u);

  // Fuzzed tear offsets from a dedicated substream (plus the structural
  // extremes), each one a distinct "the process died mid-checkpoint" run.
  util::Rng fuzz = util::Rng::for_stream(0xC4A05u, 1);
  std::vector<std::uint64_t> tear_points = {0, 1, 19, 20};
  for (int i = 0; i < 4; ++i) tear_points.push_back(21 + fuzz.next() % 200);

  for (const std::uint64_t tear : tear_points) {
    chaos::ChaosBackend backend;
    util::CheckpointStore::Options options;
    options.retries = 0;  // a "crash" never retries
    util::CheckpointStore store(
        temp_path("resume_" + std::to_string(tear)), options, &backend);

    // Phase 1: the doomed process -- checkpoint every chunk, die on the
    // third save with a torn write at byte `tear`.
    util::Rng doomed_rng(8080);
    rel::LifetimeProgress progress = rel::begin_lifetime(config, doomed_rng);
    bool died = false;
    std::size_t saves = 0;
    while (!rel::lifetime_complete(config, progress)) {
      rel::advance_lifetime(config, progress, 7);
      ++saves;
      if (saves == 3) backend.plan().tear_after = tear;
      try {
        const auto blob = encode_progress(config, progress);
        store.save(span_of(blob));
      } catch (const chaos::IoError&) {
        died = true;  // process killed mid-write; in-memory progress lost
        break;
      }
    }
    ASSERT_TRUE(died) << "tear=" << tear;

    // Phase 2: the restarted process -- recover the newest generation that
    // still decodes, resume, and run to completion.
    rel::LifetimeProgress resumed;
    const auto recovered =
        store.recover(lifetime_validator(config, resumed));
    ASSERT_TRUE(recovered.has_value()) << "tear=" << tear;
    EXPECT_LT(resumed.trials_done, config.trials);
    while (!rel::lifetime_complete(config, resumed)) {
      rel::advance_lifetime(config, resumed, 7);
      const auto blob = encode_progress(config, resumed);
      store.save(span_of(blob));
    }
    expect_results_equal(straight, rel::lifetime_result(resumed));

    for (std::size_t g = 0; g <= 3; ++g) {
      backend.remove_file(store.generation_path(g));
    }
    backend.remove_file(store.temp_path());
  }
}

}  // namespace
}  // namespace pimecc
