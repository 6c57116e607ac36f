// Fleet engine differential suite: every CrossbarFleet bulk entry point is
// pinned against a serial loop over independent single-crossbar ArrayCode
// engines, and the fleet Monte Carlo is pinned BIT-IDENTICAL to the flat
// single-crossbar run_montecarlo at several shard factorizations and lane
// counts -- the contract that lets bench_fleet_throughput gate its exit
// status on exact equality.
#include <gtest/gtest.h>

#include <cstddef>
#include <stdexcept>
#include <vector>

#include "arch/fleet.hpp"
#include "core/array_code.hpp"
#include "reliability/fleet_reliability.hpp"
#include "reliability/montecarlo.hpp"
#include "util/bitmatrix.hpp"
#include "util/rng.hpp"

namespace pimecc {
namespace {

arch::FleetParams tiny_fleet(std::size_t shards, std::size_t threads = 0) {
  arch::FleetParams params;
  params.n = 15;
  params.m = 5;
  params.shards = shards;
  params.threads = threads;
  return params;
}

TEST(FleetParams, ValidateRejectsBadShapes) {
  EXPECT_THROW(tiny_fleet(0).validate(), std::invalid_argument);
  arch::FleetParams bad_m = tiny_fleet(4);
  bad_m.m = 4;  // even m
  EXPECT_THROW(bad_m.validate(), std::invalid_argument);
  bad_m.m = 7;  // does not divide n
  EXPECT_THROW(bad_m.validate(), std::invalid_argument);
  EXPECT_NO_THROW(tiny_fleet(1).validate());
}

TEST(Fleet, TranslateRoundTripsShardMajorAddresses) {
  arch::CrossbarFleet fleet(tiny_fleet(3));
  const std::uint64_t cells = 15u * 15u;
  EXPECT_EQ(fleet.params().data_bits(), 3u * cells);
  const arch::FleetAddress first = fleet.translate(0);
  EXPECT_EQ(first, (arch::FleetAddress{0, 0, 0}));
  const arch::FleetAddress last = fleet.translate(3 * cells - 1);
  EXPECT_EQ(last, (arch::FleetAddress{2, 14, 14}));
  const arch::FleetAddress mid = fleet.translate(cells + 17);
  EXPECT_EQ(mid, (arch::FleetAddress{1, 1, 2}));
  EXPECT_THROW(fleet.translate(3 * cells), std::out_of_range);
}

TEST(Fleet, LoadRandomMatchesPerShardSubstreamsAndDrawsOnce) {
  arch::CrossbarFleet fleet(tiny_fleet(5));
  util::Rng rng(101);
  fleet.load_random(rng);
  // Exactly one draw: the caller's stream continues as if load_random had
  // drawn a single value.
  util::Rng expect_rng(101);
  const std::uint64_t base_seed = expect_rng.next();
  EXPECT_EQ(rng.next(), expect_rng.next());
  // Shard s's image comes from substream s with the fill_random word
  // discipline; check bits must already be consistent.
  for (std::size_t s = 0; s < 5; ++s) {
    util::Rng shard_rng = util::Rng::for_stream(base_seed, s);
    util::BitMatrix image(15, 15);
    for (auto& row : image.rows_span()) util::fill_random(row, shard_rng);
    EXPECT_EQ(fleet.data(s), image) << "shard " << s;
    EXPECT_TRUE(fleet.code(s).consistent_with(fleet.data(s)));
  }
  EXPECT_TRUE(fleet.all_consistent());
  // Distinct shards, distinct images (overwhelmingly likely at 225 bits).
  EXPECT_NE(fleet.data(0), fleet.data(1));
}

TEST(Fleet, LoadRandomIsWorkerCountInvariant) {
  arch::CrossbarFleet serial(tiny_fleet(6, /*threads=*/1));
  arch::CrossbarFleet wide(tiny_fleet(6, /*threads=*/0));
  util::Rng rng_a(7);
  util::Rng rng_b(7);
  serial.load_random(rng_a);
  wide.load_random(rng_b);
  for (std::size_t s = 0; s < 6; ++s) {
    ASSERT_EQ(serial.data(s), wide.data(s)) << "shard " << s;
  }
}

TEST(Fleet, ScrubMatchesIndependentSingleCrossbarEngines) {
  // Differential: the fleet scrub must agree, shard for shard and in
  // aggregate, with a serial loop over independent ArrayCode engines
  // running the identical images and injected faults.
  arch::CrossbarFleet fleet(tiny_fleet(4));
  util::Rng rng(23);
  fleet.load_random(rng);
  std::vector<util::BitMatrix> mirror_data;
  std::vector<ecc::ArrayCode> mirror_codes;
  for (std::size_t s = 0; s < 4; ++s) {
    mirror_data.push_back(fleet.data(s));
    mirror_codes.emplace_back(15, 5);
    mirror_codes.back().encode_all(mirror_data.back());
  }
  // One correctable error per shard plus a two-bit block in shard 2.
  for (std::size_t s = 0; s < 4; ++s) {
    fleet.inject_data_error(s, 3, 3);
    mirror_data[s].flip(3, 3);
  }
  fleet.inject_data_error(2, 0, 0);
  fleet.inject_data_error(2, 0, 1);
  mirror_data[2].flip(0, 0);
  mirror_data[2].flip(0, 1);

  const arch::FleetScrubReport report = fleet.scrub_all();
  arch::FleetScrubReport expect;
  for (std::size_t s = 0; s < 4; ++s) {
    const ecc::ScrubReport r = mirror_codes[s].scrub(mirror_data[s]);
    ++expect.shards_checked;
    expect.blocks_checked += r.blocks_checked;
    expect.clean += r.clean;
    expect.corrected_data += r.corrected_data;
    expect.corrected_check += r.corrected_check;
    expect.uncorrectable += r.uncorrectable;
  }
  EXPECT_EQ(report, expect);
  // Post-scrub images agree bit for bit with the mirrors.
  for (std::size_t s = 0; s < 4; ++s) {
    EXPECT_EQ(fleet.data(s), mirror_data[s]) << "shard " << s;
  }
  // Counters recorded the pass and the injections.
  const arch::ShardCounters totals = fleet.total_counters();
  EXPECT_EQ(totals.scrub_passes, 4u);
  EXPECT_EQ(totals.injected_faults, 6u);
  EXPECT_EQ(totals.corrected_data, report.corrected_data);
  EXPECT_EQ(totals.uncorrectable, report.uncorrectable);
}

TEST(Fleet, InjectRandomErrorsIsDeterministicAndDistinct) {
  arch::CrossbarFleet fleet_a(tiny_fleet(3));
  arch::CrossbarFleet fleet_b(tiny_fleet(3));
  util::Rng rng_a(55);
  util::Rng rng_b(55);
  fleet_a.load_random(rng_a);
  fleet_b.load_random(rng_b);
  const auto flips_a = fleet_a.inject_random_errors(rng_a, 40);
  const auto flips_b = fleet_b.inject_random_errors(rng_b, 40);
  ASSERT_EQ(flips_a.size(), 40u);
  EXPECT_EQ(flips_a, flips_b);
  for (std::size_t i = 1; i < flips_a.size(); ++i) {
    EXPECT_FALSE(flips_a[i] == flips_a[i - 1]);  // sorted distinct addresses
  }
  for (std::size_t s = 0; s < 3; ++s) {
    EXPECT_EQ(fleet_a.data(s), fleet_b.data(s));
  }
  EXPECT_THROW(
      fleet_a.inject_random_errors(rng_a, fleet_a.params().data_bits() + 1),
      std::invalid_argument);
}

TEST(Fleet, BroadcastThenEncodeKeepsEveryShardConsistent) {
  arch::CrossbarFleet fleet(tiny_fleet(4));
  util::Rng rng(9);
  const util::BitMatrix image = util::random_bit_matrix(15, 15, rng);
  fleet.load_broadcast(image);
  for (std::size_t s = 0; s < 4; ++s) EXPECT_EQ(fleet.data(s), image);
  EXPECT_TRUE(fleet.all_consistent());
  fleet.inject_data_error(1, 2, 2);
  EXPECT_FALSE(fleet.all_consistent());
  const util::BitMatrix wrong_shape(10, 10);
  EXPECT_THROW(fleet.load_broadcast(wrong_shape), std::invalid_argument);
}

TEST(Fleet, ScrubTickCoversEveryActiveShardInOnePass) {
  // One pass of round-robin ticks repairs exactly what one scrub_all does,
  // images and counters alike; a dead shard's ticks check nothing.
  arch::CrossbarFleet ticked(tiny_fleet(4));
  arch::CrossbarFleet swept(tiny_fleet(4));
  util::Rng rng_a(6);
  util::Rng rng_b(6);
  ticked.load_random(rng_a);
  swept.load_random(rng_b);
  EXPECT_FALSE(ticked.quarantine_shard(3));  // no spare: shard 3 goes dead
  EXPECT_FALSE(swept.quarantine_shard(3));
  for (const std::size_t s : {0u, 1u, 2u}) {
    ticked.inject_data_error(s, 3 * s + 1, 2);
    swept.inject_data_error(s, 3 * s + 1, 2);
  }
  EXPECT_EQ(ticked.ticks_per_pass(), 4u * 3u);
  std::size_t blocks = 0;
  std::size_t corrected = 0;
  for (std::size_t t = 0; t < ticked.ticks_per_pass(); ++t) {
    const arch::CheckReport r = ticked.scrub_tick();
    if (t >= 3 * 3) {  // shard 3's ticks
      EXPECT_EQ(r, arch::CheckReport{}) << "tick " << t;
    }
    blocks += r.blocks_checked;
    corrected += r.corrected_data;
  }
  const arch::FleetScrubReport sweep = swept.scrub_all();
  EXPECT_EQ(blocks, sweep.blocks_checked);
  EXPECT_EQ(blocks, 3u * 9u);
  EXPECT_EQ(corrected, 3u);
  EXPECT_TRUE(ticked.all_consistent());
  for (const std::size_t s : {0u, 1u, 2u}) {
    EXPECT_EQ(ticked.data(s), swept.data(s)) << "shard " << s;
    EXPECT_EQ(ticked.counters(s), swept.counters(s)) << "shard " << s;
  }
  // The cursor wraps: the next tick is shard 0's first block-row again.
  EXPECT_EQ(ticked.scrub_tick().blocks_checked, 3u);
}

TEST(Fleet, MachineViewRunsTheProtocol) {
  // Protected compute through machine(s) keeps the bank consistent and is
  // indistinguishable from a standalone PimMachine on substream s's image.
  arch::CrossbarFleet fleet(tiny_fleet(3));
  util::Rng rng(88);
  fleet.load_random(rng);
  util::Rng expect_rng(88);
  const std::uint64_t base_seed = expect_rng.next();

  const std::size_t shard = 1;
  util::Rng shard_rng = util::Rng::for_stream(base_seed, shard);
  arch::PimMachine standalone(arch::ArchParams{15, 5});
  standalone.load(util::random_bit_matrix(15, 15, shard_rng));

  const std::size_t outs[2] = {12, 13};
  const std::size_t ins[2] = {0, 4};
  const std::size_t out_row[1] = {12};
  for (arch::PimMachine* machine : {&fleet.machine(shard), &standalone}) {
    machine->magic_init_rows_protected(outs);
    machine->magic_nor_rows_protected(ins, 12);
    machine->magic_nor_rows_protected(out_row, 13);
  }
  EXPECT_TRUE(fleet.all_consistent());
  const arch::PimMachine& view = fleet.machine(shard);
  EXPECT_EQ(view.data(), standalone.data());
  for (std::size_t br = 0; br < 3; ++br) {
    for (std::size_t bc = 0; bc < 3; ++bc) {
      EXPECT_EQ(view.check_code().check_bits({br, bc}),
                standalone.check_code().check_bits({br, bc}));
    }
  }
  EXPECT_EQ(view.counters(), standalone.counters());
  EXPECT_EQ(fleet.data(shard), standalone.data());  // the bank sees the result

  EXPECT_FALSE(fleet.quarantine_shard(2));
  EXPECT_THROW((void)fleet.machine(2), std::runtime_error);
  EXPECT_THROW((void)fleet.machine(fleet.shard_count()), std::out_of_range);
}

rel::FleetMonteCarloConfig fleet_mc(std::size_t shards,
                                    std::size_t trials_per_shard,
                                    std::size_t threads) {
  rel::FleetMonteCarloConfig config;
  config.n = 20;
  config.m = 5;
  config.fit_per_bit = 1e6;  // flips near-certain per trial
  config.window_hours = 24.0;
  config.shards = shards;
  config.trials_per_shard = trials_per_shard;
  config.threads = threads;
  return config;
}

TEST(FleetMonteCarlo, BitIdenticalToFlatSingleCrossbarRun) {
  // The tentpole cross-check: S shards x T trials/shard must equal a flat
  // run over S*T trials, counter for counter, because both walk the same
  // substream sequence over the same shared golden image.
  const rel::FleetMonteCarloConfig config = fleet_mc(8, 5, 2);
  util::Rng fleet_rng(77);
  const rel::FleetMonteCarloResult fleet =
      rel::run_fleet_montecarlo(config, fleet_rng);
  util::Rng flat_rng(77);
  const rel::MonteCarloResult flat = run_montecarlo(config.flat(), flat_rng);
  EXPECT_EQ(fleet.total, flat);
  EXPECT_EQ(fleet_rng.next(), flat_rng.next());  // same caller-stream advance
}

TEST(FleetMonteCarlo, ShardFactorizationDoesNotChangeTotals) {
  // 40 trials as 8x5, 4x10, 2x20, 40x1: identical totals every way.
  util::Rng rng_a(31);
  const rel::FleetMonteCarloResult base =
      rel::run_fleet_montecarlo(fleet_mc(8, 5, 0), rng_a);
  for (const auto& [shards, per_shard] :
       std::vector<std::pair<std::size_t, std::size_t>>{
           {4, 10}, {2, 20}, {40, 1}}) {
    util::Rng rng_b(31);
    const rel::FleetMonteCarloResult other =
        rel::run_fleet_montecarlo(fleet_mc(shards, per_shard, 0), rng_b);
    EXPECT_EQ(other.total, base.total) << shards << "x" << per_shard;
    EXPECT_EQ(other.shards.size(), shards);
  }
}

TEST(FleetMonteCarlo, EmptyShardsRunNothingAndDrawOnce) {
  util::Rng fleet_rng(5);
  const rel::FleetMonteCarloResult fleet =
      rel::run_fleet_montecarlo(fleet_mc(3, 0, 0), fleet_rng);
  EXPECT_EQ(fleet.total, rel::MonteCarloResult{});
  ASSERT_EQ(fleet.shards.size(), 3u);
  for (const rel::FleetShardOutcome& slot : fleet.shards) {
    EXPECT_EQ(slot, rel::FleetShardOutcome{});
  }
  util::Rng flat_rng(5);
  (void)rel::run_montecarlo(fleet_mc(3, 0, 0).flat(), flat_rng);
  EXPECT_EQ(fleet_rng.next(), flat_rng.next());
}

TEST(FleetMonteCarlo, LaneCountDoesNotChangeAnyResultBit) {
  util::Rng rng_serial(13);
  const rel::FleetMonteCarloResult serial =
      rel::run_fleet_montecarlo(fleet_mc(6, 4, 1), rng_serial);
  for (const std::size_t threads : {2u, 5u, 0u}) {
    util::Rng rng(13);
    const rel::FleetMonteCarloResult parallel =
        rel::run_fleet_montecarlo(fleet_mc(6, 4, threads), rng);
    EXPECT_EQ(parallel.total, serial.total) << "threads=" << threads;
    EXPECT_EQ(parallel.shards, serial.shards) << "threads=" << threads;
  }
}

TEST(FleetMonteCarlo, ShardSlotsSumToTotals) {
  util::Rng rng(3);
  const rel::FleetMonteCarloResult result =
      rel::run_fleet_montecarlo(fleet_mc(10, 3, 0), rng);
  ASSERT_EQ(result.shards.size(), 10u);
  rel::FleetShardOutcome sum;
  for (const rel::FleetShardOutcome& s : result.shards) {
    sum.stats.trials_with_errors += s.stats.trials_with_errors;
    sum.stats.trials_failed += s.stats.trials_failed;
    sum.stats.flips_injected += s.stats.flips_injected;
    sum.stats.blocks_failed += s.stats.blocks_failed;
  }
  EXPECT_EQ(sum.stats.trials_with_errors, result.total.trials_with_errors);
  EXPECT_EQ(sum.stats.trials_failed, result.total.trials_failed);
  EXPECT_EQ(sum.stats.flips_injected, result.total.flips_injected);
  EXPECT_EQ(sum.stats.blocks_failed, result.total.blocks_failed);
  EXPECT_EQ(result.total.trials, 30u);
  EXPECT_GT(result.total.trials_with_errors, 0u);
}

// ---------------------------------------------------------------------------
// Degraded mode: quarantine, spares, and exact campaign accounting

TEST(FleetDegraded, QuarantineWithoutSpareExcludesShardEverywhere) {
  arch::CrossbarFleet fleet(tiny_fleet(4));
  util::Rng rng(17);
  fleet.load_random(rng);

  EXPECT_FALSE(fleet.quarantine_shard(2));  // no spare: shard goes dead
  EXPECT_FALSE(fleet.shard_active(2));
  EXPECT_FALSE(fleet.quarantine_shard(2));  // already dead: no double count
  const arch::FleetHealth health = fleet.health();
  EXPECT_EQ(health.active, 3u);
  EXPECT_EQ(health.dead, 1u);
  EXPECT_EQ(health.quarantined, 1u);
  EXPECT_EQ(health.spares_available, 0u);
  EXPECT_EQ(health.spares_activated, 0u);

  // Dead shards have no backing: direct access throws, bulk ops skip.
  EXPECT_THROW((void)fleet.data(2), std::runtime_error);
  EXPECT_THROW((void)fleet.physical_shard(2), std::runtime_error);
  EXPECT_THROW(fleet.inject_data_error(2, 0, 0), std::runtime_error);
  EXPECT_EQ(fleet.scrub_all().shards_checked, 3u);
  EXPECT_TRUE(fleet.all_consistent());  // dead shards vacuously consistent

  // Random injection drops addresses landing on the dead shard but leaves
  // the draw order -- hence every survivor's flips -- unchanged.
  arch::CrossbarFleet mirror(tiny_fleet(4));
  util::Rng rng_a(29);
  util::Rng rng_b(29);
  fleet.load_random(rng_a);
  mirror.load_random(rng_b);
  const auto flips = fleet.inject_random_errors(rng_a, 60);
  const auto mirror_flips = mirror.inject_random_errors(rng_b, 60);
  EXPECT_LT(flips.size(), mirror_flips.size());  // shard 2's share dropped
  for (const arch::FleetAddress& addr : flips) {
    EXPECT_NE(addr.shard, 2u);
  }
  for (const std::size_t s : {0u, 1u, 3u}) {
    EXPECT_EQ(fleet.data(s), mirror.data(s)) << "shard " << s;
  }
}

TEST(FleetDegraded, SpareRemapReplaysTheLogicalShardsImage) {
  arch::FleetParams params = tiny_fleet(4);
  params.spares = 2;
  arch::CrossbarFleet fleet(params);

  EXPECT_TRUE(fleet.quarantine_shard(1));  // respared, still active
  EXPECT_TRUE(fleet.shard_active(1));
  EXPECT_EQ(fleet.physical_shard(1), 4u);  // first spare slot activates first
  const arch::FleetHealth health = fleet.health();
  EXPECT_EQ(health.active, 4u);
  EXPECT_EQ(health.dead, 0u);
  EXPECT_EQ(health.quarantined, 1u);
  EXPECT_EQ(health.spares_available, 1u);
  EXPECT_EQ(health.spares_activated, 1u);

  // Substreams are logical-shard-indexed: after a reload the respared
  // shard carries the exact image its retired predecessor would have.
  arch::CrossbarFleet pristine(tiny_fleet(4));
  util::Rng rng_a(71);
  util::Rng rng_b(71);
  fleet.load_random(rng_a);
  pristine.load_random(rng_b);
  for (std::size_t s = 0; s < 4; ++s) {
    EXPECT_EQ(fleet.data(s), pristine.data(s)) << "shard " << s;
  }

  // Exhaust the pool: second quarantine respares, third goes dead.
  EXPECT_TRUE(fleet.quarantine_shard(3));
  EXPECT_EQ(fleet.physical_shard(3), 5u);
  EXPECT_FALSE(fleet.quarantine_shard(0));
  EXPECT_FALSE(fleet.shard_active(0));
  EXPECT_EQ(fleet.health().spares_available, 0u);
}

TEST(FleetDegraded, QuarantineUncorrectableTakesOnlyBrokenShards) {
  arch::CrossbarFleet fleet(tiny_fleet(4));
  util::Rng rng(43);
  fleet.load_random(rng);
  // Shard 0: one correctable flip.  Shard 2: a two-bit block (m=5 corrects
  // at most one data error per block -- uncorrectable).
  fleet.inject_data_error(0, 3, 3);
  fleet.inject_data_error(2, 0, 0);
  fleet.inject_data_error(2, 0, 1);

  const std::vector<std::size_t> quarantined = fleet.quarantine_uncorrectable();
  EXPECT_EQ(quarantined, (std::vector<std::size_t>{2}));
  EXPECT_TRUE(fleet.shard_active(0));  // corrected in the preflight scrub
  EXPECT_FALSE(fleet.shard_active(2));
  EXPECT_TRUE(fleet.all_consistent());
  // Nothing broken, nothing quarantined on a second pass.
  EXPECT_TRUE(fleet.quarantine_uncorrectable().empty());
}

arch::FleetParams campaign_fleet(std::size_t shards, std::size_t spares = 0) {
  arch::FleetParams params;
  params.n = 20;
  params.m = 5;
  params.shards = shards;
  params.spares = spares;
  return params;
}

TEST(FleetCampaign, HealthyFleetIsBitIdenticalToTheFlatEngine) {
  const rel::FleetMonteCarloConfig config = fleet_mc(6, 4, 0);
  arch::CrossbarFleet fleet(campaign_fleet(6));
  util::Rng campaign_rng(91);
  const rel::FleetCampaignResult campaign =
      rel::run_fleet_campaign(config, fleet, campaign_rng);
  EXPECT_FALSE(campaign.degradation.degraded());

  util::Rng flat_rng(91);
  const rel::FleetMonteCarloResult flat =
      rel::run_fleet_montecarlo(config, flat_rng);
  EXPECT_EQ(campaign.total, flat.total);
  EXPECT_EQ(campaign.shards, flat.shards);
  EXPECT_EQ(campaign_rng.next(), flat_rng.next());
}

TEST(FleetCampaign, ResparedShardRunsBitIdenticalToHealthy) {
  const rel::FleetMonteCarloConfig config = fleet_mc(6, 4, 0);
  arch::CrossbarFleet fleet(campaign_fleet(6, /*spares=*/1));
  // An uncorrectable two-bit block in shard 3 before the campaign: the
  // preflight scrub must quarantine it onto the spare.
  fleet.inject_data_error(3, 0, 0);
  fleet.inject_data_error(3, 0, 1);

  util::Rng campaign_rng(91);
  const rel::FleetCampaignResult campaign =
      rel::run_fleet_campaign(config, fleet, campaign_rng);
  EXPECT_EQ(campaign.degradation.quarantined,
            (std::vector<std::size_t>{3}));
  EXPECT_EQ(campaign.degradation.spares_activated, 1u);
  EXPECT_EQ(campaign.degradation.shards_excluded, 0u);
  EXPECT_EQ(campaign.degradation.trials_skipped, 0u);
  EXPECT_FALSE(campaign.shards[3].skipped);

  // Logical-shard substreams make the respared campaign BIT-IDENTICAL to a
  // healthy one: the spare replays shard 3's exact trial sequence.
  util::Rng flat_rng(91);
  const rel::FleetMonteCarloResult healthy =
      rel::run_fleet_montecarlo(config, flat_rng);
  EXPECT_EQ(campaign.total, healthy.total);
  EXPECT_EQ(campaign.shards, healthy.shards);
}

TEST(FleetCampaign, ExcludedShardIsAnExactSubtraction) {
  const rel::FleetMonteCarloConfig config = fleet_mc(6, 4, 0);
  arch::CrossbarFleet fleet(campaign_fleet(6));  // no spares
  fleet.inject_data_error(3, 0, 0);
  fleet.inject_data_error(3, 0, 1);

  util::Rng campaign_rng(91);
  const rel::FleetCampaignResult campaign =
      rel::run_fleet_campaign(config, fleet, campaign_rng);
  EXPECT_EQ(campaign.degradation.quarantined,
            (std::vector<std::size_t>{3}));
  EXPECT_EQ(campaign.degradation.spares_activated, 0u);
  EXPECT_EQ(campaign.degradation.shards_excluded, 1u);
  EXPECT_EQ(campaign.degradation.trials_skipped, config.trials_per_shard);
  EXPECT_TRUE(campaign.shards[3].skipped);
  EXPECT_EQ(campaign.shards[3].stats, rel::MonteCarloResult{});

  // The degraded totals equal the healthy run's minus EXACTLY the excluded
  // shard's slot -- every counter, no slack.
  util::Rng flat_rng(91);
  const rel::FleetMonteCarloResult healthy =
      rel::run_fleet_montecarlo(config, flat_rng);
  rel::MonteCarloResult expected = healthy.total;
  const rel::MonteCarloResult& gone = healthy.shards[3].stats;
  expected.trials -= gone.trials;
  expected.trials_with_errors -= gone.trials_with_errors;
  expected.trials_failed -= gone.trials_failed;
  expected.blocks_total -= gone.blocks_total;
  expected.flips_injected -= gone.flips_injected;
  expected.blocks_failed -= gone.blocks_failed;
  expected.blocks_with_errors -= gone.blocks_with_errors;
  expected.corrected_data -= gone.corrected_data;
  expected.corrected_check -= gone.corrected_check;
  expected.detected_uncorrectable -= gone.detected_uncorrectable;
  expected.miscorrected -= gone.miscorrected;
  EXPECT_EQ(campaign.total, expected);
  // Surviving shards match the healthy run slot for slot.
  for (std::size_t s = 0; s < 6; ++s) {
    if (s == 3) continue;
    EXPECT_EQ(campaign.shards[s], healthy.shards[s]) << "shard " << s;
  }
}

TEST(FleetCampaign, EveryShardExcludedRunsNothingAndDrawsOnce) {
  const rel::FleetMonteCarloConfig config = fleet_mc(6, 4, 0);
  arch::CrossbarFleet fleet(campaign_fleet(6));  // no spares
  for (std::size_t s = 0; s < 6; ++s) {
    fleet.inject_data_error(s, 0, 0);
    fleet.inject_data_error(s, 0, 1);
  }

  util::Rng campaign_rng(91);
  const rel::FleetCampaignResult campaign =
      rel::run_fleet_campaign(config, fleet, campaign_rng);
  EXPECT_EQ(campaign.degradation.shards_excluded, config.shards);
  EXPECT_EQ(campaign.degradation.spares_activated, 0u);
  EXPECT_EQ(campaign.degradation.trials_skipped, config.total_trials());
  ASSERT_EQ(campaign.shards.size(), config.shards);
  for (const rel::FleetShardOutcome& slot : campaign.shards) {
    EXPECT_TRUE(slot.skipped);
    EXPECT_EQ(slot.stats, rel::MonteCarloResult{});
  }
  EXPECT_EQ(campaign.total, rel::MonteCarloResult{});

  // Zero surviving shards still cost exactly the one caller draw.
  util::Rng flat_rng(91);
  (void)rel::run_fleet_montecarlo(config, flat_rng);
  EXPECT_EQ(campaign_rng.next(), flat_rng.next());
}

TEST(FleetCampaign, ShapeMismatchRejected) {
  arch::CrossbarFleet fleet(campaign_fleet(4));
  util::Rng rng(1);
  rel::FleetMonteCarloConfig config = fleet_mc(6, 4, 0);  // 6 != 4 shards
  EXPECT_THROW((void)rel::run_fleet_campaign(config, fleet, rng),
               std::invalid_argument);
  config = fleet_mc(4, 4, 0);
  config.n = 15;  // fleet is n=20
  EXPECT_THROW((void)rel::run_fleet_campaign(config, fleet, rng),
               std::invalid_argument);
}

TEST(FleetMttfGrid, EvaluatesEveryCellReproducibly) {
  rel::FleetMttfGridConfig config;
  config.n = 15;
  config.m = 5;
  config.scrub_period_hours = 24.0;
  config.max_hours = 24.0 * 365;
  config.trials = 8;
  config.threads = 0;
  config.fit_points = {1e5, 1e6};
  config.shard_counts = {1, 4};
  util::Rng rng_a(41);
  const auto grid_a = rel::run_fleet_mttf_grid(config, rng_a);
  ASSERT_EQ(grid_a.size(), 4u);
  for (const rel::FleetMttfPoint& point : grid_a) {
    EXPECT_EQ(point.trials, 8u);
    EXPECT_GT(point.analytic_mttf_hours, 0.0);
    EXPECT_GT(point.empirical_mttf_hours, 0.0);
    EXPECT_LE(point.failures, point.trials);
  }
  // Row-major order: fit varies slowest, shards fastest.
  EXPECT_EQ(grid_a[0].fit_per_bit, 1e5);
  EXPECT_EQ(grid_a[1].shards, 4u);
  EXPECT_EQ(grid_a[2].fit_per_bit, 1e6);
  // Same caller seed, same grid -- bit for bit.
  util::Rng rng_b(41);
  const auto grid_b = rel::run_fleet_mttf_grid(config, rng_b);
  for (std::size_t i = 0; i < grid_a.size(); ++i) {
    EXPECT_EQ(grid_a[i].failures, grid_b[i].failures);
    EXPECT_EQ(grid_a[i].empirical_mttf_hours, grid_b[i].empirical_mttf_hours);
    EXPECT_EQ(grid_a[i].scrub_windows, grid_b[i].scrub_windows);
  }
  // More shards at the same SER cannot raise the analytic MTTF.
  EXPECT_LE(grid_a[1].analytic_mttf_hours, grid_a[0].analytic_mttf_hours);
}

}  // namespace
}  // namespace pimecc
