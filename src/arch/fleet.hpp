// pimecc -- arch/fleet.hpp
//
// The multi-crossbar bank (paper Section II-A: memory is divided into many
// crossbars, and the ECC extension attaches to each one).  CrossbarFleet
// owns `shards` PimMachine units -- each an n x n MEM crossbar with its own
// check-bit state -- plus standby spares.  Bulk operations call every
// machine's own entry points (load, scrub, ecc_consistent) and fan the
// shards out over the persistent executor (util/executor.hpp) with
// dynamic shard tickets.  machine(s) hands one
// shard out for in-memory compute under the Section IV protocol, and
// scrub_tick() is the round-robin background scrub a controller schedules
// between computations (one block-row per tick, constant cost).
//
// Determinism contract (the reliability engines' seed discipline):
//   - load_random draws ONE base seed from the caller and fills shard s
//     from substream s, so the images are bit-identical at any worker
//     count and the caller's generator always advances by one draw;
//   - every bulk operation writes only shard-indexed slots (reports,
//     counters, consistency bits) and merges them in shard order after the
//     join, so which lane ran which shard is unobservable;
//   - fleet-wide fault injection samples on the caller's thread (draw
//     order fixed) and applies flips shard by shard.
// tests/test_fleet.cpp pins every entry point against a serial loop over
// independent single-crossbar engines.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "arch/pim_machine.hpp"
#include "core/array_code.hpp"
#include "util/bitmatrix.hpp"
#include "util/rng.hpp"

namespace pimecc::arch {

/// Shape of a fleet: `shards` independent n x n crossbars with block size m,
/// plus `spares` standby crossbars that replace quarantined shards.
struct FleetParams {
  std::size_t n = 120;       ///< per-shard crossbar dimension
  std::size_t m = 15;        ///< ECC block size (odd, divides n)
  std::size_t shards = 256;  ///< number of addressable crossbar shards
  std::size_t spares = 0;    ///< standby shards for quarantine remapping
  std::size_t threads = 0;   ///< executor lanes for bulk ops; 0 = full width

  /// Throws std::invalid_argument on an empty fleet or invalid (n, m).
  void validate() const;
  [[nodiscard]] std::uint64_t data_bits() const noexcept {
    return static_cast<std::uint64_t>(shards) * n * n;
  }
};

/// Location of one data bit in the fleet.
struct FleetAddress {
  std::size_t shard = 0;
  std::size_t row = 0;
  std::size_t col = 0;
  bool operator==(const FleetAddress&) const noexcept = default;
};

/// Per-shard bulk-operation accounting.  All fields are integer sums, so
/// fleet totals merge commutatively in shard order.
struct ShardCounters {
  std::uint64_t encode_passes = 0;
  std::uint64_t scrub_passes = 0;
  std::uint64_t corrected_data = 0;
  std::uint64_t corrected_check = 0;
  std::uint64_t uncorrectable = 0;
  std::uint64_t injected_faults = 0;
  bool operator==(const ShardCounters&) const noexcept = default;
};

/// Aggregate of one fleet-wide scrub.
struct FleetScrubReport {
  std::size_t shards_checked = 0;
  std::uint64_t blocks_checked = 0;
  std::uint64_t clean = 0;
  std::uint64_t corrected_data = 0;
  std::uint64_t corrected_check = 0;
  std::uint64_t uncorrectable = 0;
  bool operator==(const FleetScrubReport&) const noexcept = default;
};

/// Health summary of a fleet in (possibly) degraded operation.
struct FleetHealth {
  std::size_t active = 0;            ///< logical shards still serving
  std::size_t quarantined = 0;       ///< logical shards ever quarantined
  std::size_t dead = 0;              ///< quarantined without a spare
  std::size_t spares_available = 0;  ///< standby shards not yet activated
  std::size_t spares_activated = 0;
  bool operator==(const FleetHealth&) const noexcept = default;
};

/// A sharded bank of ECC-protected crossbars.
///
/// Degraded mode: logical shard s is backed by a physical machine slot (the
/// identity mapping until a quarantine).  quarantine_shard() retires the
/// current backing; if a spare is available the logical shard is remapped
/// onto it (zero-filled, checks encoded) and stays active, otherwise the
/// shard goes dead and every bulk operation skips it -- campaigns complete
/// over the surviving shards with exact bookkeeping instead of aggregating
/// over poisoned state (reliability/fleet_reliability.hpp's
/// run_fleet_campaign drives this end to end).
class CrossbarFleet {
 public:
  explicit CrossbarFleet(const FleetParams& params);

  [[nodiscard]] const FleetParams& params() const noexcept { return params_; }
  [[nodiscard]] std::size_t shard_count() const noexcept {
    return params_.shards;
  }
  [[nodiscard]] std::size_t n() const noexcept { return params_.n; }
  [[nodiscard]] std::size_t m() const noexcept { return params_.m; }

  // --- per-shard access ----------------------------------------------------
  [[nodiscard]] const util::BitMatrix& data(std::size_t shard) const;
  [[nodiscard]] const ecc::ArrayCode& code(std::size_t shard) const;
  [[nodiscard]] const ShardCounters& counters(std::size_t shard) const;
  /// The machine backing logical shard `shard`, for protected in-memory
  /// compute.  Its work is outside ShardCounters; the bulk operations see
  /// its data and check bits.  Throws std::out_of_range past shard_count()
  /// and std::runtime_error for a dead shard.
  [[nodiscard]] PimMachine& machine(std::size_t shard);

  /// Maps a linear data-bit index (shard-major, then row-major cells) to
  /// its location; throws std::out_of_range past data_bits().
  [[nodiscard]] FleetAddress translate(std::uint64_t bit_index) const;

  // --- sharded bulk operations (executor-parallel, shard-deterministic) ----
  /// Draws one base seed from `rng` and fills shard s with pseudo-random
  /// data from substream s (fill_random word discipline), then encodes all
  /// check bits -- bit-identical images at any worker count.
  void load_random(util::Rng& rng);
  /// Loads the same n x n image into every shard and encodes (the
  /// reliability campaigns' shared-golden discipline).
  void load_broadcast(const util::BitMatrix& image);
  /// Checks and repairs every block of every shard; per-shard reports are
  /// merged in shard order, so the aggregate is worker-count invariant.
  FleetScrubReport scrub_all();
  /// True iff every shard's check bits match its data exactly.
  [[nodiscard]] bool all_consistent() const;

  // --- background scrub ------------------------------------------------------
  /// Checks (and repairs) the next block-row of the next logical shard,
  /// round-robin, and advances the cursor.  The outcome folds into the
  /// shard's counters like scrub_all's; the tick on a shard's last block-row
  /// completes one scrub pass.  A dead shard's ticks check nothing.
  CheckReport scrub_tick();
  /// Ticks for one complete pass over the bank: shards * n/m.
  [[nodiscard]] std::size_t ticks_per_pass() const noexcept {
    return params_.shards * (params_.n / params_.m);
  }

  // --- fault injection -----------------------------------------------------
  /// Flips `count` distinct uniformly-chosen data bits across the fleet
  /// (sampled on the caller's thread; deterministic in `rng`).  Returns
  /// the flipped locations sorted by linear index.
  std::vector<FleetAddress> inject_random_errors(util::Rng& rng,
                                                 std::size_t count);
  /// Flips one data bit of one shard.
  void inject_data_error(std::size_t shard, std::size_t r, std::size_t c);

  // --- degraded mode -------------------------------------------------------
  /// True iff logical shard `shard` still has a backing image (never
  /// quarantined, or remapped onto a spare).
  [[nodiscard]] bool shard_active(std::size_t shard) const;
  /// Current physical slot backing logical shard `shard`; throws
  /// std::runtime_error for a dead shard.
  [[nodiscard]] std::size_t physical_shard(std::size_t shard) const;
  /// Retires logical shard `shard`'s backing.  Returns true when a spare
  /// was activated (the shard stays active on a fresh zero image with
  /// consistent checks); false when no spare remained and the shard is now
  /// dead.  Idempotent on dead shards (returns false).
  bool quarantine_shard(std::size_t shard);
  /// Scrubs every active shard and quarantines those whose scrub reports
  /// uncorrectable blocks.  Returns the quarantined logical ids in shard
  /// order (empty when the fleet is healthy).
  std::vector<std::size_t> quarantine_uncorrectable();
  [[nodiscard]] FleetHealth health() const;

  // --- accounting ----------------------------------------------------------
  /// Commutative shard-order merge of every physical slot's counters
  /// (quarantined slots keep their history).
  [[nodiscard]] ShardCounters total_counters() const;

 private:
  static constexpr std::size_t kWholeShard = ~std::size_t{0};

  void require_shard(std::size_t shard) const;
  [[nodiscard]] std::size_t backing(std::size_t shard) const;  // checked remap
  /// Scrubs active logical shard `shard` -- every block, or only block-row
  /// `band` -- and folds the outcome into its counters.
  CheckReport scrub_shard(std::size_t shard, std::size_t band = kWholeShard);

  FleetParams params_;
  // Indexed by PHYSICAL slot (shards + spares); logical shard s reaches its
  // machine via remap_[s].
  std::vector<PimMachine> machines_;
  std::vector<ShardCounters> counters_;
  std::vector<std::size_t> remap_;        ///< logical -> physical
  std::vector<char> active_;              ///< logical shard has a backing
  std::vector<std::size_t> spare_pool_;   ///< unused physical spare slots
  std::vector<std::size_t> quarantined_;  ///< logical ids, quarantine order
  std::size_t spares_activated_ = 0;
  std::size_t scrub_cursor_ = 0;  ///< next scrub_tick, in [0, ticks_per_pass)
};

}  // namespace pimecc::arch
