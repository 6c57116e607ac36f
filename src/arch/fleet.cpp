#include "arch/fleet.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "fault/injector.hpp"
#include "util/executor.hpp"

namespace pimecc::arch {

void FleetParams::validate() const {
  if (shards == 0) {
    throw std::invalid_argument("FleetParams: fleet must have >= 1 shard");
  }
  ArchParams{n, m}.validate();  // odd m dividing n
}

CrossbarFleet::CrossbarFleet(const FleetParams& params) : params_(params) {
  params_.validate();
  const std::size_t physical = params_.shards + params_.spares;
  machines_.reserve(physical);
  for (std::size_t s = 0; s < physical; ++s) {
    machines_.emplace_back(ArchParams{params_.n, params_.m});
  }
  counters_.resize(physical);
  remap_.resize(params_.shards);
  for (std::size_t s = 0; s < params_.shards; ++s) remap_[s] = s;
  active_.assign(params_.shards, 1);
  // Pop spares back to front so physical slot `shards` activates first.
  spare_pool_.reserve(params_.spares);
  for (std::size_t s = physical; s > params_.shards; --s) {
    spare_pool_.push_back(s - 1);
  }
}

void CrossbarFleet::require_shard(std::size_t shard) const {
  if (shard >= params_.shards) {
    throw std::out_of_range("CrossbarFleet: shard index out of range");
  }
}

std::size_t CrossbarFleet::backing(std::size_t shard) const {
  require_shard(shard);
  if (!active_[shard]) {
    throw std::runtime_error("CrossbarFleet: shard " + std::to_string(shard) +
                             " is quarantined without a spare");
  }
  return remap_[shard];
}

const util::BitMatrix& CrossbarFleet::data(std::size_t shard) const {
  return machines_[backing(shard)].data();
}

const ecc::ArrayCode& CrossbarFleet::code(std::size_t shard) const {
  return machines_[backing(shard)].check_code();
}

PimMachine& CrossbarFleet::machine(std::size_t shard) {
  return machines_[backing(shard)];
}

const ShardCounters& CrossbarFleet::counters(std::size_t shard) const {
  return counters_[backing(shard)];
}

FleetAddress CrossbarFleet::translate(std::uint64_t bit_index) const {
  if (bit_index >= params_.data_bits()) {
    throw std::out_of_range("CrossbarFleet::translate: address out of range");
  }
  const std::uint64_t cells_per_shard =
      static_cast<std::uint64_t>(params_.n) * params_.n;
  FleetAddress addr;
  addr.shard = static_cast<std::size_t>(bit_index / cells_per_shard);
  const std::uint64_t cell = bit_index % cells_per_shard;
  addr.row = static_cast<std::size_t>(cell / params_.n);
  addr.col = static_cast<std::size_t>(cell % params_.n);
  return addr;
}

void CrossbarFleet::load_random(util::Rng& rng) {
  const std::uint64_t base_seed = rng.next();
  util::parallel_for(
      util::Executor::shared(), params_.shards, params_.threads,
      [this, base_seed](std::size_t s) {
        if (!active_[s]) return;
        // Substream s belongs to the LOGICAL shard: a remapped shard loads
        // the exact image its retired predecessor would have.
        util::Rng shard_rng = util::Rng::for_stream(base_seed, s);
        machines_[remap_[s]].load_random(shard_rng);
        ++counters_[remap_[s]].encode_passes;
      });
}

void CrossbarFleet::load_broadcast(const util::BitMatrix& image) {
  if (image.rows() != params_.n || image.cols() != params_.n) {
    throw std::invalid_argument("CrossbarFleet::load_broadcast: image must be n x n");
  }
  util::parallel_for(util::Executor::shared(), params_.shards, params_.threads,
                     [this, &image](std::size_t s) {
                       if (!active_[s]) return;
                       machines_[remap_[s]].load(image);
                       ++counters_[remap_[s]].encode_passes;
                     });
}

CheckReport CrossbarFleet::scrub_shard(std::size_t shard, std::size_t band) {
  const std::size_t phys = remap_[shard];
  PimMachine& unit = machines_[phys];
  const bool whole = band == kWholeShard;
  const CheckReport r =
      whole ? unit.scrub() : unit.check_block_row(band * params_.m);
  ShardCounters& c = counters_[phys];
  // A tick pass counts once, on the shard's last block-row.
  if (whole || band + 1 == params_.n / params_.m) ++c.scrub_passes;
  c.corrected_data += r.corrected_data;
  c.corrected_check += r.corrected_check;
  c.uncorrectable += r.uncorrectable;
  return r;
}

FleetScrubReport CrossbarFleet::scrub_all() {
  std::vector<CheckReport> reports(params_.shards);
  util::parallel_for(util::Executor::shared(), params_.shards, params_.threads,
                     [this, &reports](std::size_t s) {
                       if (active_[s]) reports[s] = scrub_shard(s);
                     });
  FleetScrubReport total;
  for (std::size_t s = 0; s < params_.shards; ++s) {  // shard order
    if (!active_[s]) continue;  // dead shards are excluded, not zero
    const CheckReport& r = reports[s];
    ++total.shards_checked;
    total.blocks_checked += r.blocks_checked;
    total.clean += r.blocks_checked - r.corrected_data - r.corrected_check -
                   r.uncorrectable;
    total.corrected_data += r.corrected_data;
    total.corrected_check += r.corrected_check;
    total.uncorrectable += r.uncorrectable;
  }
  return total;
}

bool CrossbarFleet::all_consistent() const {
  std::vector<char> consistent(params_.shards, 0);
  util::parallel_for(util::Executor::shared(), params_.shards, params_.threads,
                     [this, &consistent](std::size_t s) {
                       consistent[s] = !active_[s] ||
                                       machines_[remap_[s]].ecc_consistent();
                     });
  return std::all_of(consistent.begin(), consistent.end(),
                     [](char ok) { return ok != 0; });
}

CheckReport CrossbarFleet::scrub_tick() {
  const std::size_t bands = params_.n / params_.m;
  const std::size_t shard = scrub_cursor_ / bands;
  const std::size_t band = scrub_cursor_ % bands;
  scrub_cursor_ = (scrub_cursor_ + 1) % ticks_per_pass();
  return active_[shard] ? scrub_shard(shard, band) : CheckReport{};
}

std::vector<FleetAddress> CrossbarFleet::inject_random_errors(
    util::Rng& rng, std::size_t count) {
  const std::uint64_t population = params_.data_bits();
  if (count > population) {
    throw std::invalid_argument(
        "CrossbarFleet::inject_random_errors: more errors than data bits");
  }
  // Sampling stays on the caller's thread so the rng draw order is fixed.
  // sample_distinct works in std::size_t; fleets are addressed in 64-bit,
  // so reject configurations a 32-bit size_t could not address (we only
  // build 64-bit targets, so this is a static guarantee in practice).
  if (population > static_cast<std::uint64_t>(~std::size_t{0})) {
    throw std::invalid_argument(
        "CrossbarFleet::inject_random_errors: fleet exceeds size_t addressing");
  }
  std::vector<std::size_t> flat;
  fault::sample_distinct(rng, static_cast<std::size_t>(population), count, flat);
  std::vector<FleetAddress> flipped;
  flipped.reserve(count);
  for (const std::size_t bit : flat) {  // sorted ascending by contract
    const FleetAddress addr = translate(bit);
    // Dead shards absorb no faults: the sampled address is dropped (the
    // draw order is unchanged, so active shards still see the same flips).
    if (!active_[addr.shard]) continue;
    machines_[remap_[addr.shard]].inject_data_error(addr.row, addr.col);
    ++counters_[remap_[addr.shard]].injected_faults;
    flipped.push_back(addr);
  }
  return flipped;
}

void CrossbarFleet::inject_data_error(std::size_t shard, std::size_t r,
                                      std::size_t c) {
  const std::size_t phys = backing(shard);
  machines_[phys].inject_data_error(r, c);  // range-checked
  ++counters_[phys].injected_faults;
}

bool CrossbarFleet::shard_active(std::size_t shard) const {
  require_shard(shard);
  return active_[shard] != 0;
}

std::size_t CrossbarFleet::physical_shard(std::size_t shard) const {
  return backing(shard);
}

bool CrossbarFleet::quarantine_shard(std::size_t shard) {
  require_shard(shard);
  if (!active_[shard]) return false;  // already dead
  quarantined_.push_back(shard);
  if (spare_pool_.empty()) {
    active_[shard] = 0;
    return false;
  }
  const std::size_t spare = spare_pool_.back();
  spare_pool_.pop_back();
  ++spares_activated_;
  remap_[shard] = spare;
  // Fresh backing: zero image with consistent checks, so the remapped
  // shard re-enters bulk operations in a well-defined state (callers
  // reload real content next).
  machines_[spare].load(util::BitMatrix(params_.n, params_.n));
  ++counters_[spare].encode_passes;
  return true;
}

std::vector<std::size_t> CrossbarFleet::quarantine_uncorrectable() {
  std::vector<std::size_t> uncorrectable(params_.shards, 0);
  util::parallel_for(util::Executor::shared(), params_.shards, params_.threads,
                     [this, &uncorrectable](std::size_t s) {
                       if (active_[s]) {
                         uncorrectable[s] = scrub_shard(s).uncorrectable;
                       }
                     });
  std::vector<std::size_t> quarantined;
  for (std::size_t s = 0; s < params_.shards; ++s) {  // shard order
    if (uncorrectable[s] > 0) {
      quarantine_shard(s);
      quarantined.push_back(s);
    }
  }
  return quarantined;
}

FleetHealth CrossbarFleet::health() const {
  FleetHealth health;
  for (const char a : active_) health.active += a != 0 ? 1 : 0;
  health.quarantined = quarantined_.size();
  health.dead = params_.shards - health.active;
  health.spares_available = spare_pool_.size();
  health.spares_activated = spares_activated_;
  return health;
}

ShardCounters CrossbarFleet::total_counters() const {
  ShardCounters total;
  for (const ShardCounters& c : counters_) {
    total.encode_passes += c.encode_passes;
    total.scrub_passes += c.scrub_passes;
    total.corrected_data += c.corrected_data;
    total.corrected_check += c.corrected_check;
    total.uncorrectable += c.uncorrectable;
    total.injected_faults += c.injected_faults;
  }
  return total;
}

}  // namespace pimecc::arch
