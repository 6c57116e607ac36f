// Data-intensive workload: a database bitmap-index scan executed in-memory
// across a multi-crossbar bank, with the background scrub running between
// query steps (the controller-level deployment of the paper's periodic
// check).
//
// Setup: each crossbar row r is one record; columns 0..3 hold predicate
// bitmaps (region flags), computed-in-place query results land in higher
// columns.  Query: SELECT count(*) WHERE (A AND NOT B) OR C -- evaluated
// with MAGIC NOR algebra simultaneously for every record of every shard,
// while soft errors rain in and the incremental scrub keeps the bank clean.
#include <iostream>

#include "arch/fleet.hpp"
#include "util/rng.hpp"

int main() {
  using namespace pimecc;

  arch::FleetParams params;
  params.n = 45;
  params.m = 9;
  params.shards = 4;
  arch::CrossbarFleet bank(params);
  util::Rng rng(0xDB17ull);
  bank.load_random(rng);

  const std::size_t records = params.shards * params.n;
  std::cout << "bank: " << bank.shard_count() << " crossbars, " << records
            << " records, bitmaps in columns A=0 B=1 C=2\n";

  // Expected result from a host-side golden evaluation.
  std::size_t expected = 0;
  for (std::size_t s = 0; s < bank.shard_count(); ++s) {
    const auto& data = bank.data(s);
    for (std::size_t r = 0; r < params.n; ++r) {
      const bool a = data.get(r, 0), b = data.get(r, 1), c = data.get(r, 2);
      if ((a && !b) || c) ++expected;
    }
  }

  // In-memory evaluation on every shard, interleaved with scrub ticks and
  // injected soft errors.  (A AND NOT B) OR C = NOR(NOR(nb_or_... ) ...):
  //   t1 = NOR(A', B)   [= A AND NOT B], with A' = NOT A
  //   q  = NOR(NOR(t1, C)) = t1 OR C
  // Columns: 10 = A', 11 = t1, 12 = NOR(t1, C), 13 = q.
  std::size_t matched = 0;
  std::size_t scrub_corrections = 0;
  for (std::size_t s = 0; s < bank.shard_count(); ++s) {
    // Background radiation between queries...
    bank.inject_random_errors(rng, 2);
    // ...and the steady scrub heartbeat.
    for (std::size_t t = 0; t < bank.ticks_per_pass(); ++t) {
      scrub_corrections += bank.scrub_tick().corrected_data;
    }

    arch::PimMachine& unit = bank.machine(s);
    const std::size_t stages[4] = {10, 11, 12, 13};
    unit.magic_init_rows_protected(stages);
    const std::size_t in_a[1] = {0};
    unit.magic_nor_rows_protected(in_a, 10);  // A'
    const std::size_t in_t1[2] = {10, 1};
    unit.magic_nor_rows_protected(in_t1, 11);  // A AND NOT B
    const std::size_t in_or[2] = {11, 2};
    unit.magic_nor_rows_protected(in_or, 12);  // NOR(t1, C)
    const std::size_t in_q[1] = {12};
    unit.magic_nor_rows_protected(in_q, 13);  // t1 OR C

    for (std::size_t r = 0; r < params.n; ++r) {
      if (unit.data().get(r, 13)) ++matched;
    }
  }

  std::cout << "query (A AND NOT B) OR C: " << matched << " records matched, "
            << expected << " expected -> "
            << (matched == expected ? "CORRECT" : "WRONG") << '\n'
            << "scrub corrected " << scrub_corrections
            << " soft errors during the scan; bank consistent: "
            << std::boolalpha << bank.all_consistent() << '\n';
  return matched == expected && bank.all_consistent() ? 0 : 1;
}
