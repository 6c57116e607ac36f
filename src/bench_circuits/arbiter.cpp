// Benchmark `arbiter`: 64-client rotating-priority (round-robin) arbiter
// (EPFL analogue; see circuits.hpp note on sizing -- at 56 clients the
// per-client chain structure lands at the EPFL arbiter's ~12.8k-cycle
// baseline).  Inputs: 64 request lines and a 64-bit one-hot priority
// pointer.  Outputs: 64 one-hot grant lines plus a valid flag.  Semantics:
// grant the first requester at or after the head position, searching
// cyclically; with no pointer bit set the head defaults to position 0 (a
// malformed multi-hot pointer grants the union, one winner per head).
//
// Each client evaluates a private eligibility chain
//   A_k = head[pos_k] OR (A_{k+1} AND NOT req[pos_{k+1}])
// walking inward from the farthest position; chain nodes have fanout one,
// so live values stay bounded and the function fits SIMPLER's single-row
// execution model.
#include "bench_circuits/circuits.hpp"

#include "bench_circuits/ref_util.hpp"
#include "simpler/logic.hpp"

namespace pimecc::circuits {

namespace {
constexpr std::size_t kClients = 56;
}  // namespace

CircuitSpec build_arbiter() {
  CircuitSpec spec;
  spec.name = "arbiter";
  simpler::Netlist netlist("arbiter");
  simpler::LogicBuilder b(netlist);
  const simpler::Bus req = b.input_bus(kClients);
  const simpler::Bus ptr = b.input_bus(kClients);

  // head[j]: position j is a priority head.
  const simpler::NodeId no_ptr =
      b.nor_gate(std::span<const simpler::NodeId>(ptr));
  simpler::Bus head = ptr;
  head[0] = b.or2(ptr[0], no_ptr);

  simpler::Bus grant(kClients);
  for (std::size_t i = 0; i < kClients; ++i) {
    // pos_k = (i - k) mod N; start from the farthest head position.
    simpler::NodeId acc = head[(i + 1) % kClients];
    for (std::size_t k = kClients - 2; k + 1 > 0; --k) {
      const std::size_t pos = (i + kClients - k) % kClients;
      const std::size_t prev = (i + kClients - k - 1) % kClients;
      // A AND NOT req[prev] = NOR(NOT A, req[prev]).
      const simpler::NodeId carried = b.nor2(b.not_gate(acc), req[prev]);
      acc = b.or2(head[pos], carried);
    }
    grant[i] = b.and2(req[i], acc);
  }
  b.output_bus(grant);
  b.output(b.or_gate(std::span<const simpler::NodeId>(req)));  // valid

  spec.netlist = std::move(netlist);
  // Reference mirrors the netlist semantics exactly.
  spec.evaluate = [](const util::BitVector& in, util::BitVector& out) {
    reset_bits(out, kClients + 1);
    bool any = false;
    bool any_ptr = false;
    for (std::size_t i = 0; i < kClients; ++i) {
      any = any || in.get(i);
      any_ptr = any_ptr || in.get(kClients + i);
    }
    out.set(kClients, any);
    for (std::size_t j = 0; j < kClients; ++j) {
      const bool is_head = in.get(kClients + j) || (j == 0 && !any_ptr);
      if (!is_head) continue;
      for (std::size_t t = 0; t < kClients; ++t) {
        const std::size_t i = (j + t) % kClients;
        if (in.get(i)) {
          out.set(i, true);
          break;
        }
      }
    }
  };
  return spec;
}

}  // namespace pimecc::circuits
