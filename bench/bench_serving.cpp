// Serving harness: measures the batched request engine behind `pimecc
// serve` and emits machine-readable BENCH_serving.json.
//
//   latency_matrix: requests/second plus p50/p99 per-request latency of the
//   submit -> drain -> take path across a batch-size x lane-count grid, on
//   a mixed map/run/mttf/sweep workload.  Latency is stamped around the
//   queue (submit to publication), never inside the engine, which stays
//   clock-free.
//
// Every run first executes the cross-check gate and the process exit
// status reflects it:
//   - serve determinism: the formatted responses of the full workload must
//     be BIT-IDENTICAL at every lane count and batch size tested (a
//     response is a pure function of its request);
//   - machine checkpoint continuation: a PimMachine checkpointed
//     mid-program with its RNG and resumed in a fresh machine must replay
//     to the identical final state, field for field;
//   - lifetime resume: a campaign advanced in uneven chunks, serialized
//     and reloaded between chunks at varying thread counts, must be
//     bit-identical to the uninterrupted simulate_lifetime run;
//   - admission control + deadlines: a bounded queue must reject overflow
//     with the typed kRejected admission, an expired deadline must surface
//     as a kDeadlineExceeded response instead of executing, and shutdown
//     must publish kCancelled responses for every queued ticket.
//
// Usage: bench_serving [--smoke] [--out=PATH]
//   --smoke    fast CI configuration (small workload, short measurements)
//   --out=PATH where to write the JSON (default: BENCH_serving.json)
#include <array>
#include <chrono>
#include <cstdint>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "arch/checkpoint.hpp"
#include "arch/pim_machine.hpp"
#include "harness.hpp"
#include "reliability/lifetime.hpp"
#include "serve/request.hpp"
#include "serve/server.hpp"
#include "util/executor.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace {

std::vector<pimecc::serve::Request> build_workload(std::size_t count,
                                                   std::size_t run_n) {
  using pimecc::serve::Request;
  using pimecc::serve::RequestKind;
  std::vector<Request> workload;
  workload.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    Request request;
    switch (i % 4) {
      case 0:
        request.kind = RequestKind::kRun;
        request.circuit = "ctrl";
        request.n = run_n;
        request.m = 15;
        request.seed = 1 + i;
        break;
      case 1:
        request.kind = RequestKind::kMap;
        request.circuit = (i % 8 == 1) ? "ctrl" : "cavlc";
        break;
      case 2:
        request.kind = RequestKind::kMttf;
        request.fit_per_bit = 1e-3 * static_cast<double>(1 + i % 5);
        break;
      default:
        request.kind = RequestKind::kSweep;
        request.fit_low = 1e-4;
        request.fit_high = 1e-2;
        request.points_per_decade = 2;
        break;
    }
    workload.push_back(request);
  }
  return workload;
}

std::vector<std::string> formatted_batch_responses(
    pimecc::serve::Server& server,
    const std::vector<pimecc::serve::Request>& workload) {
  std::vector<std::string> formatted;
  for (const pimecc::serve::Response& r : server.execute_batch(workload)) {
    formatted.push_back(pimecc::serve::format_response(r));
  }
  return formatted;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace pimecc;
  using bench::fmt;
  using Clock = std::chrono::steady_clock;

  const bench::Options options =
      bench::parse_options(argc, argv, "BENCH_serving.json");
  const bool smoke = options.smoke;
  bench::Gates gates;
  const double min_seconds = smoke ? 0.05 : 1.0;
  const std::size_t workers = util::Executor::shared().worker_count();
  const std::size_t run_n = smoke ? 60 : 120;
  const std::size_t workload_size = smoke ? 16 : 64;
  const std::vector<serve::Request> workload =
      build_workload(workload_size, run_n);

  // ---------------------------------------- cross-check gate: determinism
  // Identical formatted responses at every lane count and batch size the
  // matrix below will time, each server instance cold (own caches).
  {
    std::vector<std::string> pinned;
    for (const std::size_t lanes : {std::size_t{1}, std::size_t{2},
                                    std::size_t{0}}) {
      serve::ServerConfig config;
      config.lanes = lanes;
      serve::Server server(config);
      const auto formatted = formatted_batch_responses(server, workload);
      for (std::size_t i = 0; i < formatted.size(); ++i) {
        gates.check(formatted[i].rfind("ok ", 0) == 0,
                    "workload request " + std::to_string(i) + " served: " +
                        formatted[i]);
      }
      if (pinned.empty()) {
        pinned = formatted;
      } else {
        gates.check(formatted == pinned,
                    "serve determinism at lanes=" + std::to_string(lanes));
      }
    }
    // Batched-through-the-queue path, varying admission size.
    for (const std::size_t batch : {std::size_t{1}, std::size_t{8}}) {
      serve::ServerConfig config;
      config.max_batch = batch;
      serve::Server server(config);
      std::vector<std::uint64_t> tickets;
      for (const serve::Request& request : workload) {
        tickets.push_back(server.submit(request));
      }
      (void)server.drain();
      for (std::size_t i = 0; i < tickets.size(); ++i) {
        gates.check(serve::format_response(server.take(tickets[i])) == pinned[i],
                    "queue determinism at batch=" + std::to_string(batch) +
                        " request " + std::to_string(i));
      }
    }
  }

  // --------------------------- cross-check gate: machine checkpoint resume
  // Checkpoint mid-program with the RNG riding along; the resumed machine
  // replaying identical remaining work must land in the identical state.
  {
    arch::ArchParams params;
    params.n = 60;
    params.m = 15;
    auto segment = [](arch::PimMachine& machine, util::Rng& rng) {
      const std::size_t n = machine.n();
      util::BitVector row(n);
      for (int step = 0; step < 8; ++step) {
        util::fill_random(row, rng);
        machine.write_row_protected(rng.next() % n, row);
        machine.inject_data_error(rng.next() % n, rng.next() % n);
        (void)machine.scrub();
      }
    };
    arch::PimMachine machine(params);
    util::Rng rng(0x5E41ull);
    machine.load(util::random_bit_matrix(params.n, params.n, rng));
    segment(machine, rng);
    std::stringstream snapshot;
    arch::save_machine_checkpoint(snapshot, machine, &rng);
    segment(machine, rng);

    arch::PimMachine resumed(params);
    util::Rng resumed_rng(1);
    arch::load_machine_checkpoint(snapshot, resumed, &resumed_rng);
    segment(resumed, resumed_rng);

    std::stringstream a, b;
    arch::save_machine_checkpoint(a, machine, &rng);
    arch::save_machine_checkpoint(b, resumed, &resumed_rng);
    gates.check(a.str() == b.str(), "machine checkpoint continuation");
  }

  // ------------------------------- cross-check gate: lifetime resume
  // Uneven serialized chunks at varying thread counts vs one straight run.
  {
    rel::LifetimeConfig config;
    config.n = 60;
    config.m = 15;
    config.crossbars = 2;
    config.fit_per_bit = 5e4;
    config.trials = smoke ? 24 : 96;
    config.max_hours = 1e6;
    util::Rng straight_rng(0xC4EC ^ 0x12ull);
    const rel::LifetimeResult straight =
        rel::simulate_lifetime(config, straight_rng);

    util::Rng chunked_rng(0xC4EC ^ 0x12ull);
    rel::LifetimeProgress progress = rel::begin_lifetime(config, chunked_rng);
    const std::array<std::size_t, 4> chunks = {5, 1, 11, 0};
    const std::array<std::size_t, 4> threads = {1, 0, 2, 3};
    std::size_t step = 0;
    while (!rel::lifetime_complete(config, progress)) {
      rel::LifetimeConfig chunk_config = config;
      chunk_config.threads = threads[step % threads.size()];
      (void)rel::advance_lifetime(chunk_config, progress,
                                  chunks[step % chunks.size()]);
      std::stringstream stream;
      rel::save_lifetime_checkpoint(stream, config, progress);
      progress = rel::load_lifetime_checkpoint(stream, config);
      ++step;
    }
    const rel::LifetimeResult resumed = rel::lifetime_result(progress);
    const auto& s = straight.time_to_failure_hours;
    const auto& r = resumed.time_to_failure_hours;
    gates.check(straight.trials == resumed.trials &&
                    straight.failures == resumed.failures &&
                    straight.scrubs_performed == resumed.scrubs_performed &&
                    straight.errors_corrected == resumed.errors_corrected &&
                    s.count() == r.count() && s.sum() == r.sum() &&
                    s.min() == r.min() && s.max() == r.max(),
                "lifetime resume");
  }
  // ----------------------- cross-check gate: admission control + deadlines
  // The robustness contract the serving tests pin, re-proven in the bench
  // binary so the committed BENCH_serving.json can only come from a build
  // whose rejection/deadline/shutdown paths behave.
  {
    serve::ServerConfig config;
    config.max_pending = 4;
    serve::Server server(config);
    std::size_t rejected = 0;
    std::vector<std::uint64_t> tickets;
    for (std::size_t i = 0; i < 10; ++i) {
      const serve::Admission admission = server.try_submit(workload[i]);
      if (admission.admitted) {
        tickets.push_back(admission.ticket);
      } else {
        gates.check(admission.code == serve::ErrorCode::kRejected,
                    "admission rejection carries the kRejected code");
        ++rejected;
      }
    }
    gates.check(tickets.size() == 4 && rejected == 6,
                "admission control: admitted=" +
                    std::to_string(tickets.size()) +
                    " rejected=" + std::to_string(rejected));
    (void)server.drain();
    for (const std::uint64_t ticket : tickets) {
      gates.check(server.take(ticket).ok, "admitted request is served");
    }

    // An expired deadline must surface as a typed response, not execute.
    serve::Request urgent = workload[0];
    urgent.deadline_ms = 1e-6;
    const std::uint64_t late_ticket = server.submit(urgent);
    (void)server.drain();
    const serve::Response late = server.take(late_ticket);
    gates.check(!late.ok && late.code == serve::ErrorCode::kDeadlineExceeded,
                "deadline expiry");
    // A generous deadline must not interfere.
    serve::Request relaxed = workload[0];
    relaxed.deadline_ms = 60000.0;
    const std::uint64_t ok_ticket = server.submit(relaxed);
    (void)server.drain();
    gates.check(server.take(ok_ticket).ok, "relaxed deadline");

    // Shutdown publishes a cancelled response for every queued ticket.
    const std::uint64_t abandoned = server.submit(workload[1]);
    gates.check(server.shutdown() == 1, "shutdown cancellation count");
    const serve::Response cancelled = server.take(abandoned);
    gates.check(!cancelled.ok && cancelled.code == serve::ErrorCode::kCancelled,
                "shutdown cancellation code");
  }

  bench::Json json("pimecc-bench-serving/1", options);
  json.object("executor")
      .field("workers", workers)
      .field("parallelism", workers + 1)
      .end();
  json.object("workload")
      .field("requests", workload.size())
      .field("run_n", run_n)
      .end();

  // -------------------------------------------------------- latency matrix
  const std::vector<std::size_t> batch_sweep = {1, 8, 32};
  const std::vector<std::size_t> lane_sweep =
      smoke ? std::vector<std::size_t>{1, 0}
            : std::vector<std::size_t>{1, 2, 0};
  json.array("latency_matrix");
  for (const std::size_t batch : batch_sweep) {
    for (const std::size_t lanes : lane_sweep) {
      serve::ServerConfig config;
      config.max_batch = batch;
      config.lanes = lanes;
      serve::Server server(config);
      // Warm the caches once so the matrix measures serving, not the
      // first-touch circuit/program builds.
      (void)server.execute_batch(workload);

      std::vector<double> latencies_ms;
      std::size_t cursor = 0;
      const double requests_per_sec = bench::measure_rate(min_seconds, [&] {
        std::vector<std::uint64_t> tickets;
        std::vector<Clock::time_point> submitted;
        for (std::size_t b = 0; b < batch; ++b) {
          submitted.push_back(Clock::now());
          tickets.push_back(
              server.submit(workload[cursor++ % workload.size()]));
        }
        (void)server.drain_once();
        const auto published = Clock::now();
        for (std::size_t b = 0; b < batch; ++b) {
          (void)server.take(tickets[b]);
          latencies_ms.push_back(
              std::chrono::duration<double, std::milli>(published -
                                                        submitted[b])
                  .count());
        }
        return batch;
      });
      const double p50_ms = util::percentile(latencies_ms, 50.0);
      const double p99_ms = util::percentile(latencies_ms, 99.0);
      std::cout << "serve batch=" << batch << " lanes=" << lanes << ": "
                << fmt(requests_per_sec) << " req/s, p50 " << fmt(p50_ms)
                << " ms, p99 " << fmt(p99_ms) << " ms\n";
      json.object()
          .field("batch", batch)
          .field("lanes", lanes)
          .field("requests_per_sec", requests_per_sec)
          .field("p50_ms", p50_ms)
          .field("p99_ms", p99_ms)
          .end();
    }
  }
  return json.finish(gates, "cross_checks_ok");
}
