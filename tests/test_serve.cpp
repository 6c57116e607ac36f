// Tests for the serving front end: trace-line parsing, handler correctness
// against direct library calls, batching/lane-count determinism, the
// concurrent submit/drain/take queue, and registry caching.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "arch/pim_machine.hpp"
#include "reliability/analytic.hpp"
#include "serve/error.hpp"
#include "serve/registry.hpp"
#include "serve/request.hpp"
#include "serve/server.hpp"
#include "simpler/protected_vm.hpp"
#include "util/rng.hpp"

namespace pimecc {
namespace {

using serve::Request;
using serve::RequestKind;
using serve::Response;
using serve::Server;
using serve::ServerConfig;

Request parse_ok(const std::string& line) {
  Request request;
  std::string error;
  EXPECT_TRUE(serve::parse_request(line, request, error)) << error;
  return request;
}

std::string parse_error(const std::string& line) {
  Request request;
  std::string error;
  EXPECT_FALSE(serve::parse_request(line, request, error));
  EXPECT_FALSE(error.empty()) << "expected a diagnostic for: " << line;
  return error;
}

TEST(ParseRequest, AcceptsEveryKindAndKey) {
  Request map = parse_ok(
      "map circuit=cavlc width=300 n=300 m=15 pcs=4 coverage=outputs "
      "minpcs=1");
  EXPECT_EQ(map.kind, RequestKind::kMap);
  EXPECT_EQ(map.circuit, "cavlc");
  EXPECT_EQ(map.row_width, 300u);
  EXPECT_EQ(map.pcs, 4u);
  EXPECT_EQ(map.coverage, simpler::CoveragePolicy::kOutputsOnly);
  EXPECT_TRUE(map.min_pcs);

  Request run = parse_ok("run circuit=ctrl n=60 m=15 seed=12345");
  EXPECT_EQ(run.kind, RequestKind::kRun);
  EXPECT_EQ(run.seed, 12345u);

  Request mttf = parse_ok("mttf fit=2.5e-3 period=12 n=510 m=15 gib=0.5");
  EXPECT_EQ(mttf.kind, RequestKind::kMttf);
  EXPECT_EQ(mttf.fit_per_bit, 2.5e-3);
  EXPECT_EQ(mttf.memory_gib, 0.5);

  Request sweep = parse_ok("sweep fit_low=1e-4 fit_high=1e-1 ppd=3");
  EXPECT_EQ(sweep.kind, RequestKind::kSweep);
  EXPECT_EQ(sweep.points_per_decade, 3u);
}

TEST(ParseRequest, SkipsBlanksAndComments) {
  Request request;
  std::string error;
  EXPECT_FALSE(serve::parse_request("", request, error));
  EXPECT_TRUE(error.empty());
  EXPECT_FALSE(serve::parse_request("   \t ", request, error));
  EXPECT_TRUE(error.empty());
  EXPECT_FALSE(serve::parse_request("# a comment line", request, error));
  EXPECT_TRUE(error.empty());
}

TEST(ParseRequest, HandlesCarriageReturns) {
  Request request = parse_ok("run circuit=ctrl seed=9\r");
  EXPECT_EQ(request.seed, 9u);
}

TEST(ParseRequest, RejectsDefectsWithDiagnostics) {
  EXPECT_NE(parse_error("frobnicate n=3").find("unknown request kind"),
            std::string::npos);
  EXPECT_NE(parse_error("map nonsense=1").find("unknown key"),
            std::string::npos);
  EXPECT_NE(parse_error("map n=bogus").find("bad value"), std::string::npos);
  EXPECT_NE(parse_error("map n=0").find("bad value"), std::string::npos);
  EXPECT_NE(parse_error("map n=-5").find("bad value"), std::string::npos);
  EXPECT_NE(parse_error("mttf fit=nan").find("bad value"), std::string::npos);
  EXPECT_NE(parse_error("map n=3 n=4").find("duplicate key"),
            std::string::npos);
  EXPECT_NE(parse_error("map justakey").find("malformed token"),
            std::string::npos);
  EXPECT_NE(parse_error("map =5").find("malformed token"), std::string::npos);
  EXPECT_NE(parse_error("map circuit=").find("bad value"), std::string::npos);
  EXPECT_NE(parse_error("map minpcs=maybe").find("bad value"),
            std::string::npos);
}

TEST(ServeHandler, MttfMatchesAnalyticModel) {
  Server server;
  const Request request = parse_ok("mttf fit=1e-3 period=24 n=1020 m=15 gib=1");
  const Response response = server.execute(request);
  ASSERT_TRUE(response.ok) << response.error;

  rel::ReliabilityQuery query;
  query.fit_per_bit = 1e-3;
  query.check_period_hours = 24.0;
  query.n = 1020;
  query.m = 15;
  query.memory_bits = 8ull * 1024 * 1024 * 1024;
  const double baseline = rel::evaluate_baseline(query).mttf_hours;
  const double proposed = rel::evaluate_proposed(query).mttf_hours;
  EXPECT_EQ(response.baseline_mttf_hours, baseline);
  EXPECT_EQ(response.proposed_mttf_hours, proposed);
  EXPECT_EQ(response.improvement, proposed / baseline);
}

TEST(ServeHandler, MttfRejectsANonPositiveFit) {
  // At fit 0 both MTTFs are infinite; their ratio would be NaN.
  Server server;
  for (const std::string line : {"mttf fit=0 period=24", "mttf fit=-1e-3"}) {
    const Response response = server.execute(parse_ok(line));
    EXPECT_FALSE(response.ok) << line;
    EXPECT_EQ(response.code, serve::ErrorCode::kInvalidArgument) << line;
    EXPECT_EQ(serve::format_response(response).rfind(
                  "error kind=mttf code=invalid_argument", 0),
              0u)
        << serve::format_response(response);
  }
  // Any positive fit answers.
  EXPECT_TRUE(server.execute(parse_ok("mttf fit=1e-9")).ok);
}

TEST(ServeHandler, MapReportsScheduleAndMinPcs) {
  Server server;
  const Response response =
      server.execute(parse_ok("map circuit=ctrl coverage=both minpcs=1"));
  ASSERT_TRUE(response.ok) << response.error;
  EXPECT_GT(response.baseline_cycles, 0u);
  EXPECT_GE(response.proposed_cycles, response.baseline_cycles);
  EXPECT_GT(response.min_pcs, 0u);
  EXPECT_NEAR(response.overhead,
              static_cast<double>(response.proposed_cycles) /
                      static_cast<double>(response.baseline_cycles) -
                  1.0,
              1e-12);
}

TEST(ServeHandler, RunExecutesCleanlyAndDeterministically) {
  Server server;
  const Request request = parse_ok("run circuit=ctrl n=60 m=15 seed=42");
  const Response first = server.execute(request);
  ASSERT_TRUE(first.ok) << first.error;
  EXPECT_EQ(first.lanes, 60u);
  EXPECT_EQ(first.mismatches, 0u);
  EXPECT_TRUE(first.ecc_consistent);

  // Same request, same seed, machine now reused from the pool: the
  // response must be identical bit for bit.
  const Response second = server.execute(request);
  EXPECT_EQ(serve::format_response(first), serve::format_response(second));
  EXPECT_GE(server.registry().stats().machine_reuses, 1u);
}

TEST(ServeHandler, ReusedRequestBuffersAnswerLikeAFreshServer) {
  // One server, one lane, so every request at a design point reuses the
  // same pooled machine and its request buffers, which change shape as the
  // circuits alternate.  Each answer must equal a fresh server's, and the
  // buffers must hold exactly what a fresh by-value run computes.
  ServerConfig config;
  config.lanes = 1;
  Server server(config);
  const std::vector<std::string> lines = {
      "run circuit=ctrl n=1020 m=15 seed=11",
      "run circuit=dec n=1020 m=15 seed=12",
      "run circuit=priority n=1020 m=15 seed=13",
      "run circuit=ctrl n=60 m=15 seed=14",
      "run circuit=cavlc n=1020 m=15 seed=15",
      "run circuit=ctrl n=60 m=5 seed=16",
      "run circuit=dec n=1020 m=85 seed=17",
      "run circuit=int2float n=1020 m=15 seed=18",
      "run circuit=ctrl n=1020 m=15 seed=19",
      "run circuit=dec n=1020 m=15 seed=20",
  };
  for (const std::string& line : lines) {
    SCOPED_TRACE(line);
    const Request request = parse_ok(line);
    const std::uint64_t ticket = server.submit(request);
    server.drain();
    const Response served = server.take(ticket);
    ASSERT_TRUE(served.ok) << served.error;
    EXPECT_EQ(served.mismatches, 0u);
    EXPECT_EQ(serve::format_response(served),
              serve::format_response(Server().execute(request)));

    // The request's buffers, against a fresh machine run by value.
    const auto spec = server.registry().circuit(request.circuit);
    const auto program = server.registry().program(request.circuit, request.n);
    arch::ArchParams params;
    params.n = request.n;
    params.m = request.m;
    arch::PimMachine fresh(params);
    util::Rng rng(request.seed);
    fresh.load(util::random_bit_matrix(request.n, request.n, rng));
    const util::BitMatrix inputs =
        util::random_bit_matrix(request.n, spec->netlist.num_inputs(), rng);
    const simpler::ProtectedRunResult run =
        simpler::run_program_protected(fresh, spec->netlist, *program, inputs);
    auto lease = server.registry().acquire_machine(request.n, request.m);
    EXPECT_EQ(lease.scratch().inputs, inputs);
    EXPECT_EQ(lease.scratch().outputs, run.outputs);
    EXPECT_EQ(lease.machine().data(), fresh.data());
    EXPECT_TRUE(lease.machine().ecc_consistent());
  }
  // Two design points of n = 1020 at m = 15 and 85, two of n = 60: one
  // machine each, every later request on a reused one.
  EXPECT_EQ(server.registry().stats().machine_builds, 4u);
}

TEST(ServeHandler, ErrorsBecomeResponsesNeverThrows) {
  Server server;
  Request request = parse_ok("map circuit=ctrl");
  request.circuit = "no-such-circuit";
  const Response bad_circuit = server.execute(request);
  EXPECT_FALSE(bad_circuit.ok);
  EXPECT_FALSE(bad_circuit.error.empty());

  Request bad_arch = parse_ok("run circuit=ctrl n=61 m=15");  // m must divide n
  const Response bad = server.execute(bad_arch);
  EXPECT_FALSE(bad.ok);
  EXPECT_FALSE(bad.error.empty());

  Request bad_gib = parse_ok("mttf gib=1e9");  // beyond the sane bound
  EXPECT_FALSE(server.execute(bad_gib).ok);
}

TEST(ServeHandler, RowOverflowIsAnErrorResponseAndTheServerSurvives) {
  // Circuits that do not fit the requested row (more inputs than cells, or
  // more live values than cells): each request gets an invalid_argument
  // response -- the client asked for too narrow a row -- and the next valid
  // request still answers.
  Server server;
  for (const std::string line : {"map circuit=voter width=60 n=60",
                                  "run circuit=max n=240",
                                  "run circuit=voter n=60",
                                  "run circuit=ctrl n=15 m=15",
                                  "map circuit=ctrl width=15",
                                  "run circuit=adder n=45 m=15"}) {
    const Response bad = server.execute(parse_ok(line));
    EXPECT_FALSE(bad.ok) << line;
    EXPECT_EQ(bad.code, serve::ErrorCode::kInvalidArgument)
        << line << ": " << serve::format_response(bad);
    EXPECT_EQ(serve::format_response(bad).rfind("error kind=", 0), 0u)
        << serve::format_response(bad);
    const Response good = server.execute(parse_ok("map circuit=adder"));
    EXPECT_TRUE(good.ok) << good.error;
    EXPECT_EQ(serve::format_response(good).rfind("ok ", 0), 0u);
  }
}

TEST(ServeBatch, LaneCountCannotChangeAnyResponse) {
  const std::vector<std::string> lines = {
      "map circuit=ctrl coverage=both",
      "run circuit=ctrl n=60 m=15 seed=1",
      "run circuit=ctrl n=60 m=15 seed=2",
      "mttf fit=1e-3 period=24",
      "sweep fit_low=1e-3 fit_high=1e-2 ppd=2",
      "map circuit=cavlc minpcs=1",
  };
  std::vector<Request> requests;
  for (const auto& line : lines) requests.push_back(parse_ok(line));

  auto run_with_lanes = [&](std::size_t lanes) {
    ServerConfig config;
    config.lanes = lanes;
    Server server(config);
    std::vector<std::uint64_t> tickets;
    for (const Request& request : requests) {
      tickets.push_back(server.submit(request));
    }
    server.drain();
    std::vector<std::string> formatted;
    for (const std::uint64_t ticket : tickets) {
      const Response r = server.take(ticket);
      EXPECT_TRUE(r.ok) << r.error;
      formatted.push_back(serve::format_response(r));
    }
    return formatted;
  };

  const auto serial = run_with_lanes(1);
  EXPECT_EQ(run_with_lanes(2), serial);
  EXPECT_EQ(run_with_lanes(0), serial);  // full executor width
}

TEST(ServeQueue, TicketsMatchDirectExecution) {
  Server server;
  std::vector<Request> requests;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    requests.push_back(
        parse_ok("run circuit=ctrl n=60 m=15 seed=" + std::to_string(seed)));
  }

  std::vector<std::uint64_t> tickets;
  for (const Request& request : requests) {
    tickets.push_back(server.submit(request));
  }
  EXPECT_EQ(server.pending(), requests.size());
  EXPECT_EQ(server.drain(), requests.size());
  EXPECT_EQ(server.pending(), 0u);

  Server oracle;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const Response via_queue = server.take(tickets[i]);
    const Response direct = oracle.execute(requests[i]);
    EXPECT_EQ(serve::format_response(via_queue),
              serve::format_response(direct))
        << "ticket " << tickets[i];
  }
}

TEST(ServeQueue, ConcurrentProducersAndDrainer) {
  ServerConfig config;
  config.max_batch = 4;
  Server server(config);

  constexpr std::size_t kProducers = 4;
  constexpr std::size_t kPerProducer = 8;
  std::atomic<std::size_t> taken{0};
  std::atomic<bool> done{false};

  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (std::size_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (std::size_t i = 0; i < kPerProducer; ++i) {
        const Request request = parse_ok(
            "mttf fit=1e-3 period=" + std::to_string(12 + p) + " n=60 m=15");
        const std::uint64_t ticket = server.submit(request);
        const Response response = server.take(ticket);
        EXPECT_TRUE(response.ok) << response.error;
        EXPECT_GT(response.improvement, 1.0);
        taken.fetch_add(1);
      }
    });
  }

  std::thread drainer([&] {
    while (!done.load()) {
      if (server.drain_once() == 0) std::this_thread::yield();
    }
    (void)server.drain();  // anything submitted before the flag flipped
  });

  for (auto& t : producers) t.join();
  done.store(true);
  drainer.join();
  EXPECT_EQ(taken.load(), kProducers * kPerProducer);
  EXPECT_EQ(server.pending(), 0u);
}

TEST(ServeQueue, CloseRejectsSubmitAndWakesTake) {
  Server server;
  const std::uint64_t ticket = server.submit(parse_ok("mttf fit=1e-3"));

  std::thread waiter([&] {
    // Served before close(): must be deliverable even afterwards.
    const Response response = server.take(ticket);
    EXPECT_TRUE(response.ok);
  });
  EXPECT_EQ(server.drain(), 1u);
  waiter.join();

  const std::uint64_t unserved = server.submit(parse_ok("mttf fit=1e-3"));
  std::thread blocked([&] {
    EXPECT_THROW((void)server.take(unserved), std::runtime_error);
  });
  server.close();  // wakes the blocked take() with no response published
  blocked.join();
  EXPECT_THROW((void)server.submit(parse_ok("mttf fit=1e-3")),
               std::runtime_error);
  EXPECT_THROW((void)server.take(9999), std::runtime_error);
}

// ---------------------------------------------------------------------------
// Robustness: typed errors, admission control, deadlines, shutdown

using serve::ErrorCode;
using serve::ServeError;

TEST(ServeRobustness, TakeSameTicketTwiceThrowsImmediately) {
  // Regression: a consumed ticket used to re-wait on the response condition
  // forever (the response was already erased, so nothing could ever wake
  // it).  A double take must throw immediately instead of hanging.
  Server server;
  const std::uint64_t ticket = server.submit(parse_ok("mttf fit=1e-3"));
  EXPECT_EQ(server.drain(), 1u);
  EXPECT_TRUE(server.take(ticket).ok);
  try {
    (void)server.take(ticket);
    FAIL() << "second take of the same ticket must throw";
  } catch (const ServeError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kInvalidArgument);
  }
  // Unknown (never-issued) tickets are typed the same way.
  try {
    (void)server.take(ticket + 1000);
    FAIL() << "unknown ticket must throw";
  } catch (const ServeError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kInvalidArgument);
  }
}

TEST(ServeRobustness, DoubleTakeDetectionSurvivesManyTickets) {
  // taken-ticket tracking is floor + sparse set; consume out of order to
  // exercise both representations.
  Server server;
  std::vector<std::uint64_t> tickets;
  for (int i = 0; i < 8; ++i) {
    tickets.push_back(server.submit(parse_ok("mttf fit=1e-3")));
  }
  EXPECT_EQ(server.drain(), tickets.size());
  const std::size_t order[] = {7, 0, 3, 1, 2, 6, 4, 5};
  for (const std::size_t i : order) {
    EXPECT_TRUE(server.take(tickets[i]).ok);
    EXPECT_THROW((void)server.take(tickets[i]), ServeError);
  }
  for (const std::uint64_t t : tickets) {
    EXPECT_THROW((void)server.take(t), ServeError);
  }
}

TEST(ServeRobustness, BoundedQueueRejectsWithTypedError) {
  ServerConfig config;
  config.max_pending = 2;
  Server server(config);
  const Request request = parse_ok("mttf fit=1e-3");

  const serve::Admission a1 = server.try_submit(request);
  const serve::Admission a2 = server.try_submit(request);
  ASSERT_TRUE(a1.admitted);
  ASSERT_TRUE(a2.admitted);

  // Queue full: try_submit reports, submit throws -- both kRejected.
  const serve::Admission full = server.try_submit(request);
  EXPECT_FALSE(full.admitted);
  EXPECT_EQ(full.code, ErrorCode::kRejected);
  EXPECT_NE(full.message.find("max_pending=2"), std::string::npos);
  try {
    (void)server.submit(request);
    FAIL() << "submit over a full queue must throw";
  } catch (const ServeError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kRejected);
  }

  // Draining frees capacity; admission resumes with fresh tickets.
  EXPECT_EQ(server.drain(), 2u);
  const serve::Admission again = server.try_submit(request);
  EXPECT_TRUE(again.admitted);
  EXPECT_GT(again.ticket, a2.ticket);
  EXPECT_EQ(server.drain(), 1u);
  EXPECT_TRUE(server.take(a1.ticket).ok);
  EXPECT_TRUE(server.take(a2.ticket).ok);
  EXPECT_TRUE(server.take(again.ticket).ok);
}

TEST(ServeRobustness, TrySubmitAfterCloseIsRejectedNotThrown) {
  Server server;
  server.close();
  const serve::Admission refused = server.try_submit(parse_ok("mttf fit=1e-3"));
  EXPECT_FALSE(refused.admitted);
  EXPECT_EQ(refused.code, ErrorCode::kRejected);
}

TEST(ServeRobustness, ExecuteTagsFailuresWithErrorCodes) {
  Server server;

  Request bad_circuit = parse_ok("map circuit=ctrl");
  bad_circuit.circuit = "no-such-circuit";
  const Response r1 = server.execute(bad_circuit);
  EXPECT_FALSE(r1.ok);
  EXPECT_EQ(r1.code, ErrorCode::kInvalidArgument);

  const Response r2 = server.execute(parse_ok("run circuit=ctrl n=61 m=15"));
  EXPECT_FALSE(r2.ok);
  EXPECT_EQ(r2.code, ErrorCode::kInvalidArgument);

  const Response ok = server.execute(parse_ok("mttf fit=1e-3"));
  EXPECT_TRUE(ok.ok);
  EXPECT_EQ(ok.code, ErrorCode::kNone);

  // The size caps (serve::kMaxN, serve::kMaxTrials, arch::kMaxPcs): without
  // them these lines hold the server for tens of seconds, answer bad_alloc
  // as `internal`, or wrap n*n.  Each must be a client error before the
  // registry builds anything.
  const std::uint64_t builds = server.registry().stats().machine_builds;
  for (const std::string line :
       {"run circuit=ctrl n=60015 m=15", "run circuit=ctrl n=1500015 m=15",
        "map circuit=ctrl n=4110 m=15", "map circuit=ctrl width=4000000000",
        "map circuit=ctrl pcs=65", "mttf n=150000000015 m=15",
        "sweep n=150000000015 m=15", "scenario trials=100000000000"}) {
    const Response capped = server.execute(parse_ok(line));
    EXPECT_FALSE(capped.ok) << line;
    EXPECT_EQ(capped.code, ErrorCode::kInvalidArgument) << line;
  }
  EXPECT_EQ(server.registry().stats().machine_builds, builds);
  EXPECT_TRUE(server.execute(parse_ok("mttf n=4095 m=15")).ok);

  // serve::kMaxBlocks: n inside kMaxN at a small m still asks for millions
  // of check-bit blocks (n=4096 m=1 is 16.7 M, about 2 GB).  Rejected
  // before the registry builds a machine; a normal run still serves.
  for (const std::string line :
       {"run circuit=ctrl n=4096 m=1", "scenario n=4095 m=3 trials=1"}) {
    const Response capped = server.execute(parse_ok(line));
    EXPECT_FALSE(capped.ok) << line;
    EXPECT_EQ(capped.code, ErrorCode::kInvalidArgument) << line;
    EXPECT_NE(capped.error.find("exceeds the cap"), std::string::npos)
        << capped.error;
  }
  EXPECT_EQ(server.registry().stats().machine_builds, builds);
  EXPECT_TRUE(server.execute(parse_ok("run circuit=ctrl n=60 m=15")).ok);

  // The wire format carries the code so clients can dispatch without
  // parsing prose.
  EXPECT_NE(serve::format_response(r1).find("code=invalid_argument"),
            std::string::npos);
}

TEST(ServeRobustness, OversizedSweepGridIsRejectedAndTheServerSurvives) {
  // A points-per-decade step below the ulp of log10(fit) used to spin the
  // grid loop forever, and 1e9 per decade grew a billions-point vector;
  // both answer a typed client error at once, and serving continues.
  Server server;
  for (const std::string line :
       {"sweep fit_low=1e-4 fit_high=1 ppd=100000000000000000",
        "sweep fit_low=1e-4 fit_high=1 ppd=1000000000"}) {
    const auto start = std::chrono::steady_clock::now();
    const Response bad = server.execute(parse_ok(line));
    EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::seconds(1))
        << line;
    EXPECT_FALSE(bad.ok) << line;
    EXPECT_EQ(bad.code, ErrorCode::kInvalidArgument) << line;
    EXPECT_EQ(serve::format_response(bad).rfind(
                  "error kind=sweep code=invalid_argument", 0),
              0u)
        << serve::format_response(bad);
    const Response next =
        server.execute(parse_ok("sweep fit_low=1e-4 fit_high=1e-2 ppd=2"));
    EXPECT_TRUE(next.ok) << next.error;
    EXPECT_EQ(next.sweep_points, 5u);
  }
}

TEST(ServeRobustness, ScenarioHorizonBeyondTheScrubPlanCapIsAClientError) {
  // The scrub plan's sanity cap throws std::length_error; the horizon that
  // trips it comes from the request, so the code is invalid_argument.
  Server server;
  const Response bad = server.execute(parse_ok("scenario horizon=1e12"));
  EXPECT_FALSE(bad.ok);
  EXPECT_EQ(bad.code, ErrorCode::kInvalidArgument);
  EXPECT_NE(serve::format_response(bad).find("code=invalid_argument"),
            std::string::npos)
      << serve::format_response(bad);
}

TEST(ServeRobustness, DeadlineAlreadyExpiredProducesTypedResponse) {
  Server server;
  Request urgent = parse_ok("mttf fit=1e-3 deadline_ms=0.000001");
  const std::uint64_t ticket = server.submit(urgent);
  // The deadline (1ns past admission) has certainly expired by now; the
  // drain lane must refuse to execute and publish kDeadlineExceeded.
  std::this_thread::sleep_for(std::chrono::milliseconds(1));
  EXPECT_EQ(server.drain(), 1u);
  const Response late = server.take(ticket);
  EXPECT_FALSE(late.ok);
  EXPECT_EQ(late.code, ErrorCode::kDeadlineExceeded);
  EXPECT_NE(serve::format_response(late).find("code=deadline_exceeded"),
            std::string::npos);

  // A generous deadline is met normally.
  const std::uint64_t relaxed =
      server.submit(parse_ok("mttf fit=1e-3 deadline_ms=60000"));
  EXPECT_EQ(server.drain(), 1u);
  EXPECT_TRUE(server.take(relaxed).ok);

  // Past the cap, the steady-clock conversion would overflow into an
  // already-expired deadline.  Built in code, such a deadline is clamped
  // and served; on a request line it is a bad value (ParseRequest below).
  for (const double huge : {1e13, 1e300}) {
    Request built = parse_ok("mttf fit=1e-3");
    built.deadline_ms = huge;
    const std::uint64_t clamped = server.submit(built);
    EXPECT_EQ(server.drain(), 1u);
    EXPECT_TRUE(server.take(clamped).ok) << huge;
  }
}

TEST(ParseRequest, DeadlineKeyParsesAndRejectsNegatives) {
  const Request request = parse_ok("mttf fit=1e-3 deadline_ms=250.5");
  EXPECT_EQ(request.deadline_ms, 250.5);
  EXPECT_NE(parse_error("mttf fit=1e-3 deadline_ms=-1").find("bad value"),
            std::string::npos);
  EXPECT_EQ(parse_ok("mttf fit=1e-3 deadline_ms=1e9").deadline_ms,
            serve::kMaxDeadlineMs);
  for (const char* huge : {"1e13", "1e300"}) {
    EXPECT_NE(parse_error(std::string("mttf fit=1e-3 deadline_ms=") + huge)
                  .find("bad value"),
              std::string::npos)
        << huge;
  }
}

TEST(ServeRobustness, ShutdownCancelsQueuedAndReportsCount) {
  ServerConfig config;
  config.max_batch = 1;
  Server server(config);
  std::vector<std::uint64_t> tickets;
  for (int i = 0; i < 3; ++i) {
    tickets.push_back(server.submit(parse_ok("mttf fit=1e-3")));
  }
  EXPECT_EQ(server.drain_once(), 1u);  // one served before the stop arrives

  EXPECT_EQ(server.shutdown(), 2u);  // the two still queued
  EXPECT_EQ(server.pending(), 0u);
  EXPECT_EQ(server.shutdown(), 0u);  // idempotent

  const Response served = server.take(tickets[0]);
  EXPECT_TRUE(served.ok);
  for (std::size_t i = 1; i < tickets.size(); ++i) {
    const Response cancelled = server.take(tickets[i]);
    EXPECT_FALSE(cancelled.ok);
    EXPECT_EQ(cancelled.code, ErrorCode::kCancelled);
  }
  // And the server is closed: no further admission.
  EXPECT_FALSE(server.try_submit(parse_ok("mttf fit=1e-3")).admitted);
}

TEST(ServeRobustness, ShutdownWhileDrainingLosesNoTicket) {
  // Raced against a live drainer (the tsan-audited path): every submitted
  // ticket must resolve to exactly one response -- served or cancelled --
  // and take() must never hang.
  Server server;
  constexpr std::size_t kRequests = 24;
  std::vector<std::uint64_t> tickets;
  for (std::size_t i = 0; i < kRequests; ++i) {
    tickets.push_back(server.submit(parse_ok("mttf fit=1e-3")));
  }

  std::thread drainer([&] {
    while (server.drain_once() != 0) {
    }
  });
  (void)server.shutdown();  // races the drainer mid-queue
  drainer.join();

  std::size_t served = 0;
  std::size_t cancelled = 0;
  for (const std::uint64_t ticket : tickets) {
    const Response response = server.take(ticket);
    if (response.ok) {
      ++served;
    } else {
      EXPECT_EQ(response.code, ErrorCode::kCancelled);
      ++cancelled;
    }
  }
  EXPECT_EQ(served + cancelled, kRequests);
}

TEST(ServeRegistry, CachesCircuitsProgramsAndMachines) {
  serve::Registry registry;
  const auto c1 = registry.circuit("ctrl");
  const auto c2 = registry.circuit("ctrl");
  EXPECT_EQ(c1.get(), c2.get());

  const auto p1 = registry.program("ctrl", 60);
  const auto p2 = registry.program("ctrl", 60);
  const auto p3 = registry.program("ctrl", 120);  // different width: distinct
  EXPECT_EQ(p1.get(), p2.get());
  EXPECT_NE(p1.get(), p3.get());

  {
    auto lease = registry.acquire_machine(60, 15);
    EXPECT_EQ(lease.machine().n(), 60u);
  }  // returned to the pool here
  { auto lease = registry.acquire_machine(60, 15); }

  const serve::RegistryStats stats = registry.stats();
  EXPECT_EQ(stats.circuit_hits, 1u + 2u);  // c2 + the two program() lookups
  EXPECT_EQ(stats.circuit_misses, 1u);
  EXPECT_EQ(stats.program_hits, 1u);
  EXPECT_EQ(stats.program_misses, 2u);
  EXPECT_EQ(stats.machine_builds, 1u);
  EXPECT_EQ(stats.machine_reuses, 1u);
}

TEST(ServeRegistry, TrimmedDesignPointTakesItsScratchAlong) {
  serve::Registry registry;
  {
    auto lease = registry.acquire_machine(60, 15);
    lease.scratch().inputs.reshape(60, 7);
    lease.scratch().expected.resize(26);
  }
  {
    // Back from the pool: the same machine with its buffers.
    auto lease = registry.acquire_machine(60, 15);
    EXPECT_EQ(lease.scratch().inputs.rows(), 60u);
    EXPECT_EQ(lease.scratch().expected.size(), 26u);
  }
  // Enough newer design points to trim (60, 15), the least recently used.
  for (std::size_t i = 1; i <= serve::kMaxPooledMachines; ++i) {
    auto lease = registry.acquire_machine(3 * i, 3);
  }
  EXPECT_EQ(registry.pooled_machines(), serve::kMaxPooledMachines);
  auto lease = registry.acquire_machine(60, 15);
  EXPECT_EQ(registry.stats().machine_builds, serve::kMaxPooledMachines + 2);
  EXPECT_EQ(lease.scratch().inputs.rows(), 0u);
  EXPECT_EQ(lease.scratch().expected.size(), 0u);
}

TEST(ServeRegistry, MachinePoolIsBoundedAcrossDesignPoints) {
  // A client cycling through distinct design points must not leave one
  // idle machine per point behind forever.
  serve::Registry registry;
  for (std::size_t i = 1; i <= 100; ++i) {
    auto lease = registry.acquire_machine(3 * i, 3);
    EXPECT_EQ(lease.machine().n(), 3 * i);
  }
  EXPECT_LE(registry.pooled_machines(), serve::kMaxPooledMachines);
  EXPECT_EQ(registry.stats().machine_builds, 100u);

  // The most recently used points survive; the oldest were evicted.
  { auto lease = registry.acquire_machine(300, 3); }
  { auto lease = registry.acquire_machine(3, 3); }
  EXPECT_EQ(registry.stats().machine_reuses, 1u);
  EXPECT_EQ(registry.stats().machine_builds, 101u);

  // One design point at more concurrent leases than the bound keeps every
  // machine it returns: its own pool is never trimmed.
  {
    std::vector<serve::Registry::MachineLease> leases;
    for (std::size_t i = 0; i < serve::kMaxPooledMachines + 4; ++i) {
      leases.push_back(registry.acquire_machine(30, 3));
    }
  }
  const std::uint64_t builds = registry.stats().machine_builds;
  {
    std::vector<serve::Registry::MachineLease> leases;
    for (std::size_t i = 0; i < serve::kMaxPooledMachines + 4; ++i) {
      leases.push_back(registry.acquire_machine(30, 3));
    }
  }
  EXPECT_EQ(registry.stats().machine_builds, builds);
  EXPECT_EQ(registry.pooled_machines(), serve::kMaxPooledMachines + 4);
}

}  // namespace
}  // namespace pimecc
