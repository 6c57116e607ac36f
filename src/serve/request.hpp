// pimecc -- serve/request.hpp
//
// Request/response vocabulary of the serving front end (tools/pimecc
// serve + the batched Server).  A request is one line of text in
// `kind key=value ...` form -- the trace format the daemon reads and the
// sweep driver generates:
//
//   map      circuit=ctrl width=1020 n=1020 m=15 pcs=3 coverage=both minpcs=0
//   run      circuit=ctrl n=1020 m=15 seed=42
//   mttf     fit=1e-3 period=24 n=1020 m=15 gib=1
//   sweep    fit_low=1e-4 fit_high=1 ppd=2 period=24 n=1020 m=15 gib=1
//   scenario model=mixed policy=hotrow n=60 m=15 trials=64 horizon=240 fit=1e-3 seed=7
//
// Every numeric field goes through util/parse's strict helpers, so a
// malformed line becomes a rejected request (Response.ok == false), never
// a half-parsed default or a terminate.  Responses render back to one
// line, which keeps the daemon's stdout a machine-readable transcript.
//
// Size caps bound what one line can make the server allocate: Server::handle
// answers invalid_argument for `n` (every kind) or a map's row `width`
// above kMaxN, and for `trials` above kMaxTrials (scenario), before any
// registry lookup or allocation.  The largest values any trace, test or
// bench uses are n = 1020 and 96 trials.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "serve/error.hpp"
#include "simpler/ecc_schedule.hpp"

namespace pimecc::serve {

inline constexpr std::size_t kMaxN = 4096;
inline constexpr std::size_t kMaxTrials = 100000;

enum class RequestKind : unsigned char { kMap, kRun, kMttf, kSweep, kScenario };

[[nodiscard]] std::string_view kind_name(RequestKind kind) noexcept;

/// One parsed request.  Field relevance depends on `kind`; unrelated
/// fields keep their defaults and are ignored by the handler.
struct Request {
  RequestKind kind = RequestKind::kMap;

  // kMap / kRun: which benchmark and architecture point.
  std::string circuit = "ctrl";
  std::size_t row_width = 1020;  ///< mapper row width W (kMap)
  std::size_t n = 1020;
  std::size_t m = 15;
  std::size_t pcs = 3;
  simpler::CoveragePolicy coverage = simpler::CoveragePolicy::kInputsAndOutputs;
  bool min_pcs = false;  ///< kMap: also search the Table I "PC (#)" column

  // kRun: SIMD protected execution with per-lane random inputs.
  std::uint64_t seed = 1;

  // kMttf / kSweep: analytic reliability point(s).
  double fit_per_bit = 1e-3;
  double period_hours = 24.0;
  double memory_gib = 1.0;
  double fit_low = 1e-4;
  double fit_high = 1.0;
  std::size_t points_per_decade = 2;

  // kScenario: Monte Carlo lifetime under a named fault-model preset and
  // scrub-policy preset (reliability/scenario.hpp), at the canonical
  // workload; `period` sets the policy's full-scrub/backstop period and
  // `fit` the SER.
  std::string model = "iid";       ///< rel::fault_preset_names()
  std::string policy = "periodic"; ///< rel::scrub_policy_preset_names()
  std::size_t trials = 64;
  double horizon_hours = 240.0;

  // All kinds: per-request deadline, milliseconds from submission.  0 means
  // no deadline.  Checked at admission into a batch lane (cooperative --
  // an already-executing request runs to completion).
  double deadline_ms = 0.0;
};

/// Parses one trace line.  Returns false and sets `error` on an unknown
/// kind, unknown key, malformed value, or duplicate key; `out` is only
/// meaningful on success.  Blank lines and `#` comments return false with
/// an empty error (callers skip them silently).
bool parse_request(std::string_view line, Request& out, std::string& error);

/// Outcome of one served request.
struct Response {
  bool ok = false;
  RequestKind kind = RequestKind::kMap;
  ErrorCode code = ErrorCode::kNone;  ///< typed failure class when !ok
  std::string error;                  ///< set when !ok

  // kMap
  std::uint64_t baseline_cycles = 0;
  std::uint64_t proposed_cycles = 0;
  std::uint64_t stall_cycles = 0;
  double overhead = 0.0;
  std::size_t min_pcs = 0;  ///< 0 when the search was not requested

  // kRun
  std::size_t lanes = 0;        ///< SIMD rows executed
  std::size_t mismatches = 0;   ///< lanes whose outputs differ from the model
  std::size_t corrections = 0;  ///< before-use check repairs
  bool ecc_consistent = false;

  // kMttf / kSweep
  double baseline_mttf_hours = 0.0;
  double proposed_mttf_hours = 0.0;
  double improvement = 0.0;
  std::size_t sweep_points = 0;
  double min_improvement = 0.0;
  double max_improvement = 0.0;

  // kScenario
  std::size_t trials_run = 0;
  std::size_t failures = 0;
  double scenario_mttf_hours = 0.0;
  double scrub_cells_per_hour = 0.0;
};

/// Renders a response as one `ok ...` / `error ...` line (no newline).
[[nodiscard]] std::string format_response(const Response& response);

}  // namespace pimecc::serve
