#include "serve/server.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "reliability/analytic.hpp"
#include "reliability/scenario.hpp"
#include "simpler/mapper.hpp"
#include "simpler/protected_vm.hpp"
#include "util/executor.hpp"
#include "util/rng.hpp"

namespace pimecc::serve {

Server::Server(ServerConfig config) : config_(config) {
  if (config_.max_batch == 0) {
    throw std::invalid_argument("Server: max_batch must be >= 1");
  }
}

namespace {

std::uint64_t gib_to_bits(double gib) {
  if (!(gib > 0.0) || gib > 1024.0) {
    throw std::invalid_argument("memory size (GiB) out of range (0, 1024]");
  }
  return static_cast<std::uint64_t>(std::llround(gib * 8589934592.0));  // 2^33
}

// The request size caps (serve/request.hpp).  Append form: GCC 12's
// -Wrestrict misfires on `const char* + std::string` (GCC bug 105329).
void require_at_most(const char* key, std::size_t value, std::size_t cap) {
  if (value > cap) {
    std::string message(key);
    message += '=';
    message += std::to_string(value);
    message += " exceeds the cap of ";
    message += std::to_string(cap);
    throw std::invalid_argument(message);
  }
}

Response failure_response(RequestKind kind, ErrorCode code,
                          std::string message) {
  Response response;
  response.kind = kind;
  response.ok = false;
  response.code = code;
  response.error = std::move(message);
  return response;
}

}  // namespace

Response Server::handle(const Request& request) {
  require_at_most("n", request.n, kMaxN);
  if (request.kind == RequestKind::kMap) {
    require_at_most("width", request.row_width, kMaxN);
  }
  if (request.kind == RequestKind::kScenario) {
    require_at_most("trials", request.trials, kMaxTrials);
  }
  if ((request.kind == RequestKind::kRun ||
       request.kind == RequestKind::kScenario) &&
      request.m > 0) {
    const std::size_t bands = request.n / request.m;
    require_at_most("blocks", bands * bands, kMaxBlocks);
  }
  Response response;
  response.kind = request.kind;
  switch (request.kind) {
    case RequestKind::kMap: {
      arch::ArchParams params;
      params.n = request.n;
      params.m = request.m;
      params.num_pcs = request.pcs;
      params.validate();
      const auto program = registry_.program(request.circuit, request.row_width);
      const simpler::EccScheduleResult sched =
          simpler::schedule_with_ecc(*program, params, request.coverage);
      response.baseline_cycles = sched.baseline_cycles;
      response.proposed_cycles = sched.proposed_cycles;
      response.stall_cycles = sched.stall_cycles;
      response.overhead = sched.overhead_fraction();
      if (request.min_pcs) {
        response.min_pcs =
            simpler::find_min_pcs(*program, params, request.coverage);
      }
      break;
    }
    case RequestKind::kRun: {
      const auto spec = registry_.circuit(request.circuit);
      const auto program = registry_.row_program(request.circuit, request.n);
      auto lease = registry_.acquire_machine(request.n, request.m);
      arch::PimMachine& machine = lease.machine();
      // The lease's buffers, reshaped and overwritten in place: a warm lease
      // allocates no matrix row and no reference row.
      Registry::RunScratch& scratch = lease.scratch();
      // The response is a pure function of the request: the explicit seed
      // drives both the resident image (drawn straight into the machine)
      // and the per-lane inputs.
      util::Rng rng(request.seed);
      machine.load_random(rng);
      scratch.inputs.reshape(machine.n(), spec->netlist.num_inputs());
      util::fill_random(scratch.inputs, rng);
      const simpler::ProtectedRunChecks run = simpler::run_program_protected(
          machine, spec->netlist, program->mapped, program->ops, scratch.inputs,
          scratch.outputs);
      response.lanes = machine.n();
      response.corrections = run.input_check_corrections;
      response.ecc_consistent = run.ecc_consistent_after;
      const auto inputs = scratch.inputs.rows_span();
      const auto outputs = scratch.outputs.rows_span();
      for (std::size_t r = 0; r < machine.n(); ++r) {
        spec->evaluate(inputs[r], scratch.expected);
        if (!(scratch.expected == outputs[r])) ++response.mismatches;
      }
      break;
    }
    case RequestKind::kMttf: {
      rel::ReliabilityQuery query;
      query.fit_per_bit = request.fit_per_bit;
      query.check_period_hours = request.period_hours;
      query.n = request.n;
      query.m = request.m;
      query.memory_bits = gib_to_bits(request.memory_gib);
      response.baseline_mttf_hours = rel::evaluate_baseline(query).mttf_hours;
      response.proposed_mttf_hours = rel::evaluate_proposed(query).mttf_hours;
      response.improvement =
          response.baseline_mttf_hours > 0.0
              ? response.proposed_mttf_hours / response.baseline_mttf_hours
              : 0.0;
      break;
    }
    case RequestKind::kSweep: {
      rel::ReliabilityQuery base;
      base.fit_per_bit = request.fit_per_bit;
      base.check_period_hours = request.period_hours;
      base.n = request.n;
      base.m = request.m;
      base.memory_bits = gib_to_bits(request.memory_gib);
      const std::vector<rel::SweepPoint> points = rel::sweep_mttf(
          base, request.fit_low, request.fit_high, request.points_per_decade);
      response.sweep_points = points.size();
      bool first = true;
      for (const rel::SweepPoint& point : points) {
        const double improvement = point.improvement();
        if (first || improvement < response.min_improvement) {
          response.min_improvement = improvement;
        }
        if (first || improvement > response.max_improvement) {
          response.max_improvement = improvement;
        }
        first = false;
      }
      break;
    }
    case RequestKind::kScenario: {
      rel::ScenarioConfig config;
      config.n = request.n;
      config.m = request.m;
      config.trials = request.trials;
      config.max_hours = request.horizon_hours;
      // Serial per request: the batch itself is the parallelism axis
      // (drain_once fans a batch's requests across executor lanes).
      config.threads = 1;
      config.workload = rel::canonical_workload();
      if (!rel::apply_fault_preset(request.model, request.fit_per_bit,
                                   config.faults)) {
        throw std::invalid_argument("unknown fault model '" + request.model + "'");
      }
      if (!rel::apply_policy_preset(request.policy, config.policy)) {
        throw std::invalid_argument("unknown scrub policy '" + request.policy +
                                    "'");
      }
      config.policy.period_hours = request.period_hours;
      // Pure function of the request: the explicit seed drives the campaign.
      util::Rng rng(request.seed);
      const rel::ScenarioResult result = rel::run_scenario(config, rng);
      response.trials_run = result.trials;
      response.failures = result.failures;
      response.scenario_mttf_hours = result.empirical_mttf_hours(config.max_hours);
      response.scrub_cells_per_hour = result.scrub_cells_per_hour(config.max_hours);
      break;
    }
  }
  response.ok = true;
  return response;
}

Response Server::execute(const Request& request) {
  // The taxonomy mapping: typed serving failures keep their code, the deep
  // layers' validation throws (ArchParams::validate, registry lookups,
  // gib_to_bits, the scrub plan's length_error sanity cap on a request's
  // horizon) and a circuit that does not fit the requested row are the
  // client's fault, everything else is ours.
  try {
    return handle(request);
  } catch (const ServeError& e) {
    return failure_response(request.kind, e.code(), e.what());
  } catch (const simpler::RowOverflowError& e) {
    return failure_response(request.kind, ErrorCode::kInvalidArgument,
                            e.what());
  } catch (const std::invalid_argument& e) {
    return failure_response(request.kind, ErrorCode::kInvalidArgument,
                            e.what());
  } catch (const std::out_of_range& e) {
    return failure_response(request.kind, ErrorCode::kInvalidArgument,
                            e.what());
  } catch (const std::length_error& e) {
    return failure_response(request.kind, ErrorCode::kInvalidArgument,
                            e.what());
  } catch (const std::exception& e) {
    return failure_response(request.kind, ErrorCode::kInternal, e.what());
  }
}

Admission Server::try_submit(Request request) {
  const Clock::time_point now = Clock::now();
  std::unique_lock lock(mutex_);
  Admission admission;
  if (closed_) {
    admission.code = ErrorCode::kRejected;
    admission.message = "server is closed";
    return admission;
  }
  if (config_.max_pending != 0 && queue_.size() >= config_.max_pending) {
    admission.code = ErrorCode::kRejected;
    admission.message = "admission queue full (max_pending=" +
                        std::to_string(config_.max_pending) + ")";
    return admission;
  }
  admission.admitted = true;
  admission.code = ErrorCode::kNone;
  admission.ticket = next_ticket_++;
  Pending pending;
  pending.ticket = admission.ticket;
  if (request.deadline_ms > 0.0) {
    // parse_request rejects larger values; the clamp keeps the integer
    // conversion defined for a Request built in code.
    const double deadline_ms = std::min(request.deadline_ms, kMaxDeadlineMs);
    pending.deadline =
        now + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double, std::milli>(deadline_ms));
  }
  pending.request = std::move(request);
  queue_.push_back(std::move(pending));
  return admission;
}

std::uint64_t Server::submit(Request request) {
  Admission admission = try_submit(std::move(request));
  if (!admission.admitted) {
    throw ServeError(admission.code, "Server::submit: " + admission.message);
  }
  return admission.ticket;
}

std::size_t Server::drain_once() {
  std::vector<Pending> batch;
  {
    std::unique_lock lock(mutex_);
    while (!queue_.empty() && batch.size() < config_.max_batch) {
      batch.push_back(std::move(queue_.front()));
      queue_.pop_front();
    }
  }
  if (batch.empty()) return 0;
  std::vector<Response> responses(batch.size());
  util::parallel_for(
      util::Executor::shared(), batch.size(), config_.lanes,
      [&](std::size_t i) {
        const Pending& item = batch[i];
        // Cooperative checks at lane admission: work not yet started is
        // cancellable/expirable; work already executing finishes.
        if (cancel_.load(std::memory_order_acquire)) {
          responses[i] = failure_response(item.request.kind,
                                          ErrorCode::kCancelled,
                                          "cancelled by server shutdown");
          return;
        }
        if (item.deadline.has_value() && Clock::now() > *item.deadline) {
          responses[i] = failure_response(
              item.request.kind, ErrorCode::kDeadlineExceeded,
              "deadline expired before execution");
          return;
        }
        responses[i] = execute(item.request);
      });
  {
    std::unique_lock lock(mutex_);
    for (std::size_t i = 0; i < batch.size(); ++i) {
      responses_.emplace(batch[i].ticket, std::move(responses[i]));
    }
  }
  published_cv_.notify_all();
  return batch.size();
}

std::size_t Server::drain() {
  std::size_t served = 0;
  for (std::size_t batch = drain_once(); batch != 0; batch = drain_once()) {
    served += batch;
  }
  return served;
}

void Server::mark_taken(std::uint64_t ticket) {
  if (ticket == taken_floor_) {
    ++taken_floor_;
    while (!taken_.empty() && *taken_.begin() == taken_floor_) {
      taken_.erase(taken_.begin());
      ++taken_floor_;
    }
  } else {
    taken_.insert(ticket);
  }
}

bool Server::is_taken(std::uint64_t ticket) const {
  return ticket < taken_floor_ || taken_.count(ticket) != 0;
}

Response Server::take(std::uint64_t ticket) {
  std::unique_lock lock(mutex_);
  if (ticket >= next_ticket_) {
    throw ServeError(ErrorCode::kInvalidArgument,
                     "Server::take: unknown ticket");
  }
  if (is_taken(ticket)) {
    // Regression guard: a consumed ticket used to re-enter the wait below
    // and block forever (its response was already erased).
    throw ServeError(ErrorCode::kInvalidArgument,
                     "Server::take: ticket already taken");
  }
  published_cv_.wait(lock, [&] {
    return responses_.count(ticket) != 0 || closed_;
  });
  const auto it = responses_.find(ticket);
  if (it == responses_.end()) {
    // Closed with the ticket still queued or in flight -- if it is in
    // flight a drain may yet publish it, but the caller asked to shut
    // down; report the abandonment rather than block forever.
    throw ServeError(ErrorCode::kCancelled,
                     "Server::take: server closed before response");
  }
  Response response = std::move(it->second);
  responses_.erase(it);
  mark_taken(ticket);
  return response;
}

void Server::close() {
  {
    std::unique_lock lock(mutex_);
    closed_ = true;
  }
  published_cv_.notify_all();
}

std::size_t Server::shutdown() {
  std::size_t cancelled = 0;
  {
    std::unique_lock lock(mutex_);
    closed_ = true;
    cancel_.store(true, std::memory_order_release);
    for (Pending& pending : queue_) {
      responses_.emplace(pending.ticket,
                         failure_response(pending.request.kind,
                                          ErrorCode::kCancelled,
                                          "cancelled by server shutdown"));
      ++cancelled;
    }
    queue_.clear();
  }
  published_cv_.notify_all();
  return cancelled;
}

std::size_t Server::pending() const {
  std::unique_lock lock(mutex_);
  return queue_.size();
}

}  // namespace pimecc::serve
