// e2e_bench -- trace.hpp
//
// The span recorder of the traced run.  Spans are recorded from the
// benchmark's own code, around its calls into each pimecc layer's public
// functions; nothing inside the library is instrumented.
//
// A span carries its layer name, start, end, parent (index within its
// request) and the request id.  The spans of one request live in a
// RequestTrace, written by one thread at a time (the client thread, or the
// executor lane serving the request -- the batch join orders the two).
// After each batch the client folds every RequestTrace into the
// SpanRecorder, which keeps per-layer totals and, up to a cap, the raw
// spans, written out when the benchmark ends.
//
// Layer self time = span duration minus the durations of its children.
// The root span's self time is the part of a request no named layer covers.
#pragma once

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace e2e {

[[nodiscard]] inline std::int64_t now_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

enum class Layer : std::uint8_t {
  kRequest,           // root of one serving request: parse start .. format end
  kCampaignOp,        // root of one campaign call
  kParse,             // serve::parse_request
  kQueueWait,         // submit .. start of its execute on a lane
  kExecMap,           // the map handler
  kExecMttf,          // the mttf handler
  kExecSweep,         // the sweep handler
  kExecRun,           // the run handler
  kTakeWait,          // end of its execute .. response taken by the client
  kFormat,            // serve::format_response
  kRegistry,          // Registry::circuit / program / acquire_machine / release
  kRng,               // util::random_bit_matrix (image + inputs)
  kLoadEncode,        // PimMachine::load
  kCheckBeforeUse,    // PimMachine::check_block_row over every band
  kProtectedWrite,    // PimMachine::write_row_protected over every row
  kProtectedInit,     // one PimMachine::magic_init_rows_protected
  kProtectedNor,      // one PimMachine::magic_nor_rows_protected
  kOutputRead,        // output column reads
  kConsistencyCheck,  // PimMachine::ecc_consistent
  kReferenceCheck,    // CircuitSpec::reference per lane
  kUnprotectedOps,    // simpler::run_simd of the same program (probe)
  kSchedule,          // simpler::schedule_with_ecc
  kMinPcs,            // simpler::find_min_pcs
  kAnalytic,          // rel::evaluate_* / rel::sweep_mttf
  kScenario,          // rel::run_scenario
  kFleetMc,           // rel::run_fleet_montecarlo
  kLifetime,          // rel::simulate_lifetime
  kFleetInject,       // CrossbarFleet::inject_data_error
  kFleetScrub,        // CrossbarFleet::scrub_all
  kCount
};

inline constexpr std::array<const char*, static_cast<std::size_t>(Layer::kCount)>
    kLayerNames = {
        "serve.request",        "campaign.op",
        "serve.parse",          "serve.queue_wait",
        "serve.execute.map",    "serve.execute.mttf",
        "serve.execute.sweep",  "serve.execute.run",
        "serve.take_wait",      "serve.format",
        "serve.registry",       "util.rng",
        "arch.load_encode",     "arch.check_before_use",
        "arch.protected_write", "arch.protected_init",
        "arch.protected_nor",   "arch.output_read",
        "arch.consistency_check", "bench_circuits.reference_check",
        "xbar.unprotected_ops", "simpler.schedule",
        "simpler.min_pcs",      "reliability.analytic",
        "reliability.scenario", "reliability.fleet_mc",
        "reliability.lifetime", "arch.fleet_inject",
        "arch.fleet_scrub"};

[[nodiscard]] inline const char* layer_name(Layer layer) noexcept {
  return kLayerNames[static_cast<std::size_t>(layer)];
}

struct Span {
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t request = 0;
  std::int32_t parent = -1;  ///< index within the request; -1 for a root
  Layer layer = Layer::kRequest;
};

/// The spans of one request.
class RequestTrace {
 public:
  void reset(std::uint64_t request) {
    request_ = request;
    spans_.clear();
  }
  /// Opens a span now; returns its index.
  int open(Layer layer, int parent) {
    return add(layer, parent, now_ns(), 0);
  }
  void close(int index) { spans_[static_cast<std::size_t>(index)].end_ns = now_ns(); }
  /// Records a span with an explicit interval; returns its index.
  int add(Layer layer, int parent, std::int64_t start_ns, std::int64_t end_ns) {
    spans_.push_back(Span{start_ns, end_ns, request_, parent, layer});
    return static_cast<int>(spans_.size()) - 1;
  }
  [[nodiscard]] const std::vector<Span>& spans() const noexcept { return spans_; }

 private:
  std::uint64_t request_ = 0;
  std::vector<Span> spans_;
};

/// RAII span: open on construction, close on destruction.
class Scope {
 public:
  Scope(RequestTrace& trace, Layer layer, int parent)
      : trace_(trace), index_(trace.open(layer, parent)) {}
  ~Scope() { trace_.close(index_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  [[nodiscard]] int index() const noexcept { return index_; }

 private:
  RequestTrace& trace_;
  int index_;
};

struct LayerTotals {
  std::uint64_t spans = 0;
  std::int64_t total_ns = 0;  ///< sum of durations
  std::int64_t self_ns = 0;   ///< sum of self times
};

/// Per-layer aggregate of every absorbed request, plus the first
/// `keep_limit` raw spans.
class SpanRecorder {
 public:
  explicit SpanRecorder(std::size_t keep_limit = 200000) : keep_limit_(keep_limit) {}

  void absorb(const RequestTrace& trace);

  [[nodiscard]] const LayerTotals& totals(Layer layer) const noexcept {
    return totals_[static_cast<std::size_t>(layer)];
  }
  [[nodiscard]] std::uint64_t requests() const noexcept { return requests_; }
  /// Share of a request's root span covered by named child spans: the
  /// minimum over requests, and the aggregate over all of them.
  [[nodiscard]] double coverage_min() const noexcept { return coverage_min_; }
  [[nodiscard]] double coverage_total() const noexcept {
    return root_ns_ > 0 ? 1.0 - static_cast<double>(root_self_ns_) /
                                    static_cast<double>(root_ns_)
                        : 0.0;
  }
  [[nodiscard]] std::uint64_t spans_dropped() const noexcept { return dropped_; }

  /// Writes the kept spans as CSV (request,span,parent,layer,start_ns,end_ns).
  /// Returns false when the file cannot be written.
  bool write_csv(const std::string& path) const;

 private:
  std::size_t keep_limit_;
  std::array<LayerTotals, static_cast<std::size_t>(Layer::kCount)> totals_{};
  std::vector<Span> kept_;
  std::vector<std::int64_t> child_ns_;  // reused by absorb()
  std::uint64_t requests_ = 0;
  std::uint64_t dropped_ = 0;
  double coverage_min_ = 1.0;
  std::int64_t root_ns_ = 0;
  std::int64_t root_self_ns_ = 0;
};

}  // namespace e2e
