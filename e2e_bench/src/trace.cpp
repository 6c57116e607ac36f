#include "trace.hpp"

#include <algorithm>
#include <fstream>

namespace e2e {

void SpanRecorder::absorb(const RequestTrace& trace) {
  const std::vector<Span>& spans = trace.spans();
  child_ns_.assign(spans.size(), 0);
  for (const Span& span : spans) {
    if (span.parent >= 0) {
      child_ns_[static_cast<std::size_t>(span.parent)] += span.end_ns - span.start_ns;
    }
  }
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& span = spans[i];
    const std::int64_t duration = span.end_ns - span.start_ns;
    const std::int64_t self = duration - child_ns_[i];
    LayerTotals& totals = totals_[static_cast<std::size_t>(span.layer)];
    ++totals.spans;
    totals.total_ns += duration;
    totals.self_ns += self;
    const bool request_root =
        span.parent < 0 &&
        (span.layer == Layer::kRequest || span.layer == Layer::kCampaignOp);
    if (request_root && duration > 0) {
      ++requests_;
      root_ns_ += duration;
      root_self_ns_ += self;
      coverage_min_ = std::min(
          coverage_min_,
          1.0 - static_cast<double>(self) / static_cast<double>(duration));
    }
  }
  const std::size_t room = keep_limit_ - std::min(keep_limit_, kept_.size());
  const std::size_t keep = std::min(room, spans.size());
  // Kept spans get parent indices into kept_ itself, so the CSV's span ids
  // are unique across requests.
  const auto base = static_cast<std::int32_t>(kept_.size());
  for (std::size_t i = 0; i < keep; ++i) {
    Span span = spans[i];
    if (span.parent >= 0) span.parent += base;
    kept_.push_back(span);
  }
  dropped_ += spans.size() - keep;
}

bool SpanRecorder::write_csv(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "request,span,parent,layer,start_ns,end_ns\n";
  for (std::size_t i = 0; i < kept_.size(); ++i) {
    const Span& span = kept_[i];
    out << span.request << ',' << i << ',' << span.parent << ','
        << layer_name(span.layer) << ',' << span.start_ns << ',' << span.end_ns
        << '\n';
  }
  return static_cast<bool>(out);
}

}  // namespace e2e
