#include "serve/request.hpp"

#include <set>
#include <sstream>
#include <vector>

#include "util/parse.hpp"

namespace pimecc::serve {

std::string_view kind_name(RequestKind kind) noexcept {
  switch (kind) {
    case RequestKind::kMap: return "map";
    case RequestKind::kRun: return "run";
    case RequestKind::kMttf: return "mttf";
    case RequestKind::kSweep: return "sweep";
    case RequestKind::kScenario: return "scenario";
  }
  return "?";
}

namespace {

std::vector<std::string_view> split_ws(std::string_view line) {
  std::vector<std::string_view> tokens;
  std::size_t i = 0;
  while (i < line.size()) {
    while (i < line.size() && (line[i] == ' ' || line[i] == '\t')) ++i;
    std::size_t j = i;
    while (j < line.size() && line[j] != ' ' && line[j] != '\t') ++j;
    if (j > i) tokens.push_back(line.substr(i, j - i));
    i = j;
  }
  return tokens;
}

}  // namespace

bool parse_request(std::string_view line, Request& out, std::string& error) {
  error.clear();
  // Trim trailing CR so traces written on Windows parse identically.
  if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
  const auto tokens = split_ws(line);
  if (tokens.empty() || tokens[0].front() == '#') return false;  // skip, no error

  Request request;
  if (tokens[0] == "map") {
    request.kind = RequestKind::kMap;
  } else if (tokens[0] == "run") {
    request.kind = RequestKind::kRun;
  } else if (tokens[0] == "mttf") {
    request.kind = RequestKind::kMttf;
  } else if (tokens[0] == "sweep") {
    request.kind = RequestKind::kSweep;
  } else if (tokens[0] == "scenario") {
    request.kind = RequestKind::kScenario;
  } else {
    error = "unknown request kind '" + std::string(tokens[0]) + "'";
    return false;
  }

  std::set<std::string_view> seen;
  for (std::size_t t = 1; t < tokens.size(); ++t) {
    const std::string_view token = tokens[t];
    const std::size_t eq = token.find('=');
    if (eq == std::string_view::npos || eq == 0) {
      error = "malformed token '" + std::string(token) + "' (want key=value)";
      return false;
    }
    const std::string_view key = token.substr(0, eq);
    const std::string_view value = token.substr(eq + 1);
    if (!seen.insert(key).second) {
      error = "duplicate key '" + std::string(key) + "'";
      return false;
    }

    auto bad_value = [&] {
      error = "bad value for '" + std::string(key) + "': '" +
              std::string(value) + "'";
      return false;
    };
    auto size_field = [&](std::size_t& field) {
      const auto parsed = util::parse_size(value);
      if (!parsed || *parsed == 0) return bad_value();
      field = *parsed;
      return true;
    };
    auto double_field = [&](double& field) {
      const auto parsed = util::parse_double(value);
      if (!parsed) return bad_value();
      field = *parsed;
      return true;
    };

    if (key == "circuit") {
      if (value.empty()) return bad_value();
      request.circuit = std::string(value);
    } else if (key == "width") {
      if (!size_field(request.row_width)) return false;
    } else if (key == "n") {
      if (!size_field(request.n)) return false;
    } else if (key == "m") {
      if (!size_field(request.m)) return false;
    } else if (key == "pcs") {
      if (!size_field(request.pcs)) return false;
    } else if (key == "coverage") {
      if (value == "outputs") {
        request.coverage = simpler::CoveragePolicy::kOutputsOnly;
      } else if (value == "both") {
        request.coverage = simpler::CoveragePolicy::kInputsAndOutputs;
      } else {
        return bad_value();
      }
    } else if (key == "minpcs") {
      const auto parsed = util::parse_bool(value);
      if (!parsed) return bad_value();
      request.min_pcs = *parsed;
    } else if (key == "seed") {
      const auto parsed = util::parse_u64(value);
      if (!parsed) return bad_value();
      request.seed = *parsed;
    } else if (key == "fit") {
      if (!double_field(request.fit_per_bit)) return false;
    } else if (key == "period") {
      if (!double_field(request.period_hours)) return false;
    } else if (key == "gib") {
      if (!double_field(request.memory_gib)) return false;
    } else if (key == "fit_low") {
      if (!double_field(request.fit_low)) return false;
    } else if (key == "fit_high") {
      if (!double_field(request.fit_high)) return false;
    } else if (key == "ppd") {
      if (!size_field(request.points_per_decade)) return false;
    } else if (key == "model") {
      if (value.empty()) return bad_value();
      request.model = std::string(value);
    } else if (key == "policy") {
      if (value.empty()) return bad_value();
      request.policy = std::string(value);
    } else if (key == "trials") {
      if (!size_field(request.trials)) return false;
    } else if (key == "horizon") {
      if (!double_field(request.horizon_hours)) return false;
    } else if (key == "deadline_ms") {
      if (!double_field(request.deadline_ms)) return false;
      if (request.deadline_ms < 0.0 || request.deadline_ms > kMaxDeadlineMs) {
        return bad_value();
      }
    } else {
      error = "unknown key '" + std::string(key) + "'";
      return false;
    }
  }
  out = request;
  return true;
}

std::string format_response(const Response& response) {
  std::ostringstream os;
  if (!response.ok) {
    os << "error kind=" << kind_name(response.kind)
       << " code=" << error_code_name(response.code) << " message=\""
       << response.error << '"';
    return os.str();
  }
  os << "ok kind=" << kind_name(response.kind);
  switch (response.kind) {
    case RequestKind::kMap:
      os << " baseline=" << response.baseline_cycles
         << " proposed=" << response.proposed_cycles
         << " stalls=" << response.stall_cycles
         << " overhead=" << response.overhead;
      if (response.min_pcs != 0) os << " min_pcs=" << response.min_pcs;
      break;
    case RequestKind::kRun:
      os << " lanes=" << response.lanes
         << " mismatches=" << response.mismatches
         << " corrections=" << response.corrections
         << " ecc_consistent=" << (response.ecc_consistent ? 1 : 0);
      break;
    case RequestKind::kMttf:
      os << " baseline_mttf_h=" << response.baseline_mttf_hours
         << " proposed_mttf_h=" << response.proposed_mttf_hours
         << " improvement=" << response.improvement;
      break;
    case RequestKind::kSweep:
      os << " points=" << response.sweep_points
         << " min_improvement=" << response.min_improvement
         << " max_improvement=" << response.max_improvement;
      break;
    case RequestKind::kScenario:
      os << " trials=" << response.trials_run
         << " failures=" << response.failures
         << " mttf_h=" << response.scenario_mttf_hours
         << " scrub_cells_per_h=" << response.scrub_cells_per_hour;
      break;
  }
  return os.str();
}

}  // namespace pimecc::serve
