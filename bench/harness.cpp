#include "harness.hpp"

#include <sched.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <thread>

#include "util/executor.hpp"
#include "util/simd.hpp"

namespace pimecc::bench {

Options parse_options(int argc, char** argv, std::string default_out) {
  Options options;
  options.out = std::move(default_out);
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--smoke") {
      options.smoke = true;
    } else if (arg.starts_with("--out=")) {
      options.out = arg.substr(6);
    } else {
      std::cerr << "usage: " << std::filesystem::path(argv[0]).filename().string()
                << " [--smoke] [--out=PATH]\n";
      std::exit(2);
    }
  }
  return options;
}

std::string fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

double fit_for_mean_flips(double mean_flips, std::uint64_t population,
                          double window_hours) {
  const double p = mean_flips / static_cast<double>(population);
  return p * 1e9 / window_hours;
}

namespace {

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) {
        return line.substr(line.find_first_not_of(' ', colon + 1));
      }
    }
  }
  return "unknown";
}

std::size_t affinity_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 0;
  return static_cast<std::size_t>(CPU_COUNT(&set));
}

}  // namespace

Json& Json::host() {
  const util::Executor& executor = util::Executor::shared();
  std::string compiler = "unknown";
#if defined(__GNUC__)
  compiler = std::string("gcc ") + __VERSION__;
#endif
  return object("host")
      .field("cpu_model", cpu_model())
      .field("nproc", affinity_cpus())
      .field("hardware_concurrency", std::thread::hardware_concurrency())
      .field("executor_workers", executor.worker_count())
      .field("executor_parallelism", executor.parallelism())
      .field("simd_level", util::simd::to_string(util::simd::active_level()))
      .field("build_type", PIMECC_BENCH_BUILD_TYPE)
      .field("compiler", compiler)
      .end();
}

bool Gates::check(bool ok, std::string_view what) {
  if (!ok) {
    std::cerr << "cross-check FAILED: " << what << "\n";
    ok_ = false;
  }
  return ok;
}

Json::Json(std::string_view schema, const Options& options) : out_(options.out) {
  stack_.push_back(Frame{});
  stack_.back().nested = true;  // the document itself always spans lines
  field("schema", schema);
  field("mode", options.smoke ? "smoke" : "full");
}

std::string Json::quote(std::string_view s) {
  std::string quoted = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') quoted += '\\';
    quoted += c;
  }
  quoted += '"';
  return quoted;
}

Json& Json::add(std::string_view key, std::string rendered, bool container) {
  Frame& top = stack_.back();
  top.entries.push_back(key.empty() ? std::move(rendered)
                                    : quote(key) + ": " + rendered);
  top.nested = top.nested || container;
  return *this;
}

Json& Json::open(std::string_view key, bool is_object) {
  stack_.push_back(Frame{is_object, std::string(key), {}, false});
  return *this;
}

Json& Json::object(std::string_view key) { return open(key, true); }
Json& Json::array(std::string_view key) { return open(key, false); }

Json& Json::rate(std::string_view key, const RateSamples& rate) {
  return object(key)
      .field("median", rate.median)
      .field("min", rate.min)
      .field("spread", rate.spread)
      .field("samples", rate.samples)
      .end();
}

Json& Json::end() {
  const std::string key = stack_.back().key;
  std::string rendered = close_top();
  return add(key, std::move(rendered), true);
}

std::string Json::close_top() {
  Frame frame = std::move(stack_.back());
  stack_.pop_back();
  const std::string indent(2 * stack_.size(), ' ');
  std::string s(1, frame.is_object ? '{' : '[');
  for (std::size_t i = 0; i < frame.entries.size(); ++i) {
    if (frame.nested) {
      s += i == 0 ? "\n" : ",\n";
      s += indent;
      s += "  ";
    } else if (i > 0) {
      s += ", ";
    }
    s += frame.entries[i];
  }
  if (frame.nested) {
    s += '\n';
    s += indent;
  }
  s += frame.is_object ? '}' : ']';
  return s;
}

int Json::finish(const Gates& gates, std::string_view gate_key) {
  while (stack_.size() > 1) end();
  if (!gate_key.empty()) {
    std::vector<std::string>& root = stack_.front().entries;
    root.insert(root.begin() + 2, quote(gate_key) + ": " + render(gates.ok()));
  }
  const std::string document = close_top() + "\n";
  std::cout << "cross-checks: " << (gates.ok() ? "ok" : "FAILED -- BUG") << "\n";
  std::ofstream file(out_);
  if (!(file << document)) {
    std::cerr << "cannot write " << out_ << "\n";
    return 1;
  }
  std::cout << "wrote " << out_ << "\n";
  return gates.ok() ? 0 : 1;
}

}  // namespace pimecc::bench
