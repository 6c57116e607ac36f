// The scaffolding shared by the JSON-emitting benches: command line, rate
// measurement, number format, cross-check gates and the JSON writer.  Each
// bench keeps only its workload, its cross-checks and the names of its keys.
//
//   int main(int argc, char** argv) {
//     const bench::Options options =
//         bench::parse_options(argc, argv, "BENCH_x.json");
//     bench::Gates gates;
//     gates.check(fast == reference, "fast engine matches the reference");
//     bench::Json json("pimecc-bench-x/1", options);
//     json.field("ops_per_sec", bench::measure_rate(0.2, [&] {
//       run();
//       return ops;
//     }));
//     return json.finish(gates, "cross_checks_ok");
//   }
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace pimecc::bench {

/// The bench command line: `[--smoke] [--out=PATH]`.
struct Options {
  bool smoke = false;
  std::string out;
};

/// Parses `[--smoke] [--out=PATH]`; `out` defaults to `default_out`.  Any
/// other argument prints a usage line on stderr and exits with status 2.
[[nodiscard]] Options parse_options(int argc, char** argv, std::string default_out);

/// The bench number format: `%.6g`.
[[nodiscard]] std::string fmt(double v);

/// The FIT/bit that makes the expected flip count per `window_hours` window
/// equal `mean_flips` over a `population`-cell array: p = mean/population,
/// fit = p * 1e9 / window.  The reliability benches' rare-event workloads.
[[nodiscard]] double fit_for_mean_flips(double mean_flips, std::uint64_t population,
                                        double window_hours);

/// Calls `pass` until at least `min_seconds` have elapsed (at least once)
/// and returns the units per second, where each call returns the units it
/// did.  `min_seconds` 0 times exactly one pass.
template <typename Pass>
double measure_rate(double min_seconds, Pass&& pass) {
  using Clock = std::chrono::steady_clock;
  double units = 0.0;
  double elapsed = 0.0;
  const auto start = Clock::now();
  do {
    units += static_cast<double>(pass());
    elapsed = std::chrono::duration<double>(Clock::now() - start).count();
  } while (elapsed < min_seconds);
  return units / elapsed;
}

/// The cross-check gates of one run: any failed check fails the run.
class Gates {
 public:
  /// Records one check; a failure prints `cross-check FAILED: what` on
  /// stderr.  Returns `ok`.
  bool check(bool ok, std::string_view what);
  [[nodiscard]] bool ok() const { return ok_; }

 private:
  bool ok_ = true;
};

/// A minimal JSON writer for one bench document.  Integers stay integers,
/// doubles go through fmt(), booleans print as true/false and strings are
/// quoted.  Containers open with object()/array() and close with end();
/// inside an object values are added with field(), inside an array with
/// item().  A container holding only scalars prints on one line.
class Json {
 public:
  /// Opens the root object with the keys every bench starts with:
  /// "schema" and "mode" ("smoke" or "full").
  Json(std::string_view schema, const Options& options);

  template <typename T>
  Json& field(std::string_view key, const T& value) {
    return add(key, render(value), false);
  }
  template <typename T>
  Json& item(const T& value) {
    return add({}, render(value), false);
  }
  /// Opens an object: a field of the enclosing object under `key`, or an
  /// element of the enclosing array when `key` is empty.
  Json& object(std::string_view key = {});
  /// Opens an array, keyed like object().
  Json& array(std::string_view key = {});
  /// Closes the innermost open container.
  Json& end();

  /// Closes the document (and any container still open), prints the gate
  /// summary, writes the file and prints `wrote PATH`.  With a `gate_key`,
  /// the gates' result is recorded under it right after "schema" and
  /// "mode", however late the checks ran.  Returns the process exit status:
  /// 1 when a gate failed or the file cannot be written, else 0.
  [[nodiscard]] int finish(const Gates& gates, std::string_view gate_key = {});

 private:
  struct Frame {
    bool is_object = true;
    std::string key;
    std::vector<std::string> entries;
    bool nested = false;  // holds a container: one entry per line
  };

  template <typename T>
  static std::string render(const T& value) {
    if constexpr (std::is_same_v<T, bool>) {
      return value ? "true" : "false";
    } else if constexpr (std::is_integral_v<T>) {
      return std::to_string(value);
    } else if constexpr (std::is_floating_point_v<T>) {
      return fmt(value);
    } else {
      return quote(std::string_view(value));
    }
  }
  static std::string quote(std::string_view s);

  Json& add(std::string_view key, std::string rendered, bool container);
  Json& open(std::string_view key, bool is_object);
  [[nodiscard]] std::string close_top();

  std::string out_;
  std::vector<Frame> stack_;
};

}  // namespace pimecc::bench
