// pimecc -- util/table.hpp
//
// ASCII table rendering for the benchmark harnesses.  Every bench binary
// that reproduces a paper table/figure prints through this, so outputs have
// a consistent, diffable format.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>
#include <vector>

namespace pimecc::util {

/// Column-aligned text table with a header row.
class Table {
 public:
  explicit Table(std::vector<std::string> headers);

  /// Appends a row; must have exactly as many cells as there are headers.
  void add_row(std::vector<std::string> cells);

  [[nodiscard]] std::size_t num_rows() const noexcept { return rows_.size(); }
  [[nodiscard]] std::size_t num_cols() const noexcept { return headers_.size(); }

  /// Renders with column alignment, `|` separators, and a rule under the
  /// header.
  [[nodiscard]] std::string render() const;

  friend std::ostream& operator<<(std::ostream& os, const Table& t);

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

/// Formats a double with `digits` significant digits (general format).
[[nodiscard]] std::string format_sig(double value, int digits = 4);
/// Formats a double in scientific notation with `digits` fractional digits.
[[nodiscard]] std::string format_sci(double value, int digits = 3);
/// Formats a double as a percentage string like "26.2%".
[[nodiscard]] std::string format_pct(double fraction, int digits = 2);

}  // namespace pimecc::util
