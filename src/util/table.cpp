#include "util/table.hpp"

#include <algorithm>
#include <ostream>
#include <sstream>
#include <stdexcept>

namespace pimecc::util {

Table::Table(std::vector<std::string> headers) : headers_(std::move(headers)) {
  if (headers_.empty()) {
    throw std::invalid_argument("Table: must have at least one column");
  }
}

void Table::add_row(std::vector<std::string> cells) {
  if (cells.size() != headers_.size()) {
    throw std::invalid_argument("Table::add_row: wrong number of cells");
  }
  rows_.push_back(std::move(cells));
}

std::string Table::render() const {
  std::vector<std::size_t> widths(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c) widths[c] = headers_[c].size();
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }

  std::ostringstream os;
  auto emit_row = [&](const std::vector<std::string>& cells) {
    for (std::size_t c = 0; c < cells.size(); ++c) {
      os << (c == 0 ? "| " : " | ");
      os << cells[c] << std::string(widths[c] - cells[c].size(), ' ');
    }
    os << " |\n";
  };
  emit_row(headers_);
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    os << (c == 0 ? "|-" : "-|-") << std::string(widths[c], '-');
  }
  os << "-|\n";
  for (const auto& row : rows_) emit_row(row);
  return os.str();
}

std::ostream& operator<<(std::ostream& os, const Table& t) { return os << t.render(); }

std::string format_sig(double value, int digits) {
  std::ostringstream os;
  os.precision(digits);
  os << value;
  return os.str();
}

std::string format_sci(double value, int digits) {
  std::ostringstream os;
  os.precision(digits);
  os << std::scientific << value;
  return os.str();
}

std::string format_pct(double fraction, int digits) {
  std::ostringstream os;
  os.precision(digits);
  os << std::fixed << fraction * 100.0 << '%';
  return os.str();
}

}  // namespace pimecc::util
