#include "util/table.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>

namespace netcut::util {

Table::Table(std::vector<std::string> headers) : headers_(std::move(headers)) {
  if (headers_.empty()) throw std::invalid_argument("Table: no headers");
}

void Table::add_row(std::vector<std::string> cells) {
  if (cells.size() != headers_.size()) throw std::invalid_argument("Table: cell count mismatch");
  rows_.push_back(std::move(cells));
}

std::string Table::num(double v, int precision) {
  std::ostringstream os;
  os.setf(std::ios::fixed);
  os.precision(precision);
  os << v;
  return os.str();
}

std::string Table::to_string() const {
  std::vector<std::size_t> width(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c) width[c] = headers_[c].size();
  for (const auto& row : rows_)
    for (std::size_t c = 0; c < row.size(); ++c) width[c] = std::max(width[c], row[c].size());

  std::ostringstream os;
  auto emit_row = [&](const std::vector<std::string>& cells) {
    os << "|";
    for (std::size_t c = 0; c < cells.size(); ++c) {
      os << ' ' << cells[c] << std::string(width[c] - cells[c].size(), ' ') << " |";
    }
    os << '\n';
  };
  auto emit_rule = [&] {
    os << "+";
    for (std::size_t c = 0; c < width.size(); ++c) os << std::string(width[c] + 2, '-') << '+';
    os << '\n';
  };
  emit_rule();
  emit_row(headers_);
  emit_rule();
  for (const auto& row : rows_) emit_row(row);
  emit_rule();
  return os.str();
}

}  // namespace netcut::util
