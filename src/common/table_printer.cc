#include "common/table_printer.h"

#include <iomanip>
#include <ostream>
#include <sstream>

namespace dpsync {

TablePrinter::TablePrinter(std::vector<std::string> header)
    : header_(std::move(header)) {}

void TablePrinter::AddRow(std::vector<std::string> row) {
  row.resize(header_.size());
  rows_.push_back(std::move(row));
}

std::string TablePrinter::Fmt(double v, int precision) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(precision) << v;
  return os.str();
}

void TablePrinter::Print(std::ostream& os) const {
  std::vector<size_t> width(header_.size());
  for (size_t c = 0; c < header_.size(); ++c) width[c] = header_[c].size();
  for (const auto& row : rows_) {
    for (size_t c = 0; c < row.size(); ++c) {
      width[c] = std::max(width[c], row[c].size());
    }
  }
  auto print_row = [&](const std::vector<std::string>& row) {
    for (size_t c = 0; c < row.size(); ++c) {
      os << std::left << std::setw(static_cast<int>(width[c]) + 2) << row[c];
    }
    os << "\n";
  };
  print_row(header_);
  size_t total = 0;
  for (size_t w : width) total += w + 2;
  os << std::string(total, '-') << "\n";
  for (const auto& row : rows_) print_row(row);
}

}  // namespace dpsync
