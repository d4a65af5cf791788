/// \file table_printer.h
/// Aligned ASCII table output for the benchmark harness (reproducing the
/// paper's tables as console output).
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

namespace dpsync {

/// Collects rows of string cells and prints them column-aligned.
class TablePrinter {
 public:
  explicit TablePrinter(std::vector<std::string> header);

  /// Adds one row; pads/truncates to the header width.
  void AddRow(std::vector<std::string> row);

  /// Formats a double with `precision` digits after the point.
  static std::string Fmt(double v, int precision = 2);

  /// Prints an aligned table with a separator under the header.
  void Print(std::ostream& os) const;

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace dpsync
