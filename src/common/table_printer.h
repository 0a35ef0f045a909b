// ASCII table rendering for the examples' output: one uniform, diffable
// row shape.
#ifndef OBJECTBASE_COMMON_TABLE_PRINTER_H_
#define OBJECTBASE_COMMON_TABLE_PRINTER_H_

#include <cstdint>
#include <string>
#include <vector>

namespace objectbase {

/// Collects rows of string cells and renders an aligned ASCII table.
class TablePrinter {
 public:
  explicit TablePrinter(std::vector<std::string> headers);

  /// Appends one row; pads or truncates to the header width.
  void AddRow(std::vector<std::string> cells);

  /// Renders the table with a header rule.
  std::string Render() const;

  /// Renders to stdout.
  void Print() const;

  /// Formats a double with `digits` decimal places.
  static std::string Fmt(double v, int digits = 2);
  static std::string Fmt(uint64_t v);
  static std::string Fmt(int64_t v);

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace objectbase

#endif  // OBJECTBASE_COMMON_TABLE_PRINTER_H_
