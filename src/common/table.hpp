// ASCII table / CSV rendering used by the benchmark harness to print the
// paper's tables and figure series.
#pragma once

#include <string>
#include <vector>

namespace ptb {

/// Column-aligned text table with an optional CSV dump. Cells are strings;
/// helpers format doubles with fixed precision.
class Table {
 public:
  explicit Table(std::vector<std::string> header);

  /// Begins a new row; returns its index.
  std::size_t add_row();
  void set(std::size_t row, std::size_t col, std::string value);
  void set(std::size_t row, std::size_t col, double value, int precision = 2);
  void set(std::size_t row, std::size_t col, std::int64_t value);

  /// Convenience: append a full row of preformatted cells.
  void add_row(std::vector<std::string> cells);

  std::size_t rows() const { return rows_.size(); }
  std::size_t cols() const { return header_.size(); }
  const std::string& header(std::size_t col) const { return header_[col]; }
  const std::string& cell(std::size_t row, std::size_t col) const;

  /// Render with aligned columns, header rule, and a title line.
  std::string to_text(const std::string& title = "") const;
  std::string to_csv() const;

  /// `to_text` plus the blank line that separates printed tables.
  std::string render(const std::string& title = "") const;
  /// Print `render` to stdout.
  void print(const std::string& title = "") const;

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

/// Format a double like "12.34" / "-3.10".
std::string format_double(double v, int precision);

}  // namespace ptb
