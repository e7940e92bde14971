#include "common/table.hpp"

#include <cstdint>
#include <cstdio>
#include <sstream>

#include "common/assert.hpp"
#include "common/format.hpp"

namespace ptb {

std::string format_double(double v, int precision) {
  // Delegates to the locale-pinned path: a host that setlocale()s must not
  // change summary/CSV bytes (they are diffed across machines).
  return format_fixed(v, precision);
}

Table::Table(std::vector<std::string> header) : header_(std::move(header)) {
  PTB_ASSERT(!header_.empty(), "table needs at least one column");
}

std::size_t Table::add_row() {
  rows_.emplace_back(header_.size());
  return rows_.size() - 1;
}

void Table::set(std::size_t row, std::size_t col, std::string value) {
  PTB_ASSERTF(row < rows_.size() && col < header_.size(),
              "cell (%zu, %zu) out of range (%zu x %zu table)", row, col,
              rows_.size(), header_.size());
  rows_[row][col] = std::move(value);
}

void Table::set(std::size_t row, std::size_t col, double value,
                int precision) {
  set(row, col, format_double(value, precision));
}

void Table::set(std::size_t row, std::size_t col, std::int64_t value) {
  set(row, col, std::to_string(value));
}

void Table::add_row(std::vector<std::string> cells) {
  PTB_ASSERTF(cells.size() == header_.size(),
              "row has %zu cells, table has %zu columns", cells.size(),
              header_.size());
  rows_.push_back(std::move(cells));
}

const std::string& Table::cell(std::size_t row, std::size_t col) const {
  PTB_ASSERTF(row < rows_.size() && col < header_.size(),
              "cell (%zu, %zu) out of range (%zu x %zu table)", row, col,
              rows_.size(), header_.size());
  return rows_[row][col];
}

std::string Table::to_text(const std::string& title) const {
  std::vector<std::size_t> width(header_.size());
  for (std::size_t c = 0; c < header_.size(); ++c) width[c] = header_[c].size();
  for (const auto& row : rows_)
    for (std::size_t c = 0; c < row.size(); ++c)
      if (row[c].size() > width[c]) width[c] = row[c].size();

  std::ostringstream out;
  if (!title.empty()) out << "== " << title << " ==\n";
  auto emit_row = [&](const std::vector<std::string>& cells) {
    for (std::size_t c = 0; c < cells.size(); ++c) {
      out << (c == 0 ? "" : "  ");
      // Right-align numerics-ish columns, left-align the first column.
      if (c == 0) {
        out << cells[c] << std::string(width[c] - cells[c].size(), ' ');
      } else {
        out << std::string(width[c] - cells[c].size(), ' ') << cells[c];
      }
    }
    out << '\n';
  };
  emit_row(header_);
  std::size_t total = 0;
  for (std::size_t c = 0; c < width.size(); ++c)
    total += width[c] + (c == 0 ? 0 : 2);
  out << std::string(total, '-') << '\n';
  for (const auto& row : rows_) emit_row(row);
  return out.str();
}

std::string Table::to_csv() const {
  std::ostringstream out;
  auto emit = [&](const std::vector<std::string>& cells) {
    for (std::size_t c = 0; c < cells.size(); ++c) {
      if (c) out << ',';
      out << cells[c];
    }
    out << '\n';
  };
  emit(header_);
  for (const auto& row : rows_) emit(row);
  return out.str();
}

std::string Table::render(const std::string& title) const {
  return to_text(title) + '\n';
}

void Table::print(const std::string& title) const {
  std::fputs(render(title).c_str(), stdout);
}

}  // namespace ptb
