#include "src/util/table.h"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <sstream>

#include "src/util/check.h"

namespace flo {

Table::Table(std::vector<std::string> header) : header_(std::move(header)) {
  FLO_CHECK(!header_.empty());
}

void Table::AddRow(std::vector<std::string> cells) {
  FLO_CHECK_EQ(cells.size(), header_.size());
  rows_.push_back(std::move(cells));
}

std::string Table::Render() const {
  std::vector<size_t> widths(header_.size());
  for (size_t c = 0; c < header_.size(); ++c) {
    widths[c] = header_[c].size();
  }
  for (const auto& row : rows_) {
    for (size_t c = 0; c < row.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  std::ostringstream out;
  auto emit_row = [&](const std::vector<std::string>& row) {
    for (size_t c = 0; c < row.size(); ++c) {
      out << (c == 0 ? "" : "  ");
      out << row[c];
      out << std::string(widths[c] - row[c].size(), ' ');
    }
    out << "\n";
  };
  emit_row(header_);
  size_t total = 0;
  for (size_t c = 0; c < widths.size(); ++c) {
    total += widths[c] + (c == 0 ? 0 : 2);
  }
  out << std::string(total, '-') << "\n";
  for (const auto& row : rows_) {
    emit_row(row);
  }
  return out.str();
}

std::string FormatDouble(double value, int decimals) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.*f", decimals, value);
  return buffer;
}

std::string FormatDoubleExact(double value) {
  // std::to_chars with a precision writes what printf("%.17g") writes,
  // without the stdio and locale overhead; the plan-record reader formats
  // every double it reads to check its spelling.
  char buffer[64];
  const auto result =
      std::to_chars(buffer, buffer + sizeof(buffer), value, std::chars_format::general, 17);
  return std::string(buffer, result.ptr);
}

std::string FormatBytes(double bytes) {
  const char* units[] = {"B", "KiB", "MiB", "GiB", "TiB"};
  int unit = 0;
  while (bytes >= 1024.0 && unit < 4) {
    bytes /= 1024.0;
    ++unit;
  }
  const int decimals = unit == 0 ? 0 : (bytes < 10 ? 2 : 1);
  return FormatDouble(bytes, decimals) + " " + units[unit];
}

}  // namespace flo
