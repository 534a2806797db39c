#include "src/util/csv.h"

#include <sstream>

#include "src/util/check.h"
#include "src/util/file.h"

namespace flo {
namespace {

std::string EscapeField(const std::string& field) {
  if (field.find_first_of(",\"\n") == std::string::npos) {
    return field;
  }
  std::string out = "\"";
  for (char c : field) {
    if (c == '"') {
      out += "\"\"";
    } else {
      out += c;
    }
  }
  out += "\"";
  return out;
}

}  // namespace

CsvWriter::CsvWriter(std::vector<std::string> header) : header_(std::move(header)) {
  FLO_CHECK(!header_.empty());
}

void CsvWriter::AddRow(std::vector<std::string> cells) {
  FLO_CHECK_EQ(cells.size(), header_.size());
  rows_.push_back(std::move(cells));
}

std::string CsvWriter::Render() const {
  std::ostringstream out;
  auto emit = [&](const std::vector<std::string>& row) {
    for (size_t c = 0; c < row.size(); ++c) {
      if (c != 0) {
        out << ",";
      }
      out << EscapeField(row[c]);
    }
    out << "\n";
  };
  emit(header_);
  for (const auto& row : rows_) {
    emit(row);
  }
  return out.str();
}

bool CsvWriter::WriteFile(const std::string& path) const {
  return WriteStringToFile(path, Render());
}

}  // namespace flo
