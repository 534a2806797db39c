#include "src/util/parse.h"

#include <cmath>

namespace flo {

std::optional<int> TryParseInt(const std::string& text) {
  try {
    size_t consumed = 0;
    const int value = std::stoi(text, &consumed);
    if (consumed != text.size()) {
      return std::nullopt;
    }
    return value;
  } catch (...) {
    return std::nullopt;
  }
}

std::optional<int64_t> TryParseInt64(const std::string& text) {
  try {
    size_t consumed = 0;
    const long long value = std::stoll(text, &consumed);
    if (consumed != text.size()) {
      return std::nullopt;
    }
    return static_cast<int64_t>(value);
  } catch (...) {
    return std::nullopt;  // includes out-of-range
  }
}

std::optional<double> TryParseDouble(const std::string& text) {
  try {
    size_t consumed = 0;
    const double value = std::stod(text, &consumed);
    if (consumed != text.size() || !std::isfinite(value)) {
      return std::nullopt;
    }
    return value;
  } catch (...) {
    return std::nullopt;
  }
}

}  // namespace flo
