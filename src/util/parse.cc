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

std::optional<uint64_t> TryParseHexU64(const std::string& text) {
  if (text.empty() || text.size() > 16) {
    return std::nullopt;
  }
  uint64_t value = 0;
  for (const char c : text) {
    int digit;
    if (c >= '0' && c <= '9') {
      digit = c - '0';
    } else if (c >= 'a' && c <= 'f') {
      digit = c - 'a' + 10;
    } else if (c >= 'A' && c <= 'F') {
      digit = c - 'A' + 10;
    } else {
      return std::nullopt;
    }
    value = (value << 4) | static_cast<uint64_t>(digit);
  }
  return value;
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
