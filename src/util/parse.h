// Strict numeric parsing for on-disk text formats (serving traces, fault
// scripts): the whole field must be consumed or the parse fails —
// std::stoi/stod stop at the first invalid character and would silently
// accept trailing garbage like "12abc".
#ifndef SRC_UTIL_PARSE_H_
#define SRC_UTIL_PARSE_H_

#include <cstdint>
#include <optional>
#include <string>

namespace flo {

std::optional<int> TryParseInt(const std::string& text);
std::optional<int64_t> TryParseInt64(const std::string& text);
// Finite values only: std::stod also reads "nan" and "inf", which no
// serializer writes and no simulated time, latency or size can hold.
std::optional<double> TryParseDouble(const std::string& text);

}  // namespace flo

#endif  // SRC_UTIL_PARSE_H_
