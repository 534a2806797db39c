// Small file helpers shared by the on-disk text formats (plan stores,
// serving traces, fleet snapshots) and the trace and CSV exports.
#ifndef SRC_UTIL_FILE_H_
#define SRC_UTIL_FILE_H_

#include <optional>
#include <string>

namespace flo {

// Whole-file read; std::nullopt when the file cannot be opened or read.
std::optional<std::string> ReadFileToString(const std::string& path);
// Whole-file write, replacing any old contents; false when the file cannot
// be opened or the write fails.
bool WriteStringToFile(const std::string& path, const std::string& text);

}  // namespace flo

#endif  // SRC_UTIL_FILE_H_
