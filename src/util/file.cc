#include "src/util/file.h"

#include <fstream>
#include <sstream>

namespace flo {

std::optional<std::string> ReadFileToString(const std::string& path) {
  std::ifstream file(path);
  if (!file) {
    return std::nullopt;
  }
  std::ostringstream buffer;
  buffer << file.rdbuf();
  if (file.bad()) {
    return std::nullopt;
  }
  return buffer.str();
}

bool WriteStringToFile(const std::string& path, const std::string& text) {
  std::ofstream file(path);
  if (!file) {
    return false;
  }
  file << text;
  return static_cast<bool>(file);
}

}  // namespace flo
